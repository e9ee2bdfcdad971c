package main

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// A world is one configuration the benchmark builds with manet.New and
// runs with Network.Run. Its label names it in digests and spans.
type world struct {
	label string
	cfg   manet.Config
}

// A workload is the fixed list of worlds one pass builds and runs. A run
// repeats passes over the same list, so every pass does identical work.
type workload struct {
	name   string
	worlds []world
	// warm is built and run once, untimed, before the first pass so
	// lazy runtime and package set-up is not charged to the first world.
	warm manet.Config
	// probe indexes the world the traced run's layer probes read.
	probe int
}

// probeShards is the probe world's shard count.
const probeShards = 2

// probeConfig is the probe world's configuration on the sharded engine,
// so that its barrier statistics exist on every workload. Every engine
// gives the same summary, so the recorded digest still applies.
func (w *workload) probeConfig() manet.Config {
	c := w.worlds[w.probe].cfg
	c.Engine, c.Shards = manet.EngineSharded, probeShards
	return c
}

var workloadNames = []string{"paper-fig13", "cluster-static", "mega-mobile"}

// worldSeed derives the Config.Seed of world i from the workload seed,
// so the program sees only the generated configs.
func worldSeed(seed uint64, i int) uint64 {
	return sim.NewRNG(seed).Fork(uint64(i) + 1).Uint64()
}

// fig13Schemes are the eight schemes of the paper's Fig. 13.
func fig13Schemes() []world {
	return []world{
		{"flooding", manet.Config{Scheme: scheme.Flooding{}}},
		{"C=2", manet.Config{Scheme: scheme.Counter{C: 2}}},
		{"C=6", manet.Config{Scheme: scheme.Counter{C: 6}}},
		{"AC", manet.Config{Scheme: scheme.AdaptiveCounter{}}},
		{"A=0.1871", manet.Config{Scheme: scheme.Location{A: 0.1871}}},
		{"A=0.0134", manet.Config{Scheme: scheme.Location{A: 0.0134}}},
		{"AL", manet.Config{Scheme: scheme.AdaptiveLocation{}}},
		{"NC-DHI", manet.Config{
			Scheme:    scheme.NeighborCoverage{Label: "NC-DHI"},
			HelloMode: manet.HelloDynamic,
		}},
	}
}

// Sizes of the workloads. They set how much work one pass does.
const (
	fig13Requests   = 40
	clusterWorlds   = 8
	clusterRequests = 25
	megaWorlds      = 4
	megaRequests    = 60
)

var fig13Maps = []int{1, 5, 11}

// newWorkload generates the named workload's worlds from seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "paper-fig13":
		return fig13Workload(seed), nil
	case "cluster-static":
		return clusterWorkload(seed), nil
	case "mega-mobile":
		return megaWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig13Workload is the paper's configuration: 100 random-turn hosts
// with paper defaults, the eight Fig. 13 schemes on maps 1, 5 and 11,
// on the default (sequential) engine.
func fig13Workload(seed uint64) *workload {
	w := &workload{name: "paper-fig13"}
	for _, mu := range fig13Maps {
		for _, s := range fig13Schemes() {
			c := s.cfg
			c.MapUnits = mu
			c.Requests = fig13Requests
			c.Seed = worldSeed(seed, len(w.worlds))
			w.worlds = append(w.worlds, world{fmt.Sprintf("map%d/%s", mu, s.label), c})
		}
	}
	w.warm = w.worlds[0].cfg
	w.warm.Seed = worldSeed(seed, -1)
	w.probe = 3 // map 1, AC: the densest map and a HELLO-driven scheme
	return w
}

// Banded-cluster geometry: 8 clusters of 200 hosts on a 40-unit map,
// round-robin over 4 horizontal bands, each cluster placed so that its
// hosts' interaction disks stay inside their band.
const (
	clusterUnits   = 40
	clusterSide    = clusterUnits * 500.0
	clusterBands   = 4
	clusterCount   = 8
	clusterHosts   = 200
	clusterSpread  = 450.0                 // cluster half-extent, meters
	clusterGuard   = clusterSpread + 510.0 // + radio radius + drift margin
	clusterPerBand = clusterSide / clusterBands
	clusterShards  = 2
)

// The mega map keeps the paper's density out of reach on purpose: mean
// degree is below the percolation threshold, so broadcasts stay small
// while movement and the spatial index carry the whole population. The
// paper's 10 km/h-per-unit speed rule would give thousands of km/h
// here, so the speed is pinned to a vehicle's.
const (
	megaHosts    = 100_000
	megaUnits    = 300
	megaSpeedKMH = 50
	megaShards   = 2
)

// clusterPlacement draws the banded-cluster placement from rng. The two
// clusters of a band are drawn far enough apart in x that no radio
// reaches from one to the other, so every world holds eight separate
// 200-host storms and worlds differ only inside their clusters.
func clusterPlacement(rng *sim.RNG) []geom.Point {
	pts := make([]geom.Point, 0, clusterCount*clusterHosts)
	xs := make([]float64, clusterCount)
	for c := 0; c < clusterCount; c++ {
		base := float64(c%clusterBands) * clusterPerBand
		cy := base + clusterGuard + rng.Float64()*(clusterPerBand-2*clusterGuard)
		cx := clusterSpread + 10 + rng.Float64()*(clusterSide-2*(clusterSpread+10))
		for c >= clusterBands && math.Abs(cx-xs[c-clusterBands]) < clusterSpread+clusterGuard {
			cx = clusterSpread + 10 + rng.Float64()*(clusterSide-2*(clusterSpread+10))
		}
		xs[c] = cx
		for i := 0; i < clusterHosts; i++ {
			pts = append(pts, geom.Point{
				X: cx + (rng.Float64()*2-1)*clusterSpread,
				Y: cy + (rng.Float64()*2-1)*clusterSpread,
			})
		}
	}
	return pts
}

func clusterConfig(pts []geom.Point, seed uint64) manet.Config {
	return manet.Config{
		Hosts:     len(pts),
		MapUnits:  clusterUnits,
		Placement: pts,
		Static:    true,
		Scheme:    scheme.Flooding{},
		Requests:  clusterRequests,
		Engine:    manet.EngineSharded,
		Shards:    clusterShards,
		Seed:      seed,
	}
}

// clusterWorkload is the static banded-cluster world: dense local
// storms, flooding, HELLO off, sharded engine on 2 shards. Each world
// draws its own placement from the seed.
func clusterWorkload(seed uint64) *workload {
	w := &workload{name: "cluster-static"}
	rng := sim.NewRNG(seed).Fork(0xc1)
	for i := 0; i < clusterWorlds; i++ {
		pts := clusterPlacement(rng)
		w.worlds = append(w.worlds, world{fmt.Sprintf("cluster/%d", i), clusterConfig(pts, worldSeed(seed, i))})
	}
	w.warm = clusterConfig(clusterPlacement(rng), worldSeed(seed, -1))
	return w
}

func megaConfig(seed uint64) manet.Config {
	return manet.Config{
		Hosts:       megaHosts,
		MapUnits:    megaUnits,
		MaxSpeedKMH: megaSpeedKMH,
		Scheme:      scheme.Flooding{},
		Requests:    megaRequests,
		Engine:      manet.EngineSharded,
		Shards:      megaShards,
		Seed:        seed,
	}
}

// megaWorkload is 100k random-turn hosts on a 300-unit map at 50 km/h,
// flooding, HELLO off, sharded engine on 2 shards, no Arena.
func megaWorkload(seed uint64) *workload {
	w := &workload{name: "mega-mobile"}
	for i := 0; i < megaWorlds; i++ {
		w.worlds = append(w.worlds, world{fmt.Sprintf("mega/%d", i), megaConfig(worldSeed(seed, i))})
	}
	w.warm = megaConfig(worldSeed(seed, -1))
	return w
}
