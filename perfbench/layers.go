package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Layer probes. Each one times calls into one layer's public functions
// on data taken from a workload world, inside one span named after the
// layer. A probe does a fixed amount of work, so its span shortens when
// the layer gets faster; the amounts below keep each span within tens
// to a few hundred milliseconds on the three workloads.
const (
	schedSteps     = 1 << 18   // Step+Schedule pairs
	rebuildPoints  = 2_000_000 // points put into the grid, over rebuilds
	withinQueries  = 50_000
	positionCalls  = 2_000_000
	transmitFrames = 10_000
	reachCalls     = 100
	macFrames      = 10_000
	judgesEach     = 1024 // judges per scheme
	foldRecords    = 1_000_000
)

// Caps that keep the probes of the 100k-host world within seconds.
const (
	maxLocalHosts = 1500 // neighbor tables and judges
	maxCellMACs   = 64   // radios in the saturated cell
	framesPerMAC  = 16
)

// probeWorld is the world the probes read: its configuration and the
// state a run of it left behind.
type probeWorld struct {
	cfg     manet.Config // defaulted
	pts     []geom.Point // host positions at the end of the run
	sources []int        // the broadcast source of every request
	records []*metrics.BroadcastRecord
	par     manet.ParallelStats
	run     time.Duration // wall time of its Network.Run
}

// runProbeWorld builds and runs cfg with records retained and broadcast
// sources observed. Its summary must match the recorded digest too.
func runProbeWorld(cfg manet.Config, want string) (pw probeWorld, err error) {
	cfg.RetainRecords = true
	n, err := manet.New(cfg)
	if err != nil {
		return pw, err
	}
	var last uint32
	n.DeliveryHook = func(id packet.BroadcastID, h packet.NodeID) {
		if h == id.Source && id.Seq > last {
			last = id.Seq
			pw.sources = append(pw.sources, int(h))
		}
	}
	t0 := time.Now()
	s := n.Run()
	pw.run = time.Since(t0)
	if err := checkSummary(s, cfg.Requests, want); err != nil {
		return pw, err
	}
	pw.cfg = n.Config()
	pw.pts = n.Positions()
	pw.records = n.Records()
	pw.par = n.ParallelStats()
	return pw, nil
}

// repeat calls fn until it has reported at least n operations, or a
// call reports none, and returns the calls made, the operations done
// and the time they took.
func repeat(n int, fn func() int) (calls, ops int, took time.Duration) {
	t0 := time.Now()
	for last := 1; ops < n && last > 0; calls++ {
		last = fn()
		ops += last
	}
	return calls, ops, time.Since(t0)
}

func nsPer(ops int, d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(max(ops, 1)) }

// fixedPos is a radio that never moves.
type fixedPos geom.Point

func (p fixedPos) PositionAt(sim.Time) geom.Point { return geom.Point(p) }

// nopListener discards everything the channel delivers.
type nopListener struct{}

func (nopListener) CarrierBusy()                 {}
func (nopListener) CarrierIdle()                 {}
func (nopListener) Deliver(*packet.Frame)        {}
func (nopListener) DeliverGarbled(*packet.Frame) {}

var sinkF float64

// probeSched times one Step plus one Schedule on a scheduler holding
// depth pending events, with half of them on shard wheels when the
// workload's engine is sharded.
func probeSched(depth, shards int) float64 {
	s := sim.NewScheduler()
	if shards > 0 {
		s.ConfigureShards(shards, sim.Second)
	}
	rng := sim.NewRNG(11)
	nop := func() {}
	k := 0
	push := func() {
		at := s.Now().Add(rng.UniformDuration(0, 10*sim.Second))
		if shards > 0 && k%2 == 0 {
			s.ScheduleShard((k/2)%shards, at, nop)
		} else {
			s.Schedule(at, nop)
		}
		k++
	}
	for i := 0; i < max(depth, 64); i++ {
		push()
	}
	_, ops, took := repeat(schedSteps, func() int {
		for i := 0; i < 4096; i++ {
			s.Step()
			push()
		}
		return 4096
	})
	return nsPer(ops, took)
}

// cellCounts returns how many of pts fall in each cell of g.
func cellCounts(g *geom.Grid, pts []geom.Point) []int {
	cols, rows := g.Cells()
	counts := make([]int, cols*rows)
	for _, p := range pts {
		cx, cy := g.CellOf(p)
		counts[cy*cols+cx]++
	}
	return counts
}

// probeGrid times Grid.Rebuild and a Grid.Within query at every host,
// and the share of the points in the scanned cells that a query
// returns.
func probeGrid(pts []geom.Point, r float64) (rebuildMS, withinNS, accept float64) {
	var g geom.Grid
	calls, _, took := repeat(rebuildPoints, func() int { g.Rebuild(pts, r); return len(pts) })
	rebuildMS = ms(took) / float64(calls)

	var buf []int
	_, ops, took := repeat(withinQueries, func() int {
		for _, p := range pts {
			buf = g.Within(p, r, buf[:0])
		}
		return len(pts)
	})
	withinNS = nsPer(ops, took)

	counts := cellCounts(&g, pts)
	cols, _ := g.Cells()
	var returned, scanned int
	for _, p := range pts {
		returned += len(g.Within(p, r, buf[:0]))
		cx0, cy0, cx1, cy1 := g.CellRange(p, r)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				scanned += counts[cy*cols+cx]
			}
		}
	}
	return rebuildMS, withinNS, float64(returned) / float64(max(scanned, 1))
}

// probeMobility times Roamer.PositionAt on the workload's kind of
// mover: static roamers for a static world, random-turn roamers
// otherwise.
func probeMobility(pw probeWorld) float64 {
	sched := sim.NewScheduler()
	area := mobility.NewSquareMap(pw.cfg.MapUnits, pw.cfg.UnitMeters)
	pts := pw.pts[:min(len(pw.pts), 20000)]
	roamers := make([]*mobility.Roamer, len(pts))
	rng := sim.NewRNG(pw.cfg.Seed)
	for i, p := range pts {
		if pw.cfg.Static {
			roamers[i] = mobility.NewStaticRoamer(sched, area, p)
		} else {
			roamers[i] = mobility.NewRoamer(sched, area, mobility.DefaultConfig(pw.cfg.MaxSpeedKMH), rng.Fork(uint64(i)))
			roamers[i].Start()
		}
	}
	var t sim.Time
	_, ops, took := repeat(positionCalls, func() int {
		t = t.Add(10 * sim.Millisecond)
		for _, r := range roamers {
			sinkF += r.PositionAt(t).X
		}
		return len(roamers)
	})
	return nsPer(ops, took)
}

// staticChannel attaches a radio with a no-op listener at every point.
func staticChannel(cfg manet.Config, pts []geom.Point) (*sim.Scheduler, *phy.Channel) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, cfg.Timing, cfg.Radius)
	ch.SetMaxSpeed(0)
	for _, p := range pts {
		ch.Attach(fixedPos(p), nopListener{})
	}
	return sched, ch
}

// probePHY times one broadcast Transmit (receiver discovery and
// delivery) and one CountReachable per broadcast source.
func probePHY(pw probeWorld) (transmitNS, reachNS float64) {
	sched, ch := staticChannel(pw.cfg, pw.pts)
	stride := max(1, len(pw.pts)/4000)
	frames := make([]*packet.Frame, len(pw.pts))
	for i := 0; i < len(pw.pts); i += stride {
		frames[i] = packet.NewBroadcast(packet.BroadcastID{Source: packet.NodeID(i), Seq: 1}, packet.NodeID(i), pw.pts[i])
	}
	_, ops, took := repeat(transmitFrames, func() int {
		n := 0
		for i := 0; i < len(pw.pts); i += stride {
			ch.Transmit(i, frames[i], nil)
			sched.Run()
			n++
		}
		return n
	})
	transmitNS = nsPer(ops, took)

	_, ops, took = repeat(reachCalls, func() int {
		for _, src := range pw.sources {
			sinkF += float64(ch.CountReachable(src))
		}
		return len(pw.sources)
	})
	return transmitNS, nsPer(ops, took)
}

// densestCell returns the points of the most populated grid cell.
func densestCell(pts []geom.Point, r float64) []geom.Point {
	var g geom.Grid
	g.Rebuild(pts, r)
	counts := cellCounts(&g, pts)
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	cols, _ := g.Cells()
	var out []geom.Point
	for _, p := range pts {
		if cx, cy := g.CellOf(p); cy*cols+cx == best {
			out = append(out, p)
		}
	}
	return out
}

// probeMAC saturates the densest cell: one MAC per host in it, each
// with framesPerMAC broadcasts queued, drained to the end. It returns
// the time per frame sent.
func probeMAC(pw probeWorld) float64 {
	cell := densestCell(pw.pts, pw.cfg.Radius)
	cell = cell[:min(len(cell), maxCellMACs)]
	sched, ch := staticChannel(pw.cfg, nil)
	rng := sim.NewRNG(pw.cfg.Seed)
	macs := make([]*mac.MAC, len(cell))
	for i, p := range cell {
		macs[i] = mac.New(sched, ch, fixedPos(p), rng.Fork(uint64(i)))
	}
	var seq uint32
	sent := func() (n int) {
		for _, m := range macs {
			n += m.Stats().Sent
		}
		return n
	}
	_, ops, took := repeat(macFrames, func() int {
		before := sent()
		for i, m := range macs {
			for k := 0; k < framesPerMAC; k++ {
				seq++
				m.Enqueue(packet.NewBroadcast(packet.BroadcastID{Source: packet.NodeID(i), Seq: seq}, packet.NodeID(i), cell[i]), nil)
			}
		}
		sched.Run()
		return sent() - before
	})
	return nsPer(ops, took)
}

// localHosts returns up to maxLocalHosts points nearest the centre of
// the densest cell, renumbered from 0, and each one's true unit-disk
// neighbors among them.
func localHosts(pts []geom.Point, r float64) ([]geom.Point, [][]packet.NodeID) {
	cell := densestCell(pts, r)
	var c geom.Point
	for _, p := range cell {
		c.X += p.X / float64(len(cell))
		c.Y += p.Y / float64(len(cell))
	}
	local := append([]geom.Point(nil), pts...)
	sort.SliceStable(local, func(i, j int) bool { return local[i].Dist2(c) < local[j].Dist2(c) })
	local = local[:min(len(local), maxLocalHosts)]
	var g geom.Grid
	g.Rebuild(local, r)
	nbrs := make([][]packet.NodeID, len(local))
	var buf []int
	for i := range local {
		buf = g.Neighbors(i, r, buf[:0])
		for _, j := range buf {
			nbrs[i] = append(nbrs[i], packet.NodeID(j))
		}
	}
	return local, nbrs
}

// probeNeighbor builds one dense table per local host and feeds every
// host the HELLO of each true neighbor, twice (the first round creates
// entries, the second refreshes them). It returns the time and heap
// bytes per OnHello, and the tables.
func probeNeighbor(cfg manet.Config, nbrs [][]packet.NodeID) (ns, bytes float64, tables []*neighbor.Table) {
	sched := sim.NewScheduler()
	tables = make([]*neighbor.Table, len(nbrs))
	for i := range tables {
		tables[i] = neighbor.NewDenseTable(packet.NodeID(i), sched, cfg.ExpiryIntervals, len(nbrs))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	t0 := time.Now()
	for round := 0; round < 2; round++ {
		for h, list := range nbrs {
			for _, g := range list {
				tables[g].OnHello(packet.NodeID(h), list, cfg.HelloInterval)
				calls++
			}
		}
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return nsPer(calls, took), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(calls, 1)), tables
}

// hostView is a scheme.HostView over a HELLO-built neighbor table.
type hostView struct {
	id     packet.NodeID
	pos    geom.Point
	radius float64
	table  *neighbor.Table
	free   *[]*nodeset.Set
	hosts  int
}

func (v *hostView) ID() packet.NodeID                      { return v.id }
func (v *hostView) Position() geom.Point                   { return v.pos }
func (v *hostView) Radius() float64                        { return v.radius }
func (v *hostView) NeighborCount() int                     { return v.table.Count() }
func (v *hostView) Neighbors() []packet.NodeID             { return v.table.Neighbors() }
func (v *hostView) TwoHop(h packet.NodeID) []packet.NodeID { return v.table.TwoHop(h) }
func (v *hostView) NeighborNodeSet() *nodeset.Set          { return v.table.NeighborSet() }

func (v *hostView) AcquireNodeSet() *nodeset.Set {
	if n := len(*v.free); n > 0 {
		s := (*v.free)[n-1]
		*v.free = (*v.free)[:n-1]
		return s
	}
	return nodeset.New(v.hosts)
}

func (v *hostView) ReleaseNodeSet(s *nodeset.Set) {
	s.Clear()
	*v.free = append(*v.free, s)
}

// judgeSchemes are the schemes whose judges probeScheme times.
var judgeSchemes = []struct {
	name string
	s    scheme.Scheme
}{
	{"counter", scheme.Counter{C: 6}},
	{"location", scheme.Location{A: 0.1871}},
	{"ac", scheme.AdaptiveCounter{}},
	{"al", scheme.AdaptiveLocation{}},
	{"nc", scheme.NeighborCoverage{}},
}

// maxDuplicates bounds the duplicate receptions fed to one judge.
const maxDuplicates = 8

// probeScheme times, per scheme, one judge's life at a local host: the
// first reception from its lowest-numbered neighbor, then duplicates
// from the next ones until the judge inhibits. It returns ns per judge.
func probeScheme(cfg manet.Config, local []geom.Point, tables []*neighbor.Table) map[string]float64 {
	var free []*nodeset.Set
	views := make([]*hostView, 0, len(local))
	lists := make([][]packet.NodeID, 0, len(local))
	for i, t := range tables {
		if t.Count() == 0 {
			continue
		}
		views = append(views, &hostView{id: packet.NodeID(i), pos: local[i], radius: cfg.Radius, table: t, free: &free, hosts: len(local)})
		lists = append(lists, t.Neighbors())
	}
	out := make(map[string]float64)
	for _, js := range judgeSchemes {
		if len(views) == 0 {
			out[js.name] = 0
			continue
		}
		next := 0
		_, ops, took := repeat(judgesEach, func() int {
			for k := 0; k < 16; k++ {
				v, nb := views[next], lists[next]
				next = (next + 1) % len(views)
				j := js.s.NewJudge(v, scheme.Reception{From: nb[0], SenderPos: local[nb[0]], U: 0.5})
				if j.Initial() == scheme.Proceed {
					for d := 1; d < len(nb) && d <= maxDuplicates; d++ {
						if j.OnDuplicate(scheme.Reception{From: nb[d], SenderPos: local[nb[d]], U: 0.5}) == scheme.Inhibit {
							break
						}
					}
				}
				scheme.ReleaseJudge(j)
			}
			return 16
		})
		out[js.name] = nsPer(ops, took)
	}
	return out
}

// probeFold times Stream.Fold over the probe world's records.
func probeFold(records []*metrics.BroadcastRecord) float64 {
	_, ops, took := repeat(foldRecords, func() int {
		var s metrics.Stream
		for _, r := range records {
			s.Fold(r)
		}
		sinkF += float64(s.Len())
		return len(records)
	})
	return nsPer(ops, took)
}
