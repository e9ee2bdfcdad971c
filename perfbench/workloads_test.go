package main

import (
	"reflect"
	"testing"
)

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two workloads from seed 7 differ", name)
		}
		c, _ := newWorkload(name, 8)
		for i := range a.worlds {
			ca, cc := a.worlds[i].cfg, c.worlds[i].cfg
			if ca.Seed == cc.Seed {
				t.Errorf("%s world %d: seeds 7 and 8 give the same world seed", name, i)
			}
			if len(ca.Placement) > 0 && reflect.DeepEqual(ca.Placement, cc.Placement) {
				t.Errorf("%s world %d: seeds 7 and 8 give the same placement", name, i)
			}
		}
	}
}

func TestWorldsOfOneWorkloadDiffer(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 1)
		seeds := map[uint64]bool{w.warm.Seed: true}
		for _, wd := range w.worlds {
			if seeds[wd.cfg.Seed] {
				t.Errorf("%s: world %s repeats a seed", name, wd.label)
			}
			seeds[wd.cfg.Seed] = true
		}
	}
}

func TestClusterPlacementKeepsClustersApart(t *testing.T) {
	w, _ := newWorkload("cluster-static", 3)
	for _, wd := range w.worlds {
		pts := wd.cfg.Placement
		if len(pts) != clusterCount*clusterHosts {
			t.Fatalf("%s: %d hosts", wd.label, len(pts))
		}
		for i, p := range pts {
			for j := (i/clusterHosts + 1) * clusterHosts; j < len(pts); j++ {
				if p.Dist2(pts[j]) <= 500*500 {
					t.Fatalf("%s: hosts %d and %d of different clusters are in radio range", wd.label, i, j)
				}
			}
		}
		for c := 0; c < clusterCount; c++ {
			band := float64(c % clusterBands)
			lo, hi := band*clusterPerBand, (band+1)*clusterPerBand
			for _, p := range pts[c*clusterHosts : (c+1)*clusterHosts] {
				if p.Y-510 < lo || p.Y+510 > hi {
					t.Fatalf("%s cluster %d: host at y=%.0f reaches outside band [%.0f, %.0f)", wd.label, c, p.Y, lo, hi)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
