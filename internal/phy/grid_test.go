package phy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// newMovingChannel builds a channel whose radios orbit distinct centers
// at exactly the given speed, so the index's drift-margin reasoning is
// exercised at its declared bound.
func newMovingChannel(n int, radius, speed float64) (*sim.Scheduler, *Channel) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), radius)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		cx := float64(i%side) * radius * 0.7
		cy := float64(i/side) * radius * 0.7
		phase := float64(i)
		orbit := radius * 0.4
		ch.Attach(PositionFunc(func(t sim.Time) geom.Point {
			a := phase + speed*t.Seconds()/orbit
			return geom.Point{X: cx + orbit*math.Cos(a), Y: cy + orbit*math.Sin(a)}
		}), &fakeListener{})
	}
	return sched, ch
}

// linearNeighbors is the reference the index must match exactly.
func linearNeighbors(ch *Channel, i int, now sim.Time) []int {
	var out []int
	pi := ch.positions[i].PositionAt(now)
	r2 := ch.radius * ch.radius
	for j := range ch.positions {
		if j != i && ch.positions[j].PositionAt(now).Dist2(pi) <= r2 {
			out = append(out, j)
		}
	}
	return out
}

func TestNeighborsMatchesLinearWhileMoving(t *testing.T) {
	const speed = 25.0 // m/s, well above any simulated host
	sched, ch := newMovingChannel(60, 500, speed)
	ch.SetMaxSpeed(speed)
	// Advance in irregular steps so queries hit the fresh-snapshot path,
	// the within-budget stale path, and forced rebuilds.
	steps := []sim.Duration{
		0, 17 * sim.Millisecond, 1 * sim.Millisecond, 900 * sim.Millisecond,
		3 * sim.Second, 40 * sim.Microsecond, 11 * sim.Second,
	}
	for _, d := range steps {
		target := sched.Now().Add(d)
		sched.Schedule(target, func() {})
		sched.RunUntil(target)
		for i := 0; i < ch.NumRadios(); i++ {
			got := ch.Neighbors(i, nil)
			want := linearNeighbors(ch, i, sched.Now())
			if !slices.Equal(got, want) {
				t.Fatalf("t=%v radio %d: grid %v != linear %v", sched.Now(), i, got, want)
			}
		}
	}
}

func TestNeighborsWithoutSpeedBoundRebuildsExactly(t *testing.T) {
	// No SetMaxSpeed call: every distinct timestamp must trigger an
	// exact rebuild, so results still match the linear scan.
	sched, ch := newMovingChannel(30, 500, 40)
	for _, d := range []sim.Duration{0, 5 * sim.Second, 13 * sim.Second} {
		target := sim.Time(0).Add(d)
		sched.Schedule(target, func() {})
		sched.RunUntil(target)
		for i := 0; i < ch.NumRadios(); i++ {
			got := ch.Neighbors(i, nil)
			if want := linearNeighbors(ch, i, sched.Now()); !slices.Equal(got, want) {
				t.Fatalf("t=%v radio %d: grid %v != linear %v", sched.Now(), i, got, want)
			}
		}
	}
}

func TestSetMaxSpeedRejectsNegative(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	defer func() {
		if recover() == nil {
			t.Error("negative speed bound did not panic")
		}
	}()
	ch.SetMaxSpeed(-1)
}

// componentSizes is the reference: for every radio, the size of its
// component, found by breadth-first walks over linear-scan adjacency at
// the current instant.
func componentSizes(ch *Channel, now sim.Time) []int {
	sizes := make([]int, ch.NumRadios())
	for src := range sizes {
		if sizes[src] != 0 {
			continue
		}
		comp := []int{src}
		sizes[src] = -1
		for k := 0; k < len(comp); k++ {
			for _, v := range linearNeighbors(ch, comp[k], now) {
				if sizes[v] == 0 {
					sizes[v] = -1
					comp = append(comp, v)
				}
			}
		}
		for _, v := range comp {
			sizes[v] = len(comp)
		}
	}
	return sizes
}

// On a static channel CountReachable answers from a per-snapshot
// component memo. Every source's memoized size must equal a brute-force
// BFS, later instants must reuse the memo (the snapshot stays exact and
// is never rebuilt), each component must be walked once, and attaching
// radios (a new snapshot generation) must discard the memo — here the
// new radio bridges two components, so a stale memo would show.
func TestStaticComponentMemoMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		n    int
		side float64
	}{{1, 100}, {40, 4000}, {150, 6000}, {300, 3000}} {
		sched := sim.NewScheduler()
		ch := NewChannel(sched, DSSSTiming(), 500)
		ch.SetMaxSpeed(0)
		for i := 0; i < tc.n; i++ {
			ch.Attach(static(geom.Point{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side}), &fakeListener{})
		}
		for _, at := range []sim.Time{0, sim.Time(3 * sim.Second), sim.Time(70 * sim.Second)} {
			sched.Schedule(at, func() {})
			sched.RunUntil(at)
			want := componentSizes(ch, at)
			for _, src := range rng.Perm(tc.n) {
				if got := ch.CountReachable(src); got != want[src] {
					t.Fatalf("n=%d t=%v src %d: memo %d, BFS %d", tc.n, at, src, got, want[src])
				}
			}
			if ch.gridGen != 1 {
				t.Fatalf("n=%d: static snapshot rebuilt (generation %d)", tc.n, ch.gridGen)
			}
		}
		labels := map[int32]bool{}
		for _, l := range ch.comp {
			labels[l] = true
		}
		if len(labels) != len(ch.compSize) {
			t.Fatalf("n=%d: %d components labeled by %d walks", tc.n, len(labels), len(ch.compSize))
		}
	}

	// Two radios out of range of each other, then a third between them.
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	ch.Attach(static(geom.Point{X: 0}), &fakeListener{})
	ch.Attach(static(geom.Point{X: 800}), &fakeListener{})
	if got := ch.CountReachable(0); got != 1 {
		t.Fatalf("isolated radio reaches %d, want 1", got)
	}
	gen := ch.gridGen
	i := ch.AttachBatch(1)
	ch.SetRadio(i, static(geom.Point{X: 400}), &fakeListener{})
	for src := 0; src < 3; src++ {
		if got := ch.CountReachable(src); got != 3 {
			t.Fatalf("after bridging, radio %d reaches %d, want 3", src, got)
		}
	}
	if ch.gridGen == gen {
		t.Fatal("attaching a radio did not start a new snapshot generation")
	}
}
