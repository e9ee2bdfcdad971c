package geom_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// bruteWithin is the reference implementation Grid must match exactly.
func bruteWithin(pts []geom.Point, p geom.Point, r float64) []int {
	var out []int
	for i, q := range pts {
		if q.Dist2(p) <= r*r {
			out = append(out, i)
		}
	}
	return out
}

func randomPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return pts
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var g geom.Grid
	for _, tc := range []struct {
		n    int
		w, h float64
		r    float64
	}{
		{1, 100, 100, 50},
		{10, 1000, 1000, 500},
		{100, 2500, 2500, 500},
		{300, 500, 5500, 500},   // thin strip: degenerate aspect ratio
		{200, 5500, 500, 250},   // radius smaller than cell occupancy
		{150, 2500, 2500, 6000}, // radius covering the whole map
	} {
		pts := randomPoints(rng, tc.n, tc.w, tc.h)
		g.Rebuild(pts, tc.r)
		if g.Len() != tc.n {
			t.Fatalf("Len = %d, want %d", g.Len(), tc.n)
		}
		// Query from every indexed point and from a few arbitrary ones.
		for i := range pts {
			got := g.Within(pts[i], tc.r, nil)
			want := bruteWithin(pts, pts[i], tc.r)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d r=%g Within(%d): got %v want %v", tc.n, tc.r, i, got, want)
			}
			nbr := g.Neighbors(i, tc.r, nil)
			want = slices.DeleteFunc(want, func(j int) bool { return j == i })
			if !slices.Equal(nbr, want) {
				t.Fatalf("n=%d r=%g Neighbors(%d): got %v want %v", tc.n, tc.r, i, nbr, want)
			}
		}
		for k := 0; k < 20; k++ {
			p := geom.Point{X: rng.Float64()*tc.w*1.2 - 0.1*tc.w, Y: rng.Float64()*tc.h*1.2 - 0.1*tc.h}
			got := g.Within(p, tc.r, nil)
			if want := bruteWithin(pts, p, tc.r); !slices.Equal(got, want) {
				t.Fatalf("n=%d r=%g Within(off-grid %v): got %v want %v", tc.n, tc.r, p, got, want)
			}
		}
	}
}

func TestGridRebuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g geom.Grid
	// Rebuilding over snapshots of varying size and geometry must not
	// leak state from earlier builds.
	for round := 0; round < 10; round++ {
		n := 1 + rng.Intn(200)
		pts := randomPoints(rng, n, 3000, 3000)
		g.Rebuild(pts, 500)
		for k := 0; k < 5; k++ {
			i := rng.Intn(n)
			got := g.Within(pts[i], 500, nil)
			if want := bruteWithin(pts, pts[i], 500); !slices.Equal(got, want) {
				t.Fatalf("round %d: got %v want %v", round, got, want)
			}
		}
	}
}

func TestGridCoincidentPoints(t *testing.T) {
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Point{X: 10, Y: 20}
	}
	var g geom.Grid
	g.Rebuild(pts, 500)
	got := g.Neighbors(3, 500, nil)
	if want := []int{0, 1, 2, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("coincident Neighbors = %v, want %v", got, want)
	}
}

func TestGridEmpty(t *testing.T) {
	var g geom.Grid
	g.Rebuild(nil, 500)
	if got := g.Within(geom.Point{}, 500, nil); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
}

func TestGridAppendsToBuffer(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 100}, {X: 9999}}
	var g geom.Grid
	g.Rebuild(pts, 500)
	buf := []int{-1}
	buf = g.Within(geom.Point{X: 50}, 500, buf)
	if want := []int{-1, 0, 1}; !slices.Equal(buf, want) {
		t.Fatalf("append semantics broken: %v, want %v", buf, want)
	}
}

func TestGridBadCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive cell size did not panic")
		}
	}()
	var g geom.Grid
	g.Rebuild([]geom.Point{{}}, 0)
}

func TestGridCellOfAndCells(t *testing.T) {
	var g geom.Grid
	pts := []geom.Point{{X: 0, Y: 0}, {X: 950, Y: 450}}
	g.Rebuild(pts, 100)
	cols, rows := g.Cells()
	if cols != 10 || rows != 5 {
		t.Fatalf("Cells = (%d, %d), want (10, 5)", cols, rows)
	}
	if cx, cy := g.CellOf(geom.Point{X: 250, Y: 130}); cx != 2 || cy != 1 {
		t.Errorf("CellOf(250,130) = (%d,%d), want (2,1)", cx, cy)
	}
	// Out-of-bounds points clamp to boundary cells.
	if cx, cy := g.CellOf(geom.Point{X: -50, Y: -50}); cx != 0 || cy != 0 {
		t.Errorf("CellOf below min = (%d,%d), want (0,0)", cx, cy)
	}
	if cx, cy := g.CellOf(geom.Point{X: 5000, Y: 5000}); cx != cols-1 || cy != rows-1 {
		t.Errorf("CellOf above max = (%d,%d), want (%d,%d)", cx, cy, cols-1, rows-1)
	}
}

// CellRange must cover: for any center p (inside or outside the indexed
// box) and any point q within r of p, CellOf(q) lies inside
// CellRange(p, r). The interference engine's locality argument rests on
// exactly this property.
func TestGridCellRangeCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var g geom.Grid
	pts := randomPoints(rng, 60, 800, 600)
	g.Rebuild(pts, 75)
	for trial := 0; trial < 2000; trial++ {
		// Centers sampled well beyond the box to exercise clamping.
		p := geom.Point{X: rng.Float64()*1600 - 400, Y: rng.Float64()*1200 - 300}
		r := rng.Float64() * 300
		cx0, cy0, cx1, cy1 := g.CellRange(p, r)
		if cx0 < 0 || cy0 < 0 {
			t.Fatalf("negative range corner (%d,%d)", cx0, cy0)
		}
		cols, rows := g.Cells()
		if cx1 >= cols || cy1 >= rows || cx0 > cx1 || cy0 > cy1 {
			t.Fatalf("range (%d,%d)-(%d,%d) outside %dx%d grid", cx0, cy0, cx1, cy1, cols, rows)
		}
		// Random q within the disk.
		ang := rng.Float64() * 2 * math.Pi
		rad := rng.Float64() * r
		q := geom.Point{X: p.X + rad*math.Cos(ang), Y: p.Y + rad*math.Sin(ang)}
		qx, qy := g.CellOf(q)
		if qx < cx0 || qx > cx1 || qy < cy0 || qy > cy1 {
			t.Fatalf("q=%+v (cell %d,%d) escapes CellRange(%+v, %g) = (%d,%d)-(%d,%d)",
				q, qx, qy, p, r, cx0, cy0, cx1, cy1)
		}
	}
}

// BenchmarkGridWithin times one radius query per indexed point on the
// worlds the simulator runs: the paper's 100 hosts on maps 1, 5 and 11,
// one dense 200-host cluster, and the sparse 100k-host mega map.
func BenchmarkGridWithin(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		side float64
	}{
		{"map1", 100, 500},
		{"map5", 100, 2500},
		{"map11", 100, 5500},
		{"cluster200", 200, 900},
		{"mega100k", 100000, 150000},
	} {
		rng := rand.New(rand.NewSource(1))
		pts := randomPoints(rng, tc.n, tc.side, tc.side)
		var g geom.Grid
		g.Rebuild(pts, 500)
		b.Run(tc.name, func(b *testing.B) {
			var buf []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = g.Within(pts[i%len(pts)], 500, buf[:0])
			}
		})
	}
}
