package geom_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// FuzzGridWithin checks Within against the brute-force ascending scan on
// the shapes that exercise its ordering paths: clustered points (dense
// cells, results long enough to merge), duplicated points (equal
// positions, distinct ids), query radii many cells wide (more ascending
// runs than the merge takes, so it falls back to sorting), and a
// non-empty buf prefix that must come back untouched.
func FuzzGridWithin(f *testing.F) {
	// seed, points, clusters, cell, radius multiple (tenths), duplicates, prefix length
	f.Add(int64(1), uint16(200), uint8(1), float64(500), uint8(10), uint8(0), uint8(0))   // one dense cluster
	f.Add(int64(2), uint16(1600), uint8(8), float64(500), uint8(10), uint8(0), uint8(3))  // banded-cluster shape
	f.Add(int64(3), uint16(300), uint8(2), float64(100), uint8(10), uint8(40), uint8(1))  // duplicated points
	f.Add(int64(4), uint16(4000), uint8(0), float64(50), uint8(120), uint8(0), uint8(5))  // radius of 12 cells: > 31 runs
	f.Add(int64(5), uint16(40), uint8(0), float64(500), uint8(10), uint8(0), uint8(2))    // sparse: short results
	f.Add(int64(6), uint16(500), uint8(3), float64(200), uint8(25), uint8(100), uint8(7)) // mixed
	f.Add(int64(7), uint16(100), uint8(0), float64(1e4), uint8(10), uint8(0), uint8(2))   // one cell: a single run
	f.Fuzz(func(t *testing.T, seed int64, n uint16, clusters uint8, cell float64, mult, dups, prefix uint8) {
		if n == 0 || n > 4000 || !(cell >= 1 && cell <= 1e4) || mult == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		const side = 5000.0
		pts := make([]geom.Point, n)
		centers := make([]geom.Point, clusters)
		for i := range centers {
			centers[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		for i := range pts {
			if len(centers) == 0 {
				pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				continue
			}
			c := centers[rng.Intn(len(centers))]
			pts[i] = geom.Point{X: c.X + (rng.Float64()*2-1)*cell, Y: c.Y + (rng.Float64()*2-1)*cell}
		}
		for k := 0; k < int(dups); k++ {
			pts[rng.Intn(len(pts))] = pts[rng.Intn(len(pts))]
		}
		var g geom.Grid
		g.Rebuild(pts, cell)
		r := cell * float64(mult) / 10
		pre := make([]int, prefix)
		for i := range pre {
			pre[i] = len(pre) - i // descending, so any reordering shows
		}
		for q := 0; q < 20; q++ {
			p := pts[rng.Intn(len(pts))]
			if q%4 == 3 {
				p = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			}
			buf := append(make([]int, 0, rng.Intn(64)), pre...)
			got := g.Within(p, r, buf)
			want := append(slices.Clone(pre), bruteWithin(pts, p, r)...)
			if !slices.Equal(got, want) {
				t.Fatalf("Within(%v, %g) over %d points:\ngot  %v\nwant %v", p, r, len(pts), got, want)
			}
		}
	})
}
