package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 1, Layer: "c", Start: 15, End: 20},
		{ID: 4, Parent: 1, Layer: "c", Start: 35, End: 45}, // runs past a's end
		{ID: 5, Parent: -1, Layer: "a", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 50, // a ∪ b covers [10, 60)
		"a":    (30 - 5 - 5) + 10,
		"b":    30,
		"c":    15,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d layers, want %d: %v", len(got), len(want), got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "pass", "p")
	kid := tr.begin(root, "run", "r")
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("bad spans: %+v", tr.spans)
	}
	var none *tracer
	if id := none.begin(-1, "x", "x"); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.end(-1)
}
