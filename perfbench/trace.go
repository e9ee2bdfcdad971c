package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around a public function. Parent is the id of the enclosing span, or
// -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes share the traced code path.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		Start: int64(time.Since(t.origin)), End: -1,
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
	}
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of its interval that its children
// cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
