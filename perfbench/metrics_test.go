package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/manet"
	"repro/internal/scheme"
)

type declared struct {
	Name, Unit, Better string
}

func benchmarkJSON(t *testing.T) (e2e, layers []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	return bench.EndToEnd, bench.PerLayer
}

func sameSpecs(t *testing.T, kind string, decl []declared, specs []metricSpec) {
	t.Helper()
	if len(decl) != len(specs) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(decl), len(specs))
	}
	for i := 0; i < min(len(decl), len(specs)); i++ {
		d, s := decl[i], specs[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
			t.Errorf("%s #%d: BENCHMARK.json has %+v, the program %+v", kind, i, d, s)
		}
	}
}

// tinyWorkload is one small world, so a full run takes a second.
func tinyWorkload() *workload {
	cfg := manet.Config{Hosts: 40, MapUnits: 3, Scheme: scheme.AdaptiveCounter{}, Requests: 4, Seed: 5}
	return &workload{name: "tiny", worlds: []world{{"tiny", cfg}}, warm: cfg}
}

func checkEmitted(t *testing.T, res result, decl []declared) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("tiny run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(decl) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(decl))
	}
	for _, d := range decl {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %s emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
		}
	}
}

func TestEveryDeclaredMetricIsEmittedWithItsUnit(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	sameSpecs(t, "end_to_end", e2e, endToEnd)
	sameSpecs(t, "per_layer", layers, perLayer())

	checkEmitted(t, measure(tinyWorkload(), nil, 1, io.Discard), e2e)

	spans := filepath.Join(t.TempDir(), "spans.json")
	res, err := ledger(tinyWorkload(), nil, 1, spans, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, layers)
	if b, err := os.ReadFile(spans); err != nil || !strings.Contains(string(b), `"Network.Run"`) {
		t.Errorf("span file missing or without a Network.Run span (err %v)", err)
	}
}

func TestResultIsTheLastLine(t *testing.T) {
	var out strings.Builder
	printResult("tiny", result{Correct: true, Attempted: 1, Metrics: map[string]value{"run_s": {1.5, "s"}}}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("last line has %d keys, want 4", len(res))
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-fig13", "--seconds", "0"},
		{"--workload", "paper-fig13", "--trace", "2"},
		{"--workload", "paper-fig13", "extra"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
