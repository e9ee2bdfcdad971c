package main

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func goodSummary() metrics.Summary {
	return metrics.Summary{
		Broadcasts: 40, MeanRE: 0.9, MeanSRB: 0.4, MeanLatency: 30 * sim.Millisecond,
		StdRE: 0.1, StdSRB: 0.2, LatencyP50: 20 * sim.Millisecond, LatencyP95: 90 * sim.Millisecond,
		HelloSent: 500, RepairsRequested: 1, RepairsDelivered: 1,
		Transmissions: 900, Deliveries: 8000, Collisions: 300,
		SimulatedTime: 47 * sim.Second, Events: 12345,
	}
}

func TestDigestRejectsAnyChangedField(t *testing.T) {
	s := goodSummary()
	want := digest(s)
	if err := checkSummary(s, 40, want); err != nil {
		t.Fatalf("good summary rejected: %v", err)
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		changed := goodSummary()
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() - 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() - 1)
		default:
			t.Fatalf("field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
		requests := changed.Broadcasts // keep the invariants satisfied
		if err := checkSummary(changed, requests, want); err == nil {
			t.Errorf("summary with %s changed passed the digest check", v.Type().Field(i).Name)
		}
	}
}

func TestInvariantsRejectBrokenSummaries(t *testing.T) {
	cases := map[string]func(*metrics.Summary){
		"missing broadcast": func(s *metrics.Summary) { s.Broadcasts-- },
		"RE above 1":        func(s *metrics.Summary) { s.MeanRE = 1.01 },
		"negative SRB":      func(s *metrics.Summary) { s.MeanSRB = -0.01 },
		"no events":         func(s *metrics.Summary) { s.Events = 0 },
	}
	for name, mutate := range cases {
		s := goodSummary()
		mutate(&s)
		if err := checkSummary(s, 40, ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRecordedDigestsCoverEveryWorld(t *testing.T) {
	rec, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, _ := newWorkload(name, defaultSeed)
		for _, wd := range w.worlds {
			if rec[name][wd.label] == "" {
				t.Errorf("%s: no recorded digest for %s", name, wd.label)
			}
		}
		if len(rec[name]) != len(w.worlds) {
			t.Errorf("%s: %d recorded digests for %d worlds", name, len(rec[name]), len(w.worlds))
		}
	}
}
