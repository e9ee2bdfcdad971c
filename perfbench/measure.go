package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// sample is what one world costs in one pass.
type sample struct {
	setup, run, cpu time.Duration
	alloc           uint64
}

// outcome is what one world did in one pass, beyond its cost.
type outcome struct {
	summary  metrics.Summary
	pool     [2]uint64     // scheduler event-pool hits, misses
	pending  int           // scheduler depth at the mid-run checkpoint
	ckpt     time.Duration // Network.Checkpoint wall time
	ckptSize int
	hook     time.Duration // the whole checkpoint hook, decode included
}

// runWorld builds and runs w once. With a tracer it records spans for
// the world, manet.New, Network.Run and a mid-run checkpoint. A world
// that errors, panics or fails its check returns an error.
func runWorld(w world, want string, tr *tracer, parent int) (smp sample, out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", w.label, r)
		}
	}()
	// Every world starts on a collected heap. Otherwise a GC cycle left
	// running by the world before lands on this one's timings at random
	// and made the set-up times of cluster-static bimodal.
	runtime.GC()
	ws := tr.begin(parent, "world", w.label)
	defer tr.end(ws)

	sp := tr.begin(ws, "setup", "manet.New")
	t0 := time.Now()
	n, err := manet.New(w.cfg)
	smp.setup = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return smp, out, fmt.Errorf("%s: %w", w.label, err)
	}
	rp := -1
	if tr != nil {
		hookCheckpoint(n, w.cfg, tr, &rp, &out)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rp = tr.begin(ws, "run", "Network.Run")
	c0 := cpuTime()
	t1 := time.Now()
	s := n.Run()
	smp.run = time.Since(t1) - out.hook // a traced run's own time
	smp.cpu = cpuTime() - c0
	tr.end(rp)
	runtime.ReadMemStats(&ms1)
	smp.alloc = ms1.TotalAlloc - ms0.TotalAlloc

	out.summary = s
	out.pool[0], out.pool[1] = n.Scheduler().PoolStats()
	if err := checkSummary(s, w.cfg.Requests, want); err != nil {
		return smp, out, fmt.Errorf("%s: %w", w.label, err)
	}
	return smp, out, nil
}

// hookCheckpoint takes one checkpoint near the middle of the run, as a
// span under the Run span, and decodes it again with snapshot.Read.
// runSpan is read when the hook fires, after the Run span has opened.
func hookCheckpoint(n *manet.Network, cfg manet.Config, tr *tracer, runSpan *int, out *outcome) {
	c := cfg.WithDefaults()
	mid := (c.Warmup + sim.Duration(c.Requests)*c.ArrivalSpread/2) / 2
	var buf bytes.Buffer
	done := false
	n.CheckpointEvery = mid
	n.CheckpointHook = func(sim.Time) error {
		if done {
			return nil
		}
		done = true
		h0 := time.Now()
		defer func() { out.hook = time.Since(h0) }()
		out.pending = n.Scheduler().Pending()
		cs := tr.begin(*runSpan, "checkpoint", "Network.Checkpoint")
		t0 := time.Now()
		err := n.Checkpoint(&buf)
		out.ckpt = time.Since(t0)
		defer tr.end(cs)
		if err != nil {
			return err
		}
		out.ckptSize = buf.Len()
		rs := tr.begin(cs, "snapshot", "snapshot.Read")
		_, err = snapshot.Read(&buf)
		tr.end(rs)
		return err
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the kernel's peak-RSS mark of this process to its
// current RSS (Linux clear_refs "5"), so each pass can read its own
// peak. It reports whether the kernel accepted the reset.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	return f.Close() == nil && err == nil
}

// peakRSS is the process's peak resident set size in bytes since the
// last resetPeakRSS, or since it started.
func peakRSS() uint64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseUint(f[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}

// passes collects per-world samples over repeated passes.
type passes struct {
	samples   [][]sample // [world][pass]
	peaks     []float64  // peak RSS of each pass, bytes
	attempted int
	failed    []error
}

func newPasses(worlds int) *passes { return &passes{samples: make([][]sample, worlds)} }

// runPass runs every world of wl once and records the samples. It
// returns the outcomes of the worlds, nil for a failed world.
func (p *passes) runPass(wl *workload, want map[string]string, tr *tracer) []*outcome {
	root := tr.begin(-1, "pass", wl.name)
	defer tr.end(root)
	if resetPeakRSS() {
		defer func() { p.peaks = append(p.peaks, float64(peakRSS())) }()
	}
	outs := make([]*outcome, len(wl.worlds))
	for i, w := range wl.worlds {
		p.attempted++
		smp, out, err := runWorld(w, want[w.label], tr, root)
		if err != nil {
			p.failed = append(p.failed, err)
			continue
		}
		p.samples[i] = append(p.samples[i], smp)
		outs[i] = &out
	}
	return outs
}

// peak is the median of the passes' peak RSS, or the process's peak
// when the kernel cannot reset the mark between passes.
func (p *passes) peak() float64 {
	if len(p.peaks) == 0 {
		return float64(peakRSS())
	}
	return median(p.peaks)
}

// totals sums, over worlds, the median of each cost across passes. A
// world's median discards passes that a burst of host noise slowed.
func (p *passes) totals() (t sample) {
	for _, ss := range p.samples {
		if len(ss) == 0 {
			continue
		}
		t.setup += time.Duration(medianOf(ss, func(s sample) float64 { return float64(s.setup) }))
		t.run += time.Duration(medianOf(ss, func(s sample) float64 { return float64(s.run) }))
		t.cpu += time.Duration(medianOf(ss, func(s sample) float64 { return float64(s.cpu) }))
		t.alloc += uint64(medianOf(ss, func(s sample) float64 { return float64(s.alloc) }))
	}
	return t
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return median(v)
}

// median of v (mean of the middle two for an even count); v is sorted
// in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
