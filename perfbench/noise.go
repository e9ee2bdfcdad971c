package main

import (
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Host-noise probes. They run fixed work that does not depend on the
// program under test, so a drift in them between two sets of runs is a
// drift of the host (CPU share, memory system), not of the program.

// registerLoop is a register-only integer loop.
func registerLoop() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// randomWalk chases a random cyclic permutation over a 4 MB table, so
// every step is a dependent load that misses the core's private caches.
type randomWalk []uint32

func newRandomWalk() randomWalk {
	const n = 1 << 20 // 4 MB of uint32
	next := make(randomWalk, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: one cycle through every slot.
	rng := sim.NewRNG(7)
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

func (w randomWalk) walk() uint32 {
	var p uint32
	for i := 0; i < 1_000_000; i++ {
		p = w[p]
	}
	return p
}

var noiseSink uint64

// hostNoise times each probe three times and returns the medians in ms.
func hostNoise(w randomWalk) (regMS, randMS float64) {
	var reg, rnd []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		noiseSink += registerLoop()
		t1 := time.Now()
		noiseSink += uint64(w.walk())
		t2 := time.Now()
		reg = append(reg, ms(t1.Sub(t0)))
		rnd = append(rnd, ms(t2.Sub(t1)))
	}
	return median(reg), median(rnd)
}

// cpuTicks returns the guest's stolen and total CPU ticks from
// /proc/stat: time the hypervisor ran something else while a virtual
// CPU of this machine had work.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare is the share of CPU ticks stolen since (steal0, total0),
// or -1 when /proc/stat is not readable.
func stealShare(steal0, total0 uint64, ok0 bool) float64 {
	steal1, total1, ok1 := cpuTicks()
	if !ok0 || !ok1 || total1 == total0 {
		return -1
	}
	return float64(steal1-steal0) / float64(total1-total0)
}
