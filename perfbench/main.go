// Command perfbench is the repository's benchmark. It builds and runs
// whole simulated networks through manet.New and Network.Run on three
// workloads and reports end-to-end costs; with --trace 1 it instead
// fills a per-layer ledger by timing calls into each layer's public
// functions on the same worlds. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/manet"
	"repro/internal/neighbor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec names a metric, its unit and which direction is better.
// BENCHMARK.json declares the same lists (a test keeps them equal).
type metricSpec struct{ name, unit, better string }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"run_alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// spanLayers are the layers whose self time the traced run reports.
var spanLayers = []string{
	"world", "setup", "run", "checkpoint", "snapshot",
	"sim", "geom", "mobility", "phy", "mac", "neighbor", "scheme", "metrics",
}

func perLayer() []metricSpec {
	specs := []metricSpec{
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.pool_hit_rate", "ratio", "higher"},
		{"sim.step_ns", "ns", "lower"},
		{"geom.within_ns", "ns", "lower"},
		{"geom.within_accept_ratio", "ratio", "higher"},
		{"geom.rebuild_ms", "ms", "lower"},
		{"mobility.position_at_ns", "ns", "lower"},
		{"phy.transmit_ns", "ns", "lower"},
		{"phy.transmissions", "count", "lower"},
		{"phy.collisions", "count", "lower"},
		{"phy.reach_ns", "ns", "lower"},
		{"mac.frame_ns", "ns", "lower"},
		{"neighbor.on_hello_ns", "ns", "lower"},
		{"neighbor.on_hello_bytes", "B", "lower"},
		{"neighbor.hellos", "count", "lower"},
	}
	for _, js := range judgeSchemes {
		specs = append(specs, metricSpec{"scheme.judge_ns." + js.name, "ns", "lower"})
	}
	specs = append(specs,
		metricSpec{"metrics.fold_ns", "ns", "lower"},
		metricSpec{"manet.border_share", "ratio", "lower"},
		metricSpec{"manet.barriers", "count", "lower"},
		metricSpec{"manet.wait_share", "ratio", "lower"},
		metricSpec{"snapshot.checkpoint_ms", "ms", "lower"},
		metricSpec{"snapshot.bytes_per_host", "B", "lower"},
	)
	for _, l := range spanLayers {
		specs = append(specs, metricSpec{"self_ms." + l, "ms", "lower"})
	}
	return append(specs, metricSpec{"trace.overhead_ms", "ms", "lower"})
}

// minPasses is the fewest passes a run makes, however short --seconds.
const minPasses = 3

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-fig13, cluster-static, mega-mobile, or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the recorded digests are checked at the default")
	seconds := fs.Int("seconds", 10, "how long the passes run")
	traced := fs.Int("trace", 0, "1 fills the per-layer ledger instead of measuring end to end")
	spanPath := fs.String("spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	printDigests := fs.Bool("print-digests", false, "print the summary digest of every world at --seed as digests.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var wls []*workload
	for _, n := range names {
		wl, err := newWorkload(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		wls = append(wls, wl)
	}
	if *printDigests {
		return writeDigests(wls, stdout, stderr)
	}
	recorded, err := recordedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	noise := newRandomWalk()
	for _, wl := range wls {
		var want map[string]string
		if *seed == defaultSeed {
			if want = recorded[wl.name]; len(want) != len(wl.worlds) {
				fmt.Fprintf(stderr, "perfbench: digests.json has %d digests for %s, want %d\n", len(want), wl.name, len(wl.worlds))
				return 1
			}
		}
		reg0, rnd0 := hostNoise(noise)
		steal0, total0, ok0 := cpuTicks()
		var res result
		if *traced == 1 {
			path := *spanPath
			if path == "" {
				path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", wl.name, *seed))
			}
			res, err = ledger(wl, want, *seconds, path, stderr)
		} else {
			res = measure(wl, want, *seconds, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		steal := stealShare(steal0, total0, ok0)
		reg1, rnd1 := hostNoise(noise)
		fmt.Fprintf(stderr, "perfbench: noise %s\n", mustJSON(map[string]any{
			"workload": wl.name, "seed": *seed, "steal_share": steal,
			"register_loop_ms": []float64{reg0, reg1},
			"random_4mb_ms":    []float64{rnd0, rnd1},
		}))
		printResult(wl.name, res, stdout)
	}
	return 0
}

// warm runs the workload's warm-up world, untimed.
func warm(wl *workload, p *passes) {
	p.attempted++
	if _, _, err := runWorld(world{"warm-up", wl.warm}, "", nil, -1); err != nil {
		p.failed = append(p.failed, err)
	}
}

// measure runs untraced passes for the given time and reports the
// end-to-end metrics.
func measure(wl *workload, want map[string]string, seconds int, stderr io.Writer) result {
	p := newPasses(len(wl.worlds))
	warm(wl, p)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		p.runPass(wl, want, nil)
	}
	t := p.totals()
	return finish(p, stderr, map[string]float64{
		"setup_s":      t.setup.Seconds(),
		"run_s":        t.run.Seconds(),
		"cpu_s":        t.cpu.Seconds(),
		"run_alloc_mb": float64(t.alloc) / 1e6,
		"peak_rss_mb":  p.peak() / 1e6,
	}, endToEnd)
}

// finish reports failures and packs the metrics with their units.
func finish(p *passes, stderr io.Writer, vals map[string]float64, specs []metricSpec) result {
	for i, err := range p.failed {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(p.failed)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: failed:", err)
	}
	res := result{
		Correct:   len(p.failed) == 0,
		Attempted: p.attempted,
		Failed:    len(p.failed),
		Metrics:   make(map[string]value, len(specs)),
	}
	for _, s := range specs {
		res.Metrics[s.name] = value{vals[s.name], s.unit}
	}
	return res
}

// ledger alternates untraced and traced passes for the given time, then
// runs the layer probes once, and reports the per-layer metrics. The
// spans of the last traced pass and of the probes go to spanPath.
func ledger(wl *workload, want map[string]string, seconds int, spanPath string, stderr io.Writer) (result, error) {
	plain, traced := newPasses(len(wl.worlds)), newPasses(len(wl.worlds))
	warm(wl, plain)
	tr := newTracer()
	var outs []*outcome
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		plain.runPass(wl, want, nil)
		tr.reset()
		outs = traced.runPass(wl, want, tr)
	}
	// Every world counts once in the result, traced or not.
	traced.attempted += plain.attempted
	traced.failed = append(traced.failed, plain.failed...)
	vals := make(map[string]float64)
	tp, up := traced.totals(), plain.totals()
	vals["trace.overhead_ms"] = ms(tp.run - up.run)

	var hits, misses uint64
	var hosts int
	var ckpt time.Duration
	var ckptBytes, worlds, depth int
	for i, o := range outs {
		if o == nil {
			continue
		}
		worlds++
		vals["sim.events"] += float64(o.summary.Events)
		vals["phy.transmissions"] += float64(o.summary.Transmissions)
		vals["phy.collisions"] += float64(o.summary.Collisions)
		vals["neighbor.hellos"] += float64(o.summary.HelloSent)
		hits += o.pool[0]
		misses += o.pool[1]
		ckpt += o.ckpt
		ckptBytes += o.ckptSize
		hosts += wl.worlds[i].cfg.WithDefaults().Hosts
		depth = max(depth, o.pending)
	}
	vals["sim.events_per_s"] = vals["sim.events"] / tp.run.Seconds()
	vals["sim.pool_hit_rate"] = float64(hits) / float64(max(hits+misses, 1))
	vals["snapshot.checkpoint_ms"] = ms(ckpt) / float64(max(worlds, 1))
	vals["snapshot.bytes_per_host"] = float64(ckptBytes) / float64(max(hosts, 1))

	traced.attempted++
	pw, err := runProbeWorld(wl.probeConfig(), want[wl.worlds[wl.probe].label])
	if err != nil {
		traced.failed = append(traced.failed, fmt.Errorf("probe world: %w", err))
		return finish(traced, stderr, vals, perLayer()), nil
	}
	shards := 0
	if wl.worlds[0].cfg.Engine == manet.EngineSharded {
		shards = wl.worlds[0].cfg.Shards
	}
	vals["manet.barriers"] = float64(pw.par.Barriers)
	vals["manet.border_share"] = pw.par.BorderShare()
	// Idle worker time at barriers as a share of the workers' time in
	// Run: it reads load imbalance apart from run length, where a wait
	// in ms would also fall with any change that shortens Run. Static
	// worlds never drain shard wheels, so it is 0 on cluster-static.
	vals["manet.wait_share"] = float64(pw.par.WaitNS) / float64(probeShards*pw.run.Nanoseconds())

	root := tr.begin(-1, "probes", wl.name)
	probe := func(layer string, fn func()) {
		s := tr.begin(root, layer, layer)
		fn()
		tr.end(s)
	}
	probe("sim", func() { vals["sim.step_ns"] = probeSched(depth, shards) })
	probe("geom", func() {
		vals["geom.rebuild_ms"], vals["geom.within_ns"], vals["geom.within_accept_ratio"] = probeGrid(pw.pts, pw.cfg.Radius)
	})
	probe("mobility", func() { vals["mobility.position_at_ns"] = probeMobility(pw) })
	probe("phy", func() { vals["phy.transmit_ns"], vals["phy.reach_ns"] = probePHY(pw) })
	probe("mac", func() { vals["mac.frame_ns"] = probeMAC(pw) })
	local, nbrs := localHosts(pw.pts, pw.cfg.Radius)
	var tables []*neighbor.Table
	probe("neighbor", func() {
		vals["neighbor.on_hello_ns"], vals["neighbor.on_hello_bytes"], tables = probeNeighbor(pw.cfg, nbrs)
	})
	probe("scheme", func() {
		for k, v := range probeScheme(pw.cfg, local, tables) {
			vals["scheme.judge_ns."+k] = v
		}
	})
	probe("metrics", func() { vals["metrics.fold_ns"] = probeFold(pw.records) })
	tr.end(root)

	self := selfTimes(tr.spans)
	for _, l := range spanLayers {
		vals["self_ms."+l] = ms(self[l])
	}
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spanPath)
	return finish(traced, stderr, vals, perLayer()), nil
}

// printResult prints every metric by name and unit, then the result as
// one JSON line, which is the last line of the output.
func printResult(name string, res result, w io.Writer) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: %d worlds attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintln(w, mustJSON(res))
}

// writeDigests prints the digests of every world of wls as JSON.
func writeDigests(wls []*workload, stdout, stderr io.Writer) int {
	out := make(map[string]map[string]string)
	for _, wl := range wls {
		out[wl.name] = make(map[string]string)
		for _, w := range wl.worlds {
			_, o, err := runWorld(w, "", nil, -1)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			out[wl.name][w.label] = digest(o.summary)
		}
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Fprintln(stdout, string(b))
	return 0
}

// mustJSON encodes v, which holds only plain numbers and strings.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
