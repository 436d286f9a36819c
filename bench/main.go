// Command bench is the repository's benchmark: the paper's Figure 5
// (instrument the suite with every tool), Figure 6 (run the instrumented
// suite) and a profiled run of the suite, timed end to end and, in a
// separate traced run, layer by layer. See README.md.
//
//	bash bench/run.sh --workload fig5|fig6|profile --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable summary goes
// to standard error.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"atom/internal/spec"
	"atom/internal/tools"
)

//go:embed expected.json
var expectedJSON []byte

// A run sets up setupsPerPass times before every pass. The speed of a
// shared machine varies from second to second, so set-up is timed across
// the whole run rather than at its start.
const setupsPerPass = 2

// config is one invocation's parameters.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	traceOut   string   // Chrome trace_event JSON of the traced run
	cpuprofile string   // CPU profile of a separate, untraced run
	tmp        string   // scratch directory
	progs      []string // programs to use; nil means the workload's own
	minOps     int      // fewest operations a timed run measures
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: fig5, fig6 or profile")
	fs.Int64Var(&c.seed, "seed", 1, "seed that draws the order of the workload's operations")
	fs.Float64Var(&c.seconds, "seconds", 6, "how long the timed phase repeats passes")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	fs.StringVar(&c.traceOut, "trace-out", "", "where the traced run writes its spans (default .bench_build/trace/<workload>-<seed>.json)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of an untraced run of the workload to this file")
	writeExp := fs.String("write-expected", "", "regenerate the expected-output file at this path (under plain dispatch) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	c.trace = *traceFlag == 1
	c.minOps = minOps
	c.tmp = filepath.Join(".bench_build", "tmp")
	if c.traceOut == "" {
		c.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", c.workload, c.seed))
	}
	res, r, err := execute(c)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	summarize(stderr, c, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one workload's set-ups and passes, timed, traced or
// CPU-profiled, and returns its report.
func execute(c config) (*result, *run, error) {
	w, ok := workloads[c.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want fig5, fig6 or profile)", c.workload)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	runtime.LockOSThread() // threadCPU times the calls this goroutine makes
	defer runtime.UnlockOSThread()
	if _, err := threadCPUErr(); err != nil {
		return nil, nil, fmt.Errorf("reading the thread CPU clock: %w", err)
	}
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return nil, nil, err
	}
	r := newRun(exp, c.tmp)
	r.seed, r.progs = c.seed, c.progs
	if r.progs == nil {
		for _, p := range spec.Suite() {
			r.progs = append(r.progs, p.Name)
		}
	}

	var tr *tracer
	if c.trace {
		tr = newTracer()
		tr.begin("workload", c.workload)
		r.trace = tr
	}
	var profile *os.File
	if c.cpuprofile != "" {
		if profile, err = os.Create(c.cpuprofile); err != nil {
			return nil, nil, err
		}
		defer profile.Close() // on error paths; the success path checks Close below
		if err := pprof.StartCPUProfile(profile); err != nil {
			return nil, nil, err
		}
		defer pprof.StopCPUProfile()
	}
	// A traced run alternates untraced and traced passes (each with its
	// set-ups); the tracing overhead is their difference.
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < c.seconds ||
		r.attempted < c.minOps || (c.trace && i%2 == 1); i++ {
		var ptr *tracer
		if c.trace && i%2 == 1 {
			ptr = tr
		}
		for j := 0; j < setupsPerPass; j++ {
			if err := r.doSetup(w, ptr); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", c.workload, err)
			}
		}
		if err := r.doPass(w, ptr); err != nil {
			return nil, nil, err
		}
		if ptr != nil {
			n := len(r.passWall)
			r.overheadMs = append(r.overheadMs, (r.passWall[n-1]-r.passWall[n-2])*1e3)
		}
	}
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return nil, nil, err
		}
	}
	if tr != nil {
		tr.end()
		if err := tr.write(c.traceOut); err != nil {
			return nil, nil, err
		}
	}

	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if c.trace {
		for _, m := range r.layerMetrics(tr) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		for _, m := range r.endToEnd() {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	return res, r, nil
}

type namedMetric struct {
	name, unit string
	value      float64
}

const mib = 1 << 20

// endToEnd returns the metrics a user of the system sees.
func (r *run) endToEnd() []namedMetric {
	return []namedMetric{
		{"setup_s", "s", median(r.setupS)},
		// Noise on a shared machine only ever adds time, so the pass-level
		// times are those of the fastest pass.
		{"wall_s", "s", quantile(r.passWall, 0)},
		{"cpu_s", "s", quantile(r.passCPU, 0)},
		{"alloc_mib", "MiB", median(r.passAlloc) / mib},
		{"op_ms_p50", "ms", quantile(r.opMs, 0.5)},
		{"op_ms_p90", "ms", quantile(r.opMs, 0.9)},
		{"image_build_ms", "ms", median(r.imageMs)},
		{"inst_text_kib", "KiB", float64(r.textBytes) / 1024},
		{"minst_s", "Minst/s", ratio(r.work, r.workSec) / 1e6},
		{"icount_ratio_geomean", "ratio", r.ratioGeo},
	}
}

// ratio returns a/b, or 0 when b is 0 (nothing was measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfSpans are the span names whose self times the traced run reports.
var selfSpans = []string{
	"setup", "spec.build", "pass", "op",
	"core.image.build", "core.lift", "core.apply",
	"build.store.put", "build.store.get",
	"vm.new", "vm.run", "prof.flush", "prof.write",
}

// layerMetrics returns the traced run's per-layer metrics. Quantities
// measured in set-up are per traced set-up; quantities measured in
// passes are per traced pass.
func (r *run) layerMetrics(tr *tracer) []namedMetric {
	n, ns := float64(max(r.tracedPass, 1)), float64(max(r.tracedSetup, 1))
	v := func(name string) float64 { return r.setupAcc[name]/ns + r.passAcc[name]/n }
	out := []namedMetric{
		{"spec.build_ms", "ms", v("spec.build_ms")},
		{"core.image.build_ms", "ms", v("core.image.build_ms")},
		{"core.image.builds", "count", v("core.image.builds")},
		{"core.image.hits", "count", v("core.image.hits")},
		{"core.lift.cold_ms", "ms", v("core.lift.cold_ms")},
		{"core.lift.warm_ms", "ms", v("core.lift.warm_ms")},
		{"build.ir.hit_ratio", "ratio", ratio(v("build.ir.hits"), v("build.ir.lookups"))},
		{"core.apply_ms", "ms", v("core.apply_ms")},
		{"core.apply.sites", "count", v("core.apply.sites")},
		{"core.apply.inlined_ratio", "ratio", ratio(v("core.apply.inlined"), v("core.apply.sites"))},
		{"core.apply.saved_regs_per_site", "ratio", ratio(v("core.apply.saved_regs"), v("core.apply.sites"))},
		{"core.apply.text_growth", "ratio", ratio(v("core.apply.instr_text"), v("core.apply.orig_text"))},
		{"build.store.put_ms", "ms", v("build.store.put_ms")},
		{"build.store.get_ms", "ms", v("build.store.get_ms")},
		{"build.store.puts", "count", v("build.store.puts")},
		{"build.store.disk_hits", "count", v("build.store.disk_hits")},
		{"build.store.kib_written", "KiB", v("build.store.kib_written")},
		{"vm.new_ms", "ms", v("vm.new_ms")},
		{"vm.new_ms_p50", "ms", median(r.vmNewMs)},
		{"vm.new.calls", "count", v("vm.new.calls")},
		{"vm.new.alloc_mib", "MiB", v("vm.new.alloc") / mib},
		{"vm.run_ms", "ms", v("vm.run_ms")},
		{"vm.icount", "count", v("vm.icount")},
		{"vm.loads", "count", v("vm.loads")},
		{"vm.stores", "count", v("vm.stores")},
	}
	for _, b := range append([]string{"base"}, tools.Names()...) {
		out = append(out, namedMetric{"vm.minst_s." + b, "Minst/s",
			ratio(v("vm.minst.icount."+b), v("vm.minst.sec."+b)) / 1e6})
	}
	out = append(out,
		namedMetric{"vm.sb.built", "count", v("vm.sb.built")},
		namedMetric{"vm.sb.hits", "count", v("vm.sb.hits")},
		namedMetric{"vm.sb.links", "count", v("vm.sb.links")},
		namedMetric{"vm.sb.invalidations", "count", v("vm.sb.invalidations")},
		namedMetric{"vm.sb.insts_per_hit", "ratio", ratio(v("vm.icount"), v("vm.sb.hits"))},
		namedMetric{"prof.run_ms", "ms", v("prof.run_ms")},
		namedMetric{"prof.samples", "count", v("prof.samples")},
		namedMetric{"prof.calls", "count", v("prof.calls")},
		namedMetric{"prof.returns", "count", v("prof.returns")},
		namedMetric{"prof.flush_ms", "ms", v("prof.flush_ms")},
		namedMetric{"prof.write_ms", "ms", v("prof.write_ms")},
		namedMetric{"prof.folded_kib", "KiB", v("prof.folded_kib")},
		namedMetric{"go.gc_cycles", "count", float64(r.gcCycles) / n},
		namedMetric{"go.gc_pause_ms", "ms", float64(r.gcPauseNs) / 1e6 / n},
		namedMetric{"go.heap_peak_mib", "MiB", r.heapPeak / mib},
		namedMetric{"peak_rss_mib", "MiB", peakRSSMiB()},
	)
	out = append(out, namedMetric{"check.nonpristine", "count", v("check.nonpristine")})
	self := tr.selfTimes()
	for _, name := range selfSpans {
		out = append(out, namedMetric{"self." + name + "_ms", "ms",
			ms(self["setup"][name])/ns + ms(self["pass"][name])/n})
	}
	var untraced []float64
	for i := 0; i < len(r.passWall); i += 2 {
		untraced = append(untraced, r.passWall[i]) // passes alternate untraced, traced
	}
	out = append(out,
		namedMetric{"trace.overhead_ms", "ms", median(r.overheadMs)},
		namedMetric{"trace.untraced_wall_ms", "ms", median(untraced) * 1e3},
		namedMetric{"trace.unaccounted_share", "ratio", ratio(ms(self["pass"]["op"]), ms(tr.opTime()))},
		namedMetric{"trace.spans", "count", float64(len(tr.sink.Spans()))},
	)
	return out
}

// summarize prints a human-readable report.
func summarize(w io.Writer, c config, r *run, res *result) {
	mode := "timed"
	if c.trace {
		mode = "traced"
	} else if c.cpuprofile != "" {
		mode = "cpu-profiled"
	}
	fmt.Fprintf(w, "bench: %s %s run, seed %d, %d programs\n", c.workload, mode, c.seed, len(r.progs))
	fmt.Fprintf(w, "bench: %d passes, %d operations, %d failed (fail_frac %.4f)\n",
		len(r.passWall), r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	fmt.Fprintf(w, "bench: wall time: setup %.4f s, op p50 %.4f ms, op p90 %.4f ms\n",
		median(r.setupWallS), quantile(r.opWallMs, 0.5), quantile(r.opWallMs, 0.9))
	for _, f := range r.failures {
		fmt.Fprintf(w, "bench: FAIL %s\n", f)
	}
	if n := r.nonPristine(); n > 0 {
		fmt.Fprintf(w, "bench: %d executables print output that differs from the uninstrumented run, as expected.json records (see README.md)\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if c.trace {
		fmt.Fprintf(w, "bench: spans written to %s\n", c.traceOut)
	}
	if c.cpuprofile != "" {
		fmt.Fprintf(w, "bench: CPU profile written to %s\n", c.cpuprofile)
	}
}

// nonPristine counts the executables of this run whose expected output
// differs from their program's uninstrumented output.
func (r *run) nonPristine() int {
	n := 0
	for _, it := range r.execs {
		if it.build != "base" && !r.exp.build(it.build, it.prog.Name).Pristine {
			n++
		}
	}
	return n
}
