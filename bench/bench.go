package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/prof"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// minOps is the fewest operations a timed run measures, so that the
// 90th percentile has at least ten samples beyond it.
const minOps = 100

// opKey names one operation's inputs: a suite program and a build,
// "base" (uninstrumented) or a tool name.
type opKey struct{ prog, build string }

// draw returns every (program, build) operation of a workload in the
// order the seed draws. The same seed always gives the same order.
func draw(seed int64, progs, builds []string) []opKey {
	ops := make([]opKey, 0, len(progs)*len(builds))
	for _, p := range progs {
		for _, b := range builds {
			ops = append(ops, opKey{p, b})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// Each workload's builds.
var (
	fig5Builds    = tools.Names()
	fig6Builds    = append([]string{"base"}, tools.Names()...)
	profileBuilds = []string{"base"}
)

// workload is one benchmark workload: set-up builds its inputs, and a
// pass is one timed repetition of its operations.
type workload struct {
	setup func(r *run) error
	pass  func(r *run) (passOut, error)
}

// passOut is what one pass produced that must repeat exactly: the text
// size of its executables and the logarithms of its instruction ratios.
type passOut struct {
	text uint64
	logs []float64
}

var workloads = map[string]workload{
	"fig5":    {setup: setupFig5, pass: passFig5},
	"fig6":    {setup: setupFig6, pass: passFig6},
	"profile": {setup: setupProfile, pass: passProfile},
}

// execItem is one executable the fig6 pass runs.
type execItem struct {
	prog    spec.Program
	build   string // "base" or the tool name
	exe     *aout.File
	heapOff uint64
}

// run is one benchmark invocation.
type run struct {
	exp   *expected
	tmp   string   // scratch directory for the fig5 disk store
	seed  int64    // draws the order of the operations
	progs []string // the programs the workload uses
	tr    *tracer  // non-nil only during traced set-up and passes
	trace *tracer  // the traced run's tracer; nil when untraced

	exes  map[string]*aout.File // built suite programs
	execs []execItem            // fig6: instrumented executables

	// End-to-end accumulators.
	setupS     []float64
	passWall   []float64 // seconds per pass
	passCPU    []float64
	passAlloc  []float64 // bytes per pass
	opMs       []float64 // CPU time per operation
	opWallMs   []float64
	setupWallS []float64
	imageMs    []float64 // cold image builds
	attempted  int
	failed     int
	failures   []string // first few failure messages
	textBytes  uint64   // per pass; deterministic
	ratioGeo   float64  // per pass; deterministic
	work       float64  // instructions processed (minst_s numerator)
	workSec    float64  // seconds spent processing them

	// Per-layer accumulators, filled only while traced: acc is the
	// set-up map during set-up and the pass map during passes.
	acc         map[string]float64
	setupAcc    map[string]float64
	passAcc     map[string]float64
	vmNewMs     []float64
	tracedPass  int
	tracedSetup int
	overheadMs  []float64 // traced minus untraced pass wall time
	heapPeak    float64
	gcPauseNs   uint64
	gcCycles    uint64
}

func newRun(exp *expected, tmp string) *run {
	return &run{
		exp:      exp,
		tmp:      tmp,
		exes:     map[string]*aout.File{},
		setupAcc: map[string]float64{},
		passAcc:  map[string]float64{},
	}
}

// add accumulates a per-layer quantity; it is a no-op when untraced.
func (r *run) add(name string, v float64) {
	if r.tr != nil {
		r.acc[name] += v
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fail records a failed check.
func (r *run) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// op times one operation and then, outside its timer, checks the result.
// It returns the operation's CPU time and whether it succeeded.
func (r *run) op(label string, do func() error, check func() error) (time.Duration, bool) {
	r.tr.begin("op", label)
	t0, c0 := time.Now(), threadCPU()
	err := do()
	d, wall := threadCPU()-c0, time.Since(t0)
	r.tr.end()
	r.opMs = append(r.opMs, ms(d))
	r.opWallMs = append(r.opWallMs, ms(wall))
	r.attempted++
	if err == nil {
		err = check()
	}
	if err != nil {
		r.fail(label, err)
		return d, false
	}
	if r.tr != nil {
		r.heapPeak = math.Max(r.heapPeak, float64(readMetric("/memory/classes/heap/objects:bytes")))
	}
	return d, true
}

// buildSuite builds the workload's programs from a cold object cache:
// the compile and link spec.Build memoizes, performed afresh so that
// every set-up repetition pays it. It returns each build's CPU time.
func (r *run) buildSuite() ([]float64, error) {
	rtl.ResetObjectCache(build.ScopeMemory)
	var times []float64
	for _, name := range r.progs {
		p, _ := spec.ByName(name)
		r.tr.begin("spec.build", name)
		t0, c0 := time.Now(), threadCPU()
		exe, err := rtl.BuildProgram(p.Name+".c", p.Src)
		d, cpu := time.Since(t0), threadCPU()-c0
		r.tr.end()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		r.add("spec.build_ms", ms(d))
		times = append(times, ms(cpu))
		r.exes[name] = exe
	}
	return times, nil
}

// buildImages builds every tool's analysis image from a cold image
// cache, appending each build's CPU time to r.imageMs.
func (r *run) buildImages() (map[string]*core.ToolImage, error) {
	core.ResetImageCache(build.ScopeMemory)
	images := map[string]*core.ToolImage{}
	for _, tn := range tools.Names() {
		tool, _ := tools.ByName(tn)
		var s0 build.Stats
		if r.tr != nil {
			s0 = core.ImageCacheStats()
		}
		r.tr.begin("core.image.build", tn)
		t0, c0 := time.Now(), threadCPU()
		ti, err := core.BuildToolImage(tool, core.Options{})
		d, cpu := time.Since(t0), threadCPU()-c0
		r.tr.end()
		if err != nil {
			return nil, fmt.Errorf("building the %s image: %w", tn, err)
		}
		r.imageMs = append(r.imageMs, ms(cpu))
		if r.tr != nil {
			s1 := core.ImageCacheStats()
			r.add("core.image.build_ms", ms(d))
			r.add("core.image.builds", float64(s1.Builds-s0.Builds))
			r.add("core.image.hits", float64(s1.Hits-s0.Hits))
		}
		images[tn] = ti
	}
	return images, nil
}

// instrument lifts exe and applies ti to it, under core.lift and
// core.apply spans.
func (r *run) instrument(exe *aout.File, ti *core.ToolImage) (*core.Result, error) {
	var ir0, im0 build.Stats
	if r.tr != nil {
		ir0, im0 = build.IRCacheStats(), core.ImageCacheStats()
	}
	r.tr.begin("core.lift", "")
	t0 := time.Now()
	prog, err := core.Lift(exe)
	lift := time.Since(t0)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("core.apply", "")
	t0 = time.Now()
	res, err := core.ApplyProgram(prog, ti, core.Options{})
	apply := time.Since(t0)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		ir1, im1 := build.IRCacheStats(), core.ImageCacheStats()
		if ir1.Misses > ir0.Misses {
			r.add("core.lift.cold_ms", ms(lift))
		} else {
			r.add("core.lift.warm_ms", ms(lift))
		}
		r.add("build.ir.hits", float64(ir1.Hits-ir0.Hits))
		r.add("build.ir.lookups", float64(ir1.Hits+ir1.DiskHits+ir1.Misses-ir0.Hits-ir0.DiskHits-ir0.Misses))
		r.add("core.apply_ms", ms(apply))
		r.add("core.image.builds", float64(im1.Builds-im0.Builds))
		r.add("core.image.hits", float64(im1.Hits-im0.Hits))
		st := res.Stats
		r.add("core.apply.sites", float64(st.Calls))
		r.add("core.apply.inlined", float64(st.InlinedSites))
		r.add("core.apply.saved_regs", float64(st.SavedRegs))
		r.add("core.apply.orig_text", float64(st.OrigText))
		r.add("core.apply.instr_text", float64(st.InstrText))
	}
	return res, nil
}

// checkLayout checks the address layout of an instrumented executable
// against the application it was made from, without pinning its bytes:
// text and data stay where they were, every original instruction maps
// into the new text in its original order, and the entry point is the
// original entry's new address. What the executable does is checked
// when fig6 runs it.
func checkLayout(app *aout.File, res *core.Result) error {
	exe := res.Exe
	if exe.TextAddr != app.TextAddr || exe.DataAddr != app.DataAddr || exe.BssAddr != app.BssAddr {
		return fmt.Errorf("sections moved: text %#x data %#x bss %#x, application %#x %#x %#x",
			exe.TextAddr, exe.DataAddr, exe.BssAddr, app.TextAddr, app.DataAddr, app.BssAddr)
	}
	if res.Stats.OrigText != uint64(len(app.Text)) {
		return fmt.Errorf("original text is %d bytes, application has %d", res.Stats.OrigText, len(app.Text))
	}
	if entry, ok := res.PCMap.NewAddr(app.Entry); !ok || entry != exe.Entry {
		return fmt.Errorf("entry %#x, original entry maps to %#x", exe.Entry, entry)
	}
	end := exe.TextAddr + uint64(len(exe.Text))
	next := exe.TextAddr // lowest address the next instruction may map to
	for pc := app.TextAddr; pc < app.TextAddr+uint64(len(app.Text)); pc += 4 {
		n, ok := res.PCMap.NewAddr(pc)
		if !ok || n < next || n >= end {
			return fmt.Errorf("instruction %#x maps to %#x (mapped %v), want an address in [%#x, %#x)", pc, n, ok, next, end)
		}
		next = n + 4
	}
	return nil
}

// vmRun loads and runs one executable under vm.new and vm.run spans,
// returning the machine and the CPU seconds spent in vm.New plus Run.
func (r *run) vmRun(exe *aout.File, cfg vm.Config, buildName string) (*vm.Machine, float64, error) {
	var a0 uint64
	var t0s vm.TotalStats
	if r.tr != nil {
		a0 = readMetric("/gc/heap/allocs:bytes")
	}
	c0 := threadCPU()
	r.tr.begin("vm.new", "")
	t0 := time.Now()
	m, err := vm.New(exe, cfg)
	dNew := time.Since(t0)
	r.tr.end()
	if err != nil {
		return nil, 0, err
	}
	if r.tr != nil {
		r.add("vm.new.alloc", float64(readMetric("/gc/heap/allocs:bytes")-a0))
		t0s = vm.Totals()
	}
	r.tr.begin("vm.run", "")
	t0 = time.Now()
	_, err = m.Run()
	dRun := time.Since(t0)
	r.tr.end()
	cpu := threadCPU() - c0
	if r.tr != nil {
		t1 := vm.Totals()
		r.vmNewMs = append(r.vmNewMs, ms(dNew))
		r.add("vm.new_ms", ms(dNew))
		r.add("vm.new.calls", 1)
		r.add("vm.run_ms", ms(dRun))
		if cfg.Probe != nil {
			r.add("prof.run_ms", ms(dRun))
		}
		r.add("vm.icount", float64(t1.Icount-t0s.Icount))
		r.add("vm.loads", float64(t1.Loads-t0s.Loads))
		r.add("vm.stores", float64(t1.Stores-t0s.Stores))
		r.add("vm.sb.built", float64(t1.SBBuilt-t0s.SBBuilt))
		r.add("vm.sb.hits", float64(t1.SBHits-t0s.SBHits))
		r.add("vm.sb.links", float64(t1.SBLinks-t0s.SBLinks))
		r.add("vm.sb.invalidations", float64(t1.SBInval-t0s.SBInval))
		r.add("vm.minst.icount."+buildName, float64(t1.Icount-t0s.Icount))
		r.add("vm.minst.sec."+buildName, (dNew + dRun).Seconds())
	}
	return m, cpu.Seconds(), err
}

// checkRun compares a finished machine with the expected run.
func checkRun(m *vm.Machine, exit int, stdoutSHA string) error {
	halted, code := m.Exited()
	switch {
	case !halted || code != exit:
		return fmt.Errorf("exit %d (halted %v), expected %d", code, halted, exit)
	case digest(m.Stdout) != stdoutSHA:
		return fmt.Errorf("stdout %q differs from the expected output", m.Stdout)
	}
	return nil
}

// checkBaseRun compares a finished run of an uninstrumented suite program
// with the expected one, instruction count included.
func checkBaseRun(m *vm.Machine, want progExpect) error {
	if err := checkRun(m, want.Exit, digest([]byte(want.Stdout))); err != nil {
		return err
	}
	if m.Icount != want.Icount {
		return fmt.Errorf("retired %d instructions, expected %d", m.Icount, want.Icount)
	}
	return nil
}

// ---- fig5: instrument the suite with every tool ----

func setupFig5(r *run) error {
	_, err := r.buildSuite()
	return err
}

func passFig5(r *run) (passOut, error) {
	core.ResetImageCache(build.ScopeMemory)
	rtl.ResetObjectCache(build.ScopeMemory)
	build.ResetIRCache(build.ScopeMemory)
	var out passOut
	images, err := r.buildImages()
	if err != nil {
		return out, err
	}
	for _, k := range draw(r.seed, r.progs, fig5Builds) {
		app := r.exes[k.prog]
		var res *core.Result
		d, ok := r.op(k.build+"/"+k.prog,
			func() (err error) { res, err = r.instrument(app, images[k.build]); return err },
			func() error { return checkLayout(app, res) })
		if !ok {
			continue
		}
		st := res.Stats
		out.text += uint64(len(res.Exe.Text))
		out.logs = append(out.logs, math.Log(float64(st.InstrText)/float64(st.OrigText)))
		// fig5 runs no VM, so minst_s is a placeholder here: instructions
		// rewritten per second of operation time (see README.md).
		r.work += float64(st.OrigText / 4)
		r.workSec += d.Seconds()
	}
	return out, r.storeSweep()
}

// storeSweep lifts the suite through a fresh on-disk store: the first
// sweep builds every IR blob and writes it (Put, fsync, rename), the
// second, with the memory layer dropped, reads every blob back (verified
// Get) and decodes it.
func (r *run) storeSweep() error {
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := build.OpenDiskStore(nil, dir, 0)
	if err != nil {
		return err
	}
	prev := build.SwapStore(ds)
	defer func() {
		build.SwapStore(prev)
		ds.Close() // its error is moot: the directory is removed next
	}()
	for _, phase := range []string{"build.store.put", "build.store.get"} {
		build.ResetIRCache(build.ScopeMemory)
		st0, ir0 := ds.Stats(), build.IRCacheStats()
		var total time.Duration
		for _, pn := range r.progs {
			r.tr.begin(phase, pn)
			t0 := time.Now()
			_, err := core.Lift(r.exes[pn])
			total += time.Since(t0)
			r.tr.end()
			if err != nil {
				return fmt.Errorf("%s %s: %w", phase, pn, err)
			}
		}
		st1, ir1 := ds.Stats(), build.IRCacheStats()
		if phase == "build.store.put" {
			if int(st1.Puts-st0.Puts) != len(r.progs) {
				return fmt.Errorf("store sweep wrote %d blobs for %d programs", st1.Puts-st0.Puts, len(r.progs))
			}
			r.add("build.store.put_ms", ms(total))
			r.add("build.store.puts", float64(st1.Puts-st0.Puts))
			r.add("build.store.kib_written", float64(st1.Bytes-st0.Bytes)/1024)
		} else {
			if int(ir1.DiskHits-ir0.DiskHits) != len(r.progs) {
				return fmt.Errorf("store sweep read %d blobs back for %d programs", ir1.DiskHits-ir0.DiskHits, len(r.progs))
			}
			r.add("build.store.get_ms", ms(total))
			r.add("build.store.disk_hits", float64(ir1.DiskHits-ir0.DiskHits))
		}
	}
	return nil
}

// ---- fig6: run the drawn programs uninstrumented and under every tool ----

func setupFig6(r *run) error {
	if _, err := r.buildSuite(); err != nil {
		return err
	}
	build.ResetIRCache(build.ScopeMemory)
	images, err := r.buildImages()
	if err != nil {
		return err
	}
	r.execs = r.execs[:0]
	for _, k := range draw(r.seed, r.progs, fig6Builds) {
		p, _ := spec.ByName(k.prog)
		if k.build == "base" {
			r.execs = append(r.execs, execItem{prog: p, build: "base", exe: r.exes[k.prog]})
			continue
		}
		res, err := r.instrument(r.exes[k.prog], images[k.build])
		if err == nil {
			err = checkLayout(r.exes[k.prog], res)
		}
		if err != nil {
			return fmt.Errorf("instrumenting %s with %s: %w", k.prog, k.build, err)
		}
		r.execs = append(r.execs, execItem{prog: p, build: k.build, exe: res.Exe, heapOff: res.HeapOffset})
	}
	return nil
}

func passFig6(r *run) (passOut, error) {
	var out passOut
	for _, it := range r.execs {
		it := it
		var m *vm.Machine
		var sec float64
		_, ok := r.op(it.build+"/"+it.prog.Name,
			func() (err error) {
				m, sec, err = r.vmRun(it.exe, vm.Config{
					Stdin: it.prog.Stdin, FS: it.prog.FS,
					AnalysisHeapOffset: it.heapOff, MaxInstr: maxInstr,
				}, it.build)
				return err
			},
			func() error {
				if it.build == "base" {
					return checkBaseRun(m, r.exp.prog(it.prog.Name))
				}
				be := r.exp.build(it.build, it.prog.Name)
				if err := checkRun(m, be.Exit, be.StdoutSHA256); err != nil {
					return err
				}
				if got := reportsDigest(m.FSOut); got != be.ReportsSHA256 {
					return fmt.Errorf("tool reports digest %s, expected %s", got, be.ReportsSHA256)
				}
				return nil
			})
		if !ok {
			continue
		}
		out.text += uint64(len(it.exe.Text))
		r.work += float64(m.Icount)
		r.workSec += sec
		if it.build != "base" {
			if !r.exp.build(it.build, it.prog.Name).Pristine {
				r.add("check.nonpristine", 1)
			}
			base := r.exp.prog(it.prog.Name).Icount // what the base run is checked against
			out.logs = append(out.logs, math.Log(float64(m.Icount)/float64(base)))
		}
	}
	return out, nil
}

// ---- profile: every suite program under the sampling profiler ----

func setupProfile(r *run) error {
	times, err := r.buildSuite()
	// The profiler builds no tool image. image_build_ms is a placeholder
	// here: the per-program share of setup_s (see README.md).
	r.imageMs = append(r.imageMs, times...)
	return err
}

// countingProbe counts the call and return events it forwards to the
// profiler (traced run only).
type countingProbe struct {
	p              *prof.Profiler
	calls, returns uint64
}

func (c *countingProbe) Sample(pc uint64)         { c.p.Sample(pc) }
func (c *countingProbe) Call(pc, target uint64)   { c.calls++; c.p.Call(pc, target) }
func (c *countingProbe) Return(pc, target uint64) { c.returns++; c.p.Return(pc, target) }

func passProfile(r *run) (passOut, error) {
	var out passOut
	for _, k := range draw(r.seed, r.progs, profileBuilds) {
		pn := k.prog
		p, _ := spec.ByName(pn)
		exe := r.exes[pn]
		want := r.exp.prog(pn)
		var m *vm.Machine
		var sec float64
		var folded []byte
		_, ok := r.op(pn,
			func() error {
				pr := prof.New(prof.Options{Period: profilePeriod, Procs: prof.ProcsFromSymbols(exe.Symbols)})
				cfg := vm.Config{Stdin: p.Stdin, FS: p.FS, MaxInstr: maxInstr}
				pr.Attach(&cfg)
				var cp *countingProbe
				if r.tr != nil {
					cp = &countingProbe{p: pr}
					cfg.Probe = cp
				}
				var err error
				var s0 uint64
				if m, sec, err = r.vmRun(exe, cfg, "base"); err != nil {
					return err
				}
				if r.tr != nil {
					s0 = prof.TotalSamplesAll()
				}
				r.tr.begin("prof.flush", "")
				t0 := time.Now()
				pr.Flush()
				dFlush := time.Since(t0)
				r.tr.end()
				var buf bytes.Buffer
				r.tr.begin("prof.write", "")
				t0 = time.Now()
				err = pr.WriteFolded(&buf)
				dWrite := time.Since(t0)
				r.tr.end()
				folded = buf.Bytes()
				if r.tr != nil {
					r.add("prof.samples", float64(prof.TotalSamplesAll()-s0))
					r.add("prof.calls", float64(cp.calls))
					r.add("prof.returns", float64(cp.returns))
					r.add("prof.flush_ms", ms(dFlush))
					r.add("prof.write_ms", ms(dWrite))
					r.add("prof.folded_kib", float64(len(folded))/1024)
				}
				return err
			},
			func() error {
				if err := checkBaseRun(m, want); err != nil {
					return err
				}
				if got := digest(folded); got != want.FoldedSHA256 {
					return fmt.Errorf("folded profile digest %s, expected %s", got, want.FoldedSHA256)
				}
				return nil
			})
		if !ok {
			continue
		}
		out.text += uint64(len(exe.Text))
		r.work += float64(m.Icount)
		r.workSec += sec
	}
	// out.logs stays empty: a profiled run is checked to retire exactly
	// the unprofiled instruction count, so its ratio is 1 by construction.
	return out, nil
}

// ---- measurement ----

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// threadCPU returns the CPU time the calling OS thread has used, to the
// nanosecond. The client goroutine is locked to its thread and no layer
// call starts a goroutine, so the difference across a call is the call's
// CPU time: its wall time on an idle machine, without the time a shared
// host steals from this one. execute checks once that the clock works.
func threadCPU() time.Duration {
	d, _ := threadCPUErr()
	return d
}

func threadCPUErr() (time.Duration, error) {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// doSetup runs the workload's set-up once, timed, traced by tr when it
// is non-nil.
func (r *run) doSetup(w workload, tr *tracer) error {
	r.tr, r.acc = tr, r.setupAcc
	runtime.GC() // every repetition starts from the same heap state
	r.tr.begin("setup", "")
	t0, c0 := time.Now(), threadCPU()
	err := w.setup(r)
	r.setupS = append(r.setupS, (threadCPU() - c0).Seconds())
	r.setupWallS = append(r.setupWallS, time.Since(t0).Seconds())
	r.tr.end()
	if tr != nil {
		r.tracedSetup++
	}
	return err
}

// doPass runs one pass, traced by tr when it is non-nil, recording its
// wall time, CPU time and allocation, and checks that the deterministic
// per-pass quantities repeat exactly.
func (r *run) doPass(w workload, tr *tracer) error {
	r.tr, r.acc = tr, r.passAcc
	runtime.GC() // every pass starts from the same heap state
	var ms0 runtime.MemStats
	var gc0 uint64
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
		gc0 = readMetric("/gc/cycles/total:gc-cycles")
	}
	r.tr.begin("pass", "")
	a0, c0, t0 := readMetric("/gc/heap/allocs:bytes"), cpuSeconds(), time.Now()
	out, err := w.pass(r)
	wall, cpu, alloc := time.Since(t0).Seconds(), cpuSeconds()-c0, readMetric("/gc/heap/allocs:bytes")-a0
	r.tr.end()
	if err != nil {
		return err
	}
	r.passWall = append(r.passWall, wall)
	r.passCPU = append(r.passCPU, cpu)
	r.passAlloc = append(r.passAlloc, float64(alloc))
	if r.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		r.gcCycles += readMetric("/gc/cycles/total:gc-cycles") - gc0
		r.tracedPass++
	}
	geo := geomean(out.logs)
	if len(r.passWall) == 1 {
		r.textBytes, r.ratioGeo = out.text, geo
	} else if out.text != r.textBytes || geo != r.ratioGeo {
		r.fail("pass", fmt.Errorf("deterministic quantities changed between passes: text %d vs %d bytes, ratio %v vs %v",
			out.text, r.textBytes, geo, r.ratioGeo))
	}
	return nil
}

// geomean returns the geometric mean of the ratios whose logarithms are
// given, summed in sorted order so that the operation order cannot
// change the result. The mean of no ratios is 1, the empty product.
func geomean(logs []float64) float64 {
	if len(logs) == 0 {
		return 1
	}
	sorted := append([]float64(nil), logs...)
	sort.Float64s(sorted)
	s := 0.0
	for _, l := range sorted {
		s += l
	}
	return math.Exp(s / float64(len(logs)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
