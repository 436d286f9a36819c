package atom_test

// Differential tests for the VM dispatch ladder: every mode — plain
// decode-each, predecode, and the trace-linked superblock cache — must
// retire bit-identical architectural state, for every tool's
// instrumented output and for the deterministic profiler's reports.

import (
	"bytes"
	"reflect"
	"testing"

	"atom"
	"atom/internal/obs"
	"atom/internal/prof"
	"atom/internal/spec"
	"atom/internal/vm"
)

// vmModeWorkload is a small but branchy program: nested loops, calls,
// loads/stores through a global array, and conditional paths, so every
// superblock shape (guard exits, fall-through links, call terminators)
// is exercised under instrumentation.
const vmModeWorkload = `
#include <stdio.h>

long acc[32];

long mix(long x, long y) {
	if (x & 1) return x * 3 + y;
	return x - y;
}

int main() {
	long i;
	long j;
	long s = 0;
	for (i = 0; i < 64; i++) {
		for (j = 0; j < 8; j++) {
			acc[(i + j) & 31] += mix(i, j);
		}
		if (acc[i & 31] > 100) s += 1;
		else s -= 1;
	}
	for (i = 0; i < 32; i++) s += acc[i];
	printf("s=%d\n", s);
	return 0;
}
`

var vmModes = []struct {
	name string
	mode atom.VMMode
}{
	{"plain", atom.VMPlain},
	{"predecode", atom.VMPredecode},
	{"superblock", atom.VMSuperblock},
}

// TestVMModeDifferentialAllTools instruments the workload with every
// built-in tool and runs each output under all three dispatch modes:
// exit code, stdout, every report file, and every machine counter must
// match the plain decode-each loop exactly.
func TestVMModeDifferentialAllTools(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{"app.c": vmModeWorkload})
	if err != nil {
		t.Fatal(err)
	}

	run := func(exe *atom.Executable, heapOff uint64, mode atom.VMMode) *atom.RunResult {
		t.Helper()
		out, err := atom.RunProgram(exe, atom.RunConfig{
			AnalysisHeapOffset: heapOff,
		}, atom.WithVMMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	check := func(t *testing.T, exe *atom.Executable, heapOff uint64) {
		t.Helper()
		want := run(exe, heapOff, atom.VMPlain)
		for _, m := range vmModes[1:] {
			got := run(exe, heapOff, m.mode)
			if got.ExitCode != want.ExitCode {
				t.Errorf("%s: exit code %d, plain %d", m.name, got.ExitCode, want.ExitCode)
			}
			if !bytes.Equal(got.Stdout, want.Stdout) {
				t.Errorf("%s: stdout diverges:\n%s\n-- plain --\n%s", m.name, got.Stdout, want.Stdout)
			}
			if !reflect.DeepEqual(got.Files, want.Files) {
				t.Errorf("%s: report files diverge", m.name)
			}
			if got.Icount != want.Icount || got.Loads != want.Loads ||
				got.Stores != want.Stores || got.Unaligned != want.Unaligned ||
				got.Syscalls != want.Syscalls {
				t.Errorf("%s: counters {icount %d loads %d stores %d unaligned %d syscalls %d}, plain {%d %d %d %d %d}",
					m.name, got.Icount, got.Loads, got.Stores, got.Unaligned, got.Syscalls,
					want.Icount, want.Loads, want.Stores, want.Unaligned, want.Syscalls)
			}
		}
	}

	t.Run("uninstrumented", func(t *testing.T) { check(t, app, 0) })
	for _, tool := range atom.Tools() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			res, err := atom.Instrument(app, tool, atom.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.Exe, res.HeapOffset)
		})
	}
}

// TestVMModeDenseToolsKeepBlocks runs the dense tools on a suite program
// in superblock mode. Their analysis routines keep counters and cache
// tags in the text segment, so the runs store into text; none of those
// stores hits harvested code, so no block may be dropped and blocks keep
// running. This shows that TestVMModeDifferentialAllTools exercises the
// coverage-gated store path, not the invalidation path.
func TestVMModeDenseToolsKeepBlocks(t *testing.T) {
	const prog = "queens"
	app, err := spec.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.ByName(prog)
	for _, name := range []string{"cache", "pipe", "branch", "dyninst"} {
		t.Run(name, func(t *testing.T) {
			tool, err := atom.ToolByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := atom.Instrument(app, tool, atom.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistrySink()
			ctx := obs.New(reg)
			m, err := vm.New(res.Exe, vm.Config{
				Stdin:              p.Stdin,
				FS:                 p.FS,
				AnalysisHeapOffset: res.HeapOffset,
				Mode:               vm.ModeSuperblock,
				Obs:                ctx,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			c := map[string]int64{}
			for _, kv := range reg.Counters() {
				c[kv.Name] = kv.Value
			}
			if c["vm.text_stores"] == 0 || c["vm.sb.invalidations"] != 0 || c["vm.sb.hits"] == 0 {
				t.Errorf("vm.text_stores %d, vm.sb.invalidations %d, vm.sb.hits %d; want >0, 0, >0",
					c["vm.text_stores"], c["vm.sb.invalidations"], c["vm.sb.hits"])
			}
		})
	}
}

// TestVMModeProfilerFoldedIdentical attaches the deterministic sampling
// profiler and compares its folded report byte-for-byte across the
// dispatch ladder. A probe forces per-instruction dispatch, so the
// superblock engine must step aside without perturbing the retirement
// sequence the sampler observes.
func TestVMModeProfilerFoldedIdentical(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{"app.c": vmModeWorkload})
	if err != nil {
		t.Fatal(err)
	}

	folded := func(mode vm.Mode) []byte {
		t.Helper()
		cfg := vm.Config{FS: map[string][]byte{}, Mode: mode}
		p := prof.New(prof.Options{
			Period: 97, // prime, so samples land mid-block at varied offsets
			Procs:  prof.ProcsFromSymbols(app.Symbols),
		})
		p.Attach(&cfg)
		m, err := vm.New(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		p.Flush()
		var buf bytes.Buffer
		if err := p.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := folded(vm.ModePlain)
	if len(want) == 0 {
		t.Fatal("plain-mode profile is empty; workload too small for the sampling period")
	}
	for _, m := range vmModes[1:] {
		if got := folded(vm.Mode(m.mode)); !bytes.Equal(got, want) {
			t.Errorf("%s: folded profile diverges from plain:\n%s\n-- plain --\n%s", m.name, got, want)
		}
	}
}
