package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/spec"
	"atom/internal/telemetry"
	"atom/internal/tools"
)

// captureFD swaps one of the process's standard streams for a pipe
// around fn and returns what fn wrote to it.
func captureFD(t *testing.T, std **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := *std
	*std = w
	defer func() { *std = orig }()
	fn()
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWriteTraceDash: -trace - streams the trace JSON to stdout instead
// of creating a file literally named "-" (the pre-v5 behavior).
func TestWriteTraceDash(t *testing.T) {
	sink := &obs.TraceSink{}
	ctx := obs.New(sink)
	_, sp := ctx.Start("atom.apply")
	sp.End()

	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	out := captureFD(t, &os.Stdout, func() {
		if err := writeTrace(sink, "-"); err != nil {
			t.Errorf("writeTrace(-): %v", err)
		}
	})
	if !strings.Contains(out, "traceEvents") || !strings.Contains(out, "atom.apply") {
		t.Fatalf("stdout trace = %q, want trace JSON", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Fatal("a literal file named \"-\" was created")
	}

	// A real path still writes a file.
	path := filepath.Join(dir, "t.json")
	if err := writeTrace(sink, path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "traceEvents") {
		t.Fatalf("file trace = %q, %v", data, err)
	}
}

// TestWriteMetricsDash: -metrics - prints the snapshot to stderr and
// creates no "-" file; a real path writes a file.
func TestWriteMetricsDash(t *testing.T) {
	reg := obs.NewRegistrySink()
	ctx := obs.New(reg)
	ctx.Count("store.image.hit", 4)

	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	out := captureFD(t, &os.Stderr, func() {
		if err := writeMetricsSnapshot(reg, "-"); err != nil {
			t.Errorf("writeMetricsSnapshot(-): %v", err)
		}
	})
	if !strings.Contains(out, "store.image.hit") {
		t.Fatalf("stderr metrics = %q, want counter snapshot", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Fatal("a literal file named \"-\" was created")
	}

	path := filepath.Join(dir, "m.txt")
	if err := writeMetricsSnapshot(reg, path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "store.image.hit") {
		t.Fatalf("file metrics = %q, %v", data, err)
	}
}

// runCLI runs the atom command in-process with the given arguments and
// returns the exit status and what it wrote to stdout.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	origFlags, origArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = origFlags, origArgs }()
	flag.CommandLine = flag.NewFlagSet("atom", flag.ContinueOnError)
	os.Args = append([]string{"atom"}, args...)
	var code int
	out := captureFD(t, &os.Stdout, func() { code = run() })
	return code, out
}

// TestTableObservability: -table runs under the same observability
// setup as instrument mode, so -metrics, -trace and -cpuprofile all
// produce their files.
func TestTableObservability(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.txt")
	trace := filepath.Join(dir, "t.json")
	cpu := filepath.Join(dir, "c.prof")
	if code, _ := runCLI(t, "-table", "fig5", "-progs", "queens",
		"-metrics", metrics, "-trace", trace, "-cpuprofile", cpu); code != 0 {
		t.Fatalf("atom -table fig5 exited %d", code)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^atom\.apply +[1-9][0-9]* `).Match(data) {
		t.Errorf("metrics snapshot has no atom.apply span row:\n%s", data)
	}
	if err := checkTrace(trace); err != nil {
		t.Error(err)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
}

// TestTableFlags: -table measures under the pipeline flags, and -t
// limits it to one tool, so an ablation is a one-row table.
func TestTableFlags(t *testing.T) {
	for _, c := range []struct {
		flags []string
		ratio string
	}{
		{nil, "3.28x"},
		{[]string{"-noinline"}, "4.95x"},
	} {
		args := append([]string{"-table", "fig6", "-progs", "queens", "-t", "gprof"}, c.flags...)
		code, out := runCLI(t, args...)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		// Two header lines, then the row: tool, points, args, ratio, min, max, paper.
		if code != 0 || len(lines) != 3 || !strings.HasPrefix(lines[2], "gprof ") ||
			strings.Fields(lines[2])[len(strings.Fields(lines[2]))-4] != c.ratio {
			t.Errorf("atom %v exited %d, printed\n%s\nwant one gprof row at %s", args, code, out, c.ratio)
		}
	}
	if code, out := runCLI(t, "-table", "fig6", "-progs", "queens", "-t", "io", "-stats"); code != 0 || !strings.Contains(out, "image cache:") {
		t.Errorf("-table -stats exited %d without cache statistics:\n%s", code, out)
	}
}

// TestUnusableFlagsRejected: a flag that cannot take effect in the
// selected mode exits 2 instead of being ignored.
func TestUnusableFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	app, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	x := filepath.Join(dir, "q.x")
	if err := app.WriteFile(x); err != nil {
		t.Fatal(err)
	}
	o := filepath.Join(dir, "q.atom")
	table := func(flags ...string) []string {
		return append([]string{"-table", "fig6", "-progs", "queens", "-t", "io"}, flags...)
	}
	for _, args := range [][]string{
		{"-t", "branch", "-analyze-json", filepath.Join(dir, "a.json"), "-o", o, x},
		{"-t", "branch", "-passes", "uninit", "-o", o, x},
		{"-t", "branch", "-analyze-as", "tool", "-o", o, x},
		{"-t", "branch", "-vm-mode", "bogus", "-o", o, x},
		{"-t", "branch", "-vm-mode", "plain", "-o", o, x},
		{"-run", "-layout", x},
		{"-t", "branch", "-profile-period", "500", "-run", x},
		{"-t", "branch", "-profile-format", "folded", "-run", x},
		{"-t", "branch", "-progs", "queens", "-o", o, x},
		{"-table", "fig5", "-progs", "queens", "-t", "io", "-vm-mode", "plain"},
		table("-vm-mode", "plain"),
		table("-noinline", "-bench-json", filepath.Join(dir, "b.json")),
		table(x),
		table("-o", o),
		table("-run"),
		table("-profile", filepath.Join(dir, "p.txt")),
		table("-emit-ir", dir),
		table("-ir-in", filepath.Join(dir, "q.ir")),
		table("-analyze"),
		table("-j", "2"),
		table("-layout"),
		table("-progress"),
	} {
		if code, _ := runCLI(t, args...); code != 2 {
			t.Errorf("atom %v exited %d, want 2", args, code)
		}
	}
	// Where -vm-mode applies, a bad value is a bad value, not the default.
	if code, _ := runCLI(t, "-run", "-vm-mode", "bogus", x); code != 1 {
		t.Errorf("-run -vm-mode bogus exited %d, want 1", code)
	}
}

// TestMetricsAgree instruments one batch with a per-invocation registry
// and a process-style telemetry registry both attached, then reads the
// counters three ways: the -metrics text, the bench JSON document, and
// the Prometheus _total series. All three must agree exactly.
func TestMetricsAgree(t *testing.T) {
	reg := obs.NewRegistrySink()
	proc := telemetry.NewRegistry()
	ctx := obs.New(reg, proc.Sink())
	names := []string{"queens", "eqntott"}
	apps := make([]*aout.File, len(names))
	for i, n := range names {
		app, err := spec.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = app
	}
	tool, _ := tools.ByName("branch")
	if _, errs := core.InstrumentManyNamed(ctx, apps, names, tool, core.Options{}, 2, nil); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}

	var text bytes.Buffer
	if err := obs.WriteMetrics(&text, reg); err != nil {
		t.Fatal(err)
	}
	fromText := map[string]int64{}
	section := ""
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			section = line
			continue
		}
		if f := strings.Fields(line); strings.HasPrefix(section, "# counters") && len(f) == 2 {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			fromText[f[0]] = v
		}
	}

	var prom bytes.Buffer
	if err := proc.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	fromProm := map[string]int64{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasSuffix(f[0], "_total") {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			fromProm[f[0]] = v
		}
	}

	doc := newRunDoc(reg, tool.Name, names)
	if len(doc.Counters) == 0 || fromText["atom.sites"] == 0 {
		t.Fatalf("no instrumentation counters recorded: %+v", doc.Counters)
	}
	if len(fromText) != len(doc.Counters) || len(fromProm) != len(doc.Counters) {
		t.Errorf("counter sets differ: %d in -metrics, %d in bench JSON, %d in /metrics",
			len(fromText), len(doc.Counters), len(fromProm))
	}
	for _, c := range doc.Counters {
		if got := fromText[c.Name]; got != c.Value {
			t.Errorf("%s: -metrics says %d, bench JSON %d", c.Name, got, c.Value)
		}
		if got := fromProm[telemetry.MetricName(c.Name)+"_total"]; got != c.Value {
			t.Errorf("%s: /metrics says %d, bench JSON %d", c.Name, got, c.Value)
		}
	}
}

// TestOutputName pins the output-naming rule the batch loop relies on.
func TestOutputName(t *testing.T) {
	for _, tc := range []struct{ in, explicit, want string }{
		{"prog.x", "", "prog.atom"},
		{"dir.v2/prog.x", "", "dir.v2/prog.atom"},
		{"prog", "", "prog.atom"},
		{"prog.x", "out.bin", "out.bin"},
	} {
		if got := outputName(tc.in, tc.explicit); got != tc.want {
			t.Errorf("outputName(%q, %q) = %q, want %q", tc.in, tc.explicit, got, tc.want)
		}
	}
}
