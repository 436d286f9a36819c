package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"atom/internal/obs"
	"atom/internal/spec"
	"atom/internal/tools"
)

// smallRun runs a workload over a few programs for the shortest run:
// one pass after its set-ups, or an untraced and a traced one when trace
// is set. It returns the report, the run and the trace file's path.
func smallRun(t *testing.T, workload string, seed int64, progs []string, trace bool) (*result, *run, string) {
	t.Helper()
	dir := t.TempDir()
	c := config{
		workload: workload,
		seed:     seed,
		trace:    trace,
		traceOut: filepath.Join(dir, "trace.json"),
		tmp:      dir,
		progs:    progs,
	}
	res, r, err := execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d operations failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res, r, c.traceOut
}

// TestExpectedSample regenerates a seeded sample of expected.json under
// the plain dispatch loop and requires it to match the committed file.
func TestExpectedSample(t *testing.T) {
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(11))
	suite := spec.Suite()
	names := tools.Names()
	for i := 0; i < 2; i++ {
		p := suite[rnd.Intn(len(suite))].Name
		got, err := expectProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := exp.prog(p); got != want {
			t.Errorf("%s: regenerated %+v, committed %+v", p, got, want)
		}
		for j := 0; j < 2; j++ {
			tn := names[rnd.Intn(len(names))]
			got, err := expectBuild(tn, p, exp.prog(p))
			if err != nil {
				t.Fatal(err)
			}
			if want := exp.build(tn, p); got != want {
				t.Errorf("%s on %s: regenerated %+v, committed %+v", tn, p, got, want)
			}
		}
	}
}

func TestDraw(t *testing.T) {
	var progs []string
	for _, p := range spec.Suite() {
		progs = append(progs, p.Name)
	}
	a, b := draw(1, progs, fig6Builds), draw(1, progs, fig6Builds)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 drew two orders")
	}
	if len(a) != 20*12 {
		t.Errorf("fig6 draws %d operations, want 240", len(a))
	}
	seen := map[opKey]bool{}
	for _, k := range a {
		seen[k] = true
	}
	if len(seen) != len(a) {
		t.Errorf("fig6 draw repeats operations")
	}
	if reflect.DeepEqual(a, draw(2, progs, fig6Builds)) {
		t.Errorf("seeds 1 and 2 drew the same order")
	}
}

// TestDeterminism runs each workload twice with one seed, timed and
// traced, and requires the deterministic metrics to repeat exactly (and
// those the workload exercises to be nonzero).
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	timed := []string{"icount_ratio_geomean", "inst_text_kib"}
	traced := []string{"vm.icount", "vm.sb.built", "core.apply.sites", "prof.samples"}
	cases := []struct {
		workload string
		progs    []string
		nonzero  []string
	}{
		{"fig5", []string{"eqntott", "tomcatv"}, []string{"core.apply.sites"}},
		{"fig6", []string{"eqntott", "gcc"}, []string{"vm.icount", "vm.sb.built", "core.apply.sites"}},
		{"profile", []string{"eqntott", "queens"}, []string{"vm.icount", "prof.samples"}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			a, _, _ := smallRun(t, tc.workload, 1, tc.progs, false)
			b, _, _ := smallRun(t, tc.workload, 1, tc.progs, false)
			ta, _, _ := smallRun(t, tc.workload, 1, tc.progs, true)
			tb, _, _ := smallRun(t, tc.workload, 1, tc.progs, true)
			for _, m := range timed {
				if a.Metrics[m] != b.Metrics[m] || a.Metrics[m].Value == 0 {
					t.Errorf("%s: %v, then %v", m, a.Metrics[m], b.Metrics[m])
				}
			}
			for _, m := range traced {
				if ta.Metrics[m] != tb.Metrics[m] {
					t.Errorf("%s: %v, then %v", m, ta.Metrics[m], tb.Metrics[m])
				}
			}
			for _, m := range tc.nonzero {
				if ta.Metrics[m].Value == 0 {
					t.Errorf("%s is 0", m)
				}
			}
		})
	}
}

// TestTraceFormat checks the traced run's spans: obs.ParseTrace accepts
// the written Chrome trace, which holds every span with its operation id
// and label; every parent link names an enclosing span; spans of one
// operation share its id; and each workload touches only its layers.
func TestTraceFormat(t *testing.T) {
	cases := []struct {
		workload  string
		progs     []string
		forbidden string // span-name prefix the workload must not record
		required  string
	}{
		{"fig5", []string{"eqntott"}, "vm.", "core.apply"},
		{"fig6", []string{"eqntott"}, "prof.", "vm.run"},
		{"profile", []string{"eqntott"}, "core.", "prof.write"},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			_, r, path := smallRun(t, tc.workload, 1, tc.progs, true)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := obs.ParseTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			spans := r.trace.sink.Spans()
			if len(evs) != len(spans) {
				t.Fatalf("trace file holds %d events for %d spans", len(evs), len(spans))
			}
			for i, ev := range evs {
				if ev.Name != spans[i].Name || ev.Args["op"] != attr(spans[i], "op") || ev.Args["label"] != attr(spans[i], "label") {
					t.Fatalf("event %d is %s %v, span is %+v", i, ev.Name, ev.Args, spans[i])
				}
			}
			byID := map[uint64]obs.SpanData{}
			for _, sp := range spans {
				byID[sp.ID] = sp
			}
			required := false
			for _, sp := range spans {
				if strings.HasPrefix(sp.Name, tc.forbidden) {
					t.Errorf("%s records a %s span", tc.workload, sp.Name)
				}
				required = required || sp.Name == tc.required
				if sp.Name != "workload" && !slices.Contains(selfSpans, sp.Name) {
					t.Errorf("span %s has no self-time metric", sp.Name)
				}
				if sp.Parent == 0 {
					if sp.Name != "workload" {
						t.Errorf("%s span has no parent", sp.Name)
					}
					continue
				}
				p, ok := byID[sp.Parent]
				if !ok {
					t.Errorf("%s span's parent %d is not in the trace", sp.Name, sp.Parent)
					continue
				}
				if sp.Start < p.Start || sp.Start+sp.Dur > p.Start+p.Dur {
					t.Errorf("%s span [%v+%v] is not inside its parent %s [%v+%v]", sp.Name, sp.Start, sp.Dur, p.Name, p.Start, p.Dur)
				}
				if op := attr(p, "op"); op != "0" && op != attr(sp, "op") {
					t.Errorf("%s span has op %s inside op %s", sp.Name, attr(sp, "op"), op)
				}
				if sp.Name == "op" {
					if n, _ := strconv.Atoi(attr(sp, "op")); n == 0 {
						t.Errorf("op span without an operation id")
					}
				}
			}
			if !required {
				t.Errorf("%s records no %s span", tc.workload, tc.required)
			}
		})
	}
}

// attr returns the value of a span's attribute, or "" if it has none.
func attr(sp obs.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v", names)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", n)
		}
	}
	r := newRun(nil, "")
	check := func(kind string, declared []decl, reported []namedMetric) {
		var want []decl
		for _, m := range reported {
			want = append(want, decl{m.name, m.unit})
		}
		if !reflect.DeepEqual(declared, want) {
			t.Errorf("BENCHMARK.json %s:\n%v\nthe benchmark reports:\n%v", kind, declared, want)
		}
	}
	check("end_to_end", doc.EndToEnd, r.endToEnd())
	check("per_layer", doc.PerLayer, r.layerMetrics(newTracer()))
}
