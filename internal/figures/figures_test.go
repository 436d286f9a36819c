package figures_test

import (
	"fmt"
	"strings"
	"testing"

	"atom/internal/core"
	"atom/internal/figures"
	"atom/internal/obs"
)

func TestFig5Subset(t *testing.T) {
	reg := obs.NewRegistrySink()
	rows, err := figures.Fig5(obs.New(reg), reg, []string{"queens", "eqntott"}, nil, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	saw := map[string]bool{}
	for _, h := range reg.Histograms() {
		saw[h.Name] = h.Count > 0
	}
	for _, want := range []string{"atom.site_live_regs", "atom.site_saved_regs"} {
		if !saw[want] {
			t.Errorf("aggregated histograms lack %s (have %v)", want, saw)
		}
	}
	for _, r := range rows {
		if r.Total <= 0 || r.Avg <= 0 || r.Programs != 2 || r.ApplyTime <= 0 || r.ImageBuild <= 0 {
			t.Errorf("%s: implausible row %+v", r.Tool, r)
		}
		if _, ok := figures.PaperFig5[r.Tool]; !ok {
			t.Errorf("%s missing from the paper reference table", r.Tool)
		}
	}
	var sb strings.Builder
	figures.PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "pipe") || !strings.Contains(sb.String(), "12.87") {
		t.Errorf("PrintFig5 output malformed:\n%s", sb.String())
	}
}

func TestFig6Subset(t *testing.T) {
	rows, err := figures.Fig6(nil, []string{"queens"}, nil, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	byTool := map[string]figures.Fig6Row{}
	for _, r := range rows {
		if r.Ratio < 1.0 {
			t.Errorf("%s: ratio %.2f < 1 (instrumentation cannot speed a program up)", r.Tool, r.Ratio)
		}
		// exp(mean(log)) can differ from min==max in the last ulp.
		if r.MinRatio > r.Ratio*1.000001 || r.MaxRatio < r.Ratio*0.999999 {
			t.Errorf("%s: mean %.2f outside [min %.2f, max %.2f]", r.Tool, r.Ratio, r.MinRatio, r.MaxRatio)
		}
		byTool[r.Tool] = r
	}
	// Shape invariants from the paper that must hold on any workload:
	// cache dominates every other tool; the rare-event tools are near 1.
	for _, other := range []string{"branch", "dyninst", "inline", "io", "malloc", "syscall"} {
		if byTool["cache"].Ratio < byTool[other].Ratio {
			t.Errorf("cache (%.2f) not the most expensive vs %s (%.2f)",
				byTool["cache"].Ratio, other, byTool[other].Ratio)
		}
	}
	for _, cheap := range []string{"io", "syscall", "malloc", "inline"} {
		if byTool[cheap].Ratio > 1.5 {
			t.Errorf("%s ratio %.2f, want near 1.0 on a compute-bound program", cheap, byTool[cheap].Ratio)
		}
	}
	var sb strings.Builder
	figures.PrintFig6(&sb, rows)
	if !strings.Contains(sb.String(), "11.84") {
		t.Errorf("PrintFig6 lacks paper reference column:\n%s", sb.String())
	}
}

func TestRatioForErrors(t *testing.T) {
	if _, err := figures.RatioFor(nil, "nope", "queens", core.Options{}); err == nil {
		t.Error("unknown tool accepted")
	}
	if _, err := figures.RatioFor(nil, "cache", "nope", core.Options{}); err == nil {
		t.Error("unknown program accepted")
	}
}

// TestAblations pins the Section 4 design choices (save mode, register
// summary) and the paper's two future-work refinements (liveness,
// inlining) as one-tool, one-program Figure 6 ratios, measured with the
// options `atom -table` passes.
func TestAblations(t *testing.T) {
	for _, c := range []struct {
		name, tool, prog string
		opts             core.Options
		want             string
	}{
		{"save/wrapper", "branch", "eqntott", core.Options{Mode: core.SaveWrapper}, "2.98"},
		{"save/inanalysis", "branch", "eqntott", core.Options{Mode: core.SaveInAnalysis}, "2.79"},
		{"summary/on", "cache", "eqntott", core.Options{}, "19.70"},
		{"summary/save-all", "cache", "eqntott", core.Options{NoRegSummary: true}, "34.63"},
		{"liveness/on", "prof", "eqntott", core.Options{}, "1.75"},
		{"liveness/off", "prof", "eqntott", core.Options{NoLiveness: true}, "2.28"},
		{"inline/on", "gprof", "queens", core.Options{}, "3.28"},
		{"inline/off", "gprof", "queens", core.Options{NoInline: true}, "4.95"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, err := figures.Fig6(nil, []string{c.prog}, []string{c.tool}, c.opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || rows[0].Tool != c.tool {
				t.Fatalf("rows = %+v, want one %s row", rows, c.tool)
			}
			if got := fmt.Sprintf("%.2f", rows[0].Ratio); got != c.want {
				t.Errorf("%s on %s: ratio %s, want %s", c.tool, c.prog, got, c.want)
			}
		})
	}
}
