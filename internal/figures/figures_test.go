package figures_test

import (
	"strings"
	"testing"

	"atom/internal/core"
	"atom/internal/figures"
	"atom/internal/obs"
)

func TestFig5Subset(t *testing.T) {
	reg := obs.NewRegistrySink()
	rows, err := figures.Fig5(obs.New(reg), reg, []string{"queens", "eqntott"}, nil)
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
	rows, err := figures.Fig6(nil, []string{"queens"}, nil)
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
	if _, err := figures.RatioFor("nope", "queens", core.Options{}); err == nil {
		t.Error("unknown tool accepted")
	}
	if _, err := figures.RatioFor("cache", "nope", core.Options{}); err == nil {
		t.Error("unknown program accepted")
	}
}
