package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanStat is one aggregated row of the metrics snapshot.
type SpanStat struct {
	Name  string
	Count int64
	Total time.Duration
}

// WriteMetrics renders the registry's plain-text snapshot behind
// `cmd/atom -metrics`: span aggregates, counters, then histograms (that
// section only when there are any), each sorted by name. Histogram
// bucket boundaries are fixed, so identical activity renders
// byte-identical text.
func WriteMetrics(w io.Writer, r *RegistrySink) error {
	var b strings.Builder
	b.WriteString("# spans: name count total_ms\n")
	for _, s := range r.SpanStats() {
		fmt.Fprintf(&b, "%-32s %8d %12.3f\n", s.Name, s.Count, float64(s.Total.Nanoseconds())/1e6)
	}
	b.WriteString("# counters: name value\n")
	for _, c := range r.Counters() {
		fmt.Fprintf(&b, "%-32s %12d\n", c.Name, c.Value)
	}
	if hists := r.Histograms(); len(hists) > 0 {
		b.WriteString("# histograms: name count sum min max\n")
		for _, h := range hists {
			fmt.Fprintf(&b, "%-32s %12d %12d %12d %12d\n", h.Name, h.Count, h.Sum, h.Min, h.Max)
			for _, bk := range h.Buckets {
				fmt.Fprintf(&b, "  %-30s %12d\n", fmt.Sprintf("[%d,%d)", bk.Lo, bk.Hi), bk.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
