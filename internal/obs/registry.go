package obs

import (
	"sort"
	"sync"
	"time"
)

// RegistrySink is the one metric aggregate: counters, log2 histograms,
// and per-name span aggregates, fed by events from every context it is
// attached to (it implements Sink, CounterSink, and HistogramSink), so
// it sees the union of their activity as it happens — including
// contexts that have since been dropped. All methods are safe for
// concurrent use, so a scrape handler may read it mid-run.
//
// Its scope is where it is attached. A fresh sink per CLI invocation is
// that invocation's view, behind -metrics (WriteMetrics) and the bench
// JSON; the process-wide sink in internal/telemetry backs Prometheus
// /metrics. Totals only ever grow, which is exactly the monotonicity a
// Prometheus counter or native histogram requires.
type RegistrySink struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*histData
	spans    map[string]spanAgg
}

type spanAgg struct {
	count int64
	total time.Duration
}

// NewRegistrySink returns an empty registry sink.
func NewRegistrySink() *RegistrySink {
	return &RegistrySink{
		counters: map[string]int64{},
		hists:    map[string]*histData{},
		spans:    map[string]spanAgg{},
	}
}

// SpanEnd folds the completed span into the per-name aggregate.
func (r *RegistrySink) SpanEnd(sd SpanData) {
	r.mu.Lock()
	a := r.spans[sd.Name]
	a.count++
	a.total += sd.Dur
	r.spans[sd.Name] = a
	r.mu.Unlock()
}

// CounterAdd adds delta to the named counter total.
func (r *RegistrySink) CounterAdd(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// HistogramObserve folds one value into the named histogram.
func (r *RegistrySink) HistogramObserve(name string, v int64) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &histData{}
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Counters returns a snapshot of every counter total, sorted by name.
func (r *RegistrySink) Counters() []Counter {
	r.mu.Lock()
	out := make([]Counter, 0, len(r.counters))
	for n, v := range r.counters {
		out = append(out, Counter{Name: n, Value: v})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns the current total of one named counter.
func (r *RegistrySink) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Histograms returns a snapshot of every histogram, sorted by name, with
// only non-empty buckets listed.
func (r *RegistrySink) Histograms() []Hist {
	r.mu.Lock()
	out := make([]Hist, 0, len(r.hists))
	for n, h := range r.hists {
		out = append(out, h.snapshot(n))
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SpanStats returns the per-name span aggregates sorted by name.
func (r *RegistrySink) SpanStats() []SpanStat {
	r.mu.Lock()
	out := make([]SpanStat, 0, len(r.spans))
	for n, a := range r.spans {
		out = append(out, SpanStat{Name: n, Count: a.count, Total: a.total})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SpanTotal returns the summed duration of completed spans with the
// given name.
func (r *RegistrySink) SpanTotal(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[name].total
}
