package main

import (
	"os"
	"path/filepath"
	"time"

	"atom/internal/obs"
)

// tracer records the traced run's spans through an obs context into an
// in-memory obs.TraceSink. It is driven from the benchmark's single
// client goroutine, so a stack of open spans gives every span its parent.
// begin and end are no-ops on a nil tracer, which is how the timed run
// stays untraced.
//
// Every span carries two attributes: "op", the id of the operation it
// belongs to (0 outside any operation), and "label", the program, tool
// or build it concerns.
type tracer struct {
	sink   obs.TraceSink
	open   []openSpan // innermost last; open[0] is the root context
	curOp  int64
	nextOp int64
}

type openSpan struct {
	ctx  *obs.Ctx
	span *obs.Span
	op   bool // a span named "op"
}

func newTracer() *tracer {
	t := &tracer{}
	t.open = []openSpan{{ctx: obs.New(&t.sink)}}
	return t
}

// begin opens a span nested in the innermost open one. A span named
// "op" starts a new operation; every span inside it carries its id.
func (t *tracer) begin(name, label string) {
	if t == nil {
		return
	}
	isOp := name == "op"
	if isOp {
		t.nextOp++
		t.curOp = t.nextOp
	}
	ctx, sp := t.open[len(t.open)-1].ctx.Start(name, obs.Int("op", t.curOp), obs.String("label", label))
	t.open = append(t.open, openSpan{ctx, sp, isOp})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.open[n].span.End()
	if t.open[n].op {
		t.curOp = 0
	}
	t.open = t.open[:n]
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the parts their direct children cover. Spans inside a
// "setup" span are totalled apart from the rest, keyed by scope "setup"
// or "pass".
func (t *tracer) selfTimes() map[string]map[string]time.Duration {
	self := map[string]map[string]time.Duration{"setup": {}, "pass": {}}
	spans := t.sink.Spans() // a parent sorts before its children
	byID := make(map[uint64]obs.SpanData, len(spans))
	scope := make(map[uint64]string, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
		switch {
		case sp.Name == "setup":
			scope[sp.ID] = "setup"
		case scope[sp.Parent] != "":
			scope[sp.ID] = scope[sp.Parent]
		case sp.Name == "pass":
			scope[sp.ID] = "pass"
		}
		s := scope[sp.ID]
		if s == "" {
			continue // the workload root
		}
		self[s][sp.Name] += sp.Dur
		if scope[sp.Parent] != "" {
			self[s][byID[sp.Parent].Name] -= sp.Dur
		}
	}
	return self
}

// opTime returns the total duration of the spans named "op".
func (t *tracer) opTime() time.Duration {
	var d time.Duration
	for _, sp := range t.sink.Spans() {
		if sp.Name == "op" {
			d += sp.Dur
		}
	}
	return d
}

// write writes the spans as a Chrome trace_event JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return t.sink.WriteFile(path)
}
