package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark itself
// (never by the program under test). Parent is the index of the enclosing
// span in the tracer's slice, -1 for a root.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the measured pass calls the same code with tracing off.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run,
		StartUs: float64(time.Since(t.t0).Nanoseconds()) / 1e3})
	t.stack = append(t.stack, i)
	return func() {
		t.spans[i].EndUs = float64(time.Since(t.t0).Nanoseconds()) / 1e3
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// total sums the durations, in seconds, of every span with the name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.EndUs - s.StartUs
		}
	}
	return us / 1e6
}

// selfTime is one row of the layer breakdown: a span name's total
// duration and the part of it not covered by child spans.
type selfTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes computes, per span name, total duration and self time (span
// minus the coverage of its direct children; children of one parent do
// not overlap because the benchmark is single-threaded between calls).
func selfTimes(spans []span) []selfTime {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUs - s.StartUs
		}
	}
	by := map[string]*selfTime{}
	var order []string
	for i, s := range spans {
		r := by[s.Name]
		if r == nil {
			r = &selfTime{Name: s.Name}
			by[s.Name] = r
			order = append(order, s.Name)
		}
		d := s.EndUs - s.StartUs
		r.Calls++
		r.Total += d / 1e6
		r.Self += (d - child[i]) / 1e6
	}
	sort.Strings(order)
	out := make([]selfTime, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// writeTraceEvents renders spans as Perfetto-loadable trace_event JSON:
// one complete ("X") event per span, one pid per run id.
func writeTraceEvents(w io.Writer, spans []span) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	pids := map[string]int{}
	var evs []ev
	for _, s := range spans {
		pid, ok := pids[s.Run]
		if !ok {
			pid = len(pids) + 1
			pids[s.Run] = pid
			evs = append(evs, ev{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Run}})
		}
		evs = append(evs, ev{Name: s.Name, Ph: "X", Ts: s.StartUs, Dur: s.EndUs - s.StartUs,
			Pid: pid, Tid: 1, Args: map[string]any{"run": s.Run, "parent": s.Parent}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
