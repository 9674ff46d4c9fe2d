// Chrome trace_event exporter: renders a Profile (counter tracks) and a
// TraceRecorder's spans as the JSON Trace Format consumed by Perfetto
// (ui.perfetto.dev) and chrome://tracing. Each node becomes one "process":
// counter tracks for lane occupancy, event and send rates, DRAM traffic
// and backlog, injection-port backlog and wait-queue depth live on tid 0,
// and span tracks (one per lane, tid = lane-in-node + 1) carry the
// udweave/kvmsr duration events. Application phases render on a synthetic
// "program" process. Output is deterministic: fixed event order,
// struct-encoded JSON.
package metrics

import (
	"encoding/json"
	"io"
	"strconv"

	"updown/internal/arch"
)

// traceFile is the top-level JSON Object Format of the trace_event spec.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// traceEvent is one entry of the traceEvents array. Emitted phases:
// metadata ("M"), counters ("C"), duration begin/end ("B"/"E"), async
// begin/end ("b"/"e", carrying cat+id for pairing) and instants ("i").
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	// Cat and ID pair async begin/end events; S scopes instants to their
	// thread.
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// counterDef describes one per-node counter track.
type counterDef struct {
	name  string
	value func(s *Sample) float64
}

// traceCounters lists the exported tracks in emission order. Occupancy is
// normalized to percent of the node's lane-cycles per bucket; backlogs are
// converted from 1/64-cycle units to cycles.
func traceCounters(m arch.Machine, interval arch.Cycles) []counterDef {
	laneCycles := float64(interval) * float64(m.LanesPerNode())
	if laneCycles <= 0 {
		// Degenerate profile (zero interval or laneless machine): emit raw
		// busy cycles rather than dividing by zero.
		laneCycles = 1
	}
	return []counterDef{
		{"lane_occupancy_pct", func(s *Sample) float64 {
			return 100 * float64(s.Busy) / laneCycles
		}},
		{"events", func(s *Sample) float64 { return float64(s.Events) }},
		{"sends", func(s *Sample) float64 { return float64(s.Sends) }},
		{"dram_bytes", func(s *Sample) float64 { return float64(s.DRAMBytes) }},
		{"dram_backlog_cycles", func(s *Sample) float64 { return float64(s.DRAMBacklog64) / 64 }},
		{"inj_backlog_cycles", func(s *Sample) float64 { return float64(s.InjBacklog64) / 64 }},
		{"waitq_max", func(s *Sample) float64 { return float64(s.MaxWaitq) }},
	}
}

// WriteTraceFile writes counter tracks (from p) and span tracks (from tr)
// into one trace_event JSON file; either source may be nil. Timestamps
// are in microseconds at machine m's clock, as the format requires, and
// untouched nodes are omitted. Span emission walks the canonically sorted
// span records, so the file is byte-identical at any shard count.
func WriteTraceFile(w io.Writer, m arch.Machine, p *Profile, tr *TraceRecorder) error {
	usPerCycle := 1e6 / m.ClockHz
	var evs []traceEvent
	named := map[int]bool{}
	if p != nil {
		evs = appendCounterEvents(evs, p, m, usPerCycle, named)
	}
	if tr != nil {
		evs = appendSpanEvents(evs, tr, usPerCycle, named)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: evs})
}

func appendCounterEvents(evs []traceEvent, p *Profile, m arch.Machine, usPerCycle float64, named map[int]bool) []traceEvent {
	counters := traceCounters(m, p.Interval)
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if !n.Touched() {
			continue
		}
		pid := n.Node
		named[pid] = true
		evs = append(evs, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": nodeName(n.Node)},
		})
		for _, c := range counters {
			for b := range n.Samples {
				evs = append(evs, traceEvent{
					Name: c.name, Ph: "C", Pid: pid,
					Ts:   float64(int64(b)*p.Interval) * usPerCycle,
					Args: map[string]any{"value": c.value(&n.Samples[b])},
				})
			}
			// Close the counter at the end of the series so Perfetto does
			// not extrapolate the last bucket forever.
			evs = append(evs, traceEvent{
				Name: c.name, Ph: "C", Pid: pid,
				Ts:   float64(int64(len(n.Samples))*p.Interval) * usPerCycle,
				Args: map[string]any{"value": 0.0},
			})
		}
	}
	return evs
}

// appendSpanEvents renders the recorder's spans. Complete spans on one
// track never partially overlap (an actor executes serially; phases are
// sequential), so they emit as B/E with a close-before-open stack walk;
// overlappable spans (thread lifetimes, invocation phases) were recorded
// as async pairs and emit as b/e.
func appendSpanEvents(evs []traceEvent, tr *TraceRecorder, usPerCycle float64, named map[int]bool) []traceEvent {
	spans := tr.sortedSpans()
	type trk struct{ pid, tid int32 }
	namedTrack := map[trk]bool{}
	// Async spans may still be open when exporting mid-run (partial
	// dumps): remember begins in deterministic span order and cancel them
	// against their ends, so the leftovers can be closed synthetically.
	type asyncKey struct {
		pid, tid int32
		id       uint64
		name     string
	}
	asyncIdx := map[asyncKey]int{}
	var asyncOpen []*SpanRec
	var stack []*SpanRec
	cur := trk{-1, -1}
	// closeUpto pops spans whose End precedes the next Begin on the
	// current track (all == true flushes the track).
	closeUpto := func(begin arch.Cycles, all bool) {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if !all && top.End > begin {
				break
			}
			evs = append(evs, traceEvent{
				Name: top.Name, Ph: "E",
				Ts:  float64(top.End) * usPerCycle,
				Pid: int(top.Pid), Tid: int(top.Tid),
			})
			stack = stack[:len(stack)-1]
		}
	}
	for i := range spans {
		s := &spans[i]
		k := trk{s.Pid, s.Tid}
		if k != cur {
			closeUpto(0, true)
			cur = k
			if !named[int(s.Pid)] {
				named[int(s.Pid)] = true
				name := "program"
				if s.Pid != ProgramPid {
					name = nodeName(int(s.Pid))
				}
				evs = append(evs, traceEvent{
					Name: "process_name", Ph: "M", Pid: int(s.Pid),
					Args: map[string]any{"name": name},
				})
			}
			if !namedTrack[k] {
				namedTrack[k] = true
				name := "phases"
				if s.Pid != ProgramPid {
					name = "lane " + pad4(int(s.Tid)-1)
				}
				evs = append(evs, traceEvent{
					Name: "thread_name", Ph: "M", Pid: int(s.Pid), Tid: int(s.Tid),
					Args: map[string]any{"name": name},
				})
			}
		}
		ts := float64(s.Begin) * usPerCycle
		switch s.Typ {
		case SpanComplete:
			closeUpto(s.Begin, false)
			evs = append(evs, traceEvent{
				Name: s.Name, Ph: "B", Ts: ts,
				Pid: int(s.Pid), Tid: int(s.Tid),
			})
			stack = append(stack, s)
		case SpanInstant:
			evs = append(evs, traceEvent{
				Name: s.Name, Ph: "i", Ts: ts,
				Pid: int(s.Pid), Tid: int(s.Tid), S: "t",
			})
		case SpanAsyncBegin, SpanAsyncEnd:
			ph := "b"
			k := asyncKey{s.Pid, s.Tid, s.ID, s.Name}
			if s.Typ == SpanAsyncEnd {
				ph = "e"
				if j, ok := asyncIdx[k]; ok {
					asyncOpen[j] = nil
					delete(asyncIdx, k)
				}
			} else {
				asyncIdx[k] = len(asyncOpen)
				asyncOpen = append(asyncOpen, s)
			}
			evs = append(evs, traceEvent{
				Name: s.Name, Ph: ph, Ts: ts,
				Pid: int(s.Pid), Tid: int(s.Tid),
				Cat: "task", ID: strconv.FormatUint(s.ID, 16),
			})
		}
	}
	closeUpto(0, true)
	// Close async spans still open at export time — threads alive and
	// invocations in flight when a partial dump was taken — at the
	// recorder's current final time, so the file stays balanced. A
	// completed run has no open async spans, so its output is unchanged.
	endTs := float64(tr.finalTime) * usPerCycle
	for _, s := range asyncOpen {
		if s == nil {
			continue
		}
		ts := float64(s.Begin) * usPerCycle
		if endTs > ts {
			ts = endTs
		}
		evs = append(evs, traceEvent{
			Name: s.Name, Ph: "e", Ts: ts,
			Pid: int(s.Pid), Tid: int(s.Tid),
			Cat: "task", ID: strconv.FormatUint(s.ID, 16),
		})
	}
	return evs
}

func nodeName(n int) string {
	// Zero-pad so Perfetto's lexicographic process sort matches node order.
	return "node " + pad4(n)
}

func pad4(n int) string {
	const digits = "0123456789"
	return string([]byte{
		digits[n/1000%10], digits[n/100%10], digits[n/10%10], digits[n%10],
	})
}
