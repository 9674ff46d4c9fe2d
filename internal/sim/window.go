// The conservative-window protocol, written once: one reduction that turns
// the quiesced state of all shards into per-shard horizons, and one
// per-shard step that executes a window. Two executors call them and
// nothing else — runInline below and the worker pool (pool.go).
//
// Shards partition actors by node, so a message that changes shard pays
// the system network: at least e.lookahead cycles. Let
//
//	next[a]    = the earliest message shard a could still execute:
//	             its queue top, or a message staged for it in a peer's
//	             outbox that it has not collected yet
//	horizon[b] = min over a != b of next[a] + lookahead
//
// Safety: a message b has not received yet is sent by a future execution
// on some peer a, no earlier than next[a] (a message a only relays cannot
// leave a before it arrives there, and it is staged or queued somewhere,
// so it is in somebody's next), and then travels for at least lookahead
// cycles. Nothing with Deliver < horizon[b] can still reach b, so b may
// execute everything below its horizon. The bound holds for peers' state
// at the reduction; a shard keeps it true while it runs by ending its
// window at its first cross-shard send (processWindow), which the next
// reduction folds into the recipient's next. Horizons only slice the
// timeline; the per-actor (Deliver, Src, Seq) order never changes, so
// every executor and shard count produces the same bytes.
package sim

import (
	"math"
	"runtime"

	"updown/internal/arch"
)

// hostMode pins the executor of a Run. Tests only; Options has no knob.
type hostMode uint8

const (
	// hostAuto runs one shard, or any shard count on a one-CPU process,
	// inline, and everything else on the worker pool.
	hostAuto hostMode = iota
	hostPool
	hostInline
)

func (e *Engine) inline() bool {
	switch e.host {
	case hostPool:
		return false
	case hostInline:
		return true
	}
	return e.nshards == 1 || runtime.GOMAXPROCS(0) == 1
}

// window is the protocol state of one Run. reduce writes it at a quiesced
// point; between reductions shard i reads only its own slots.
type window struct {
	e *Engine
	// limit is the last cycle this run may execute: MaxTime, or RunUntil's
	// pause cycle.
	limit   arch.Cycles
	next    []arch.Cycles
	horizon []arch.Cycles
	// inbound[i]: some peer staged a message for shard i last window.
	inbound  []bool
	timedOut bool
}

func newWindow(e *Engine) window {
	n := e.nshards
	return window{e: e, next: make([]arch.Cycles, n), horizon: make([]arch.Cycles, n), inbound: make([]bool, n)}
}

// telemetrySpan bounds a window to 8 lookaheads while telemetry is on, so
// the run reaches a quiesced point — a beat, a dump, a stop — at sub-second
// intervals even when one step could otherwise cover the whole run.
const telemetrySpan = 8

// reduce runs with every shard quiesced (between rounds inline, on the
// last barrier arriver in the pool), so it reads queues and outboxes
// directly. It reports whether another window follows. When none does —
// quiescent, past the limit, or interrupted — every staged message is
// back in its destination's queue, where Pending, Checkpoint and a later
// Run find it.
func (w *window) reduce() bool {
	e := w.e
	next := w.next
	for i, s := range e.shards {
		next[i] = s.heap.frontier()
		w.inbound[i] = false
	}
	for _, s := range e.shards {
		if s.outMin == math.MaxInt64 {
			continue
		}
		for d, v := range s.outTo {
			if v != math.MaxInt64 {
				w.inbound[d] = true
				next[d] = min(next[d], v)
			}
		}
	}
	// start <= second are the two smallest frontiers, first the holder of
	// start: its own frontier does not bound it, the second smallest does.
	start, second, first := arch.Cycles(math.MaxInt64), arch.Cycles(math.MaxInt64), -1
	for i, v := range next {
		switch {
		case v < start:
			start, second, first = v, start, i
		case v < second:
			second = v
		}
	}
	if start == math.MaxInt64 {
		return false
	}
	bound := satAdd(w.limit, 1)
	if e.tel != nil {
		e.telemetryBeat(start)
		if la := e.lookahead; la <= math.MaxInt64/telemetrySpan {
			bound = min(bound, satAdd(start, la*telemetrySpan))
		}
	}
	w.timedOut = start > w.limit && !e.interrupted
	if w.timedOut || e.interrupted {
		for _, s := range e.shards {
			s.collect(0)
			s.collect(1)
			s.resetOut()
		}
		return false
	}
	for b := range w.horizon {
		f := start
		if b == first {
			f = second
		}
		w.horizon[b] = min(satAdd(f, e.lookahead), bound)
	}
	return true
}

// step runs shard s's window on outbox side parity: take what peers staged
// for it on the other side last window, then execute below its horizon.
// Outboxes are double-buffered so that, under the pool, the side written
// in window w is read only after the w+1 reduction and written again only
// after the w+2 reduction, when its reader has drained it. A shard with
// nothing inbound, nothing staged and nothing below its horizon has no
// window; step reports whether there was one.
func (w *window) step(s *shard, parity int) bool {
	s.parity = parity
	h := w.horizon[s.idx]
	if !w.inbound[s.idx] && s.outMin == math.MaxInt64 && s.heap.frontier() >= h {
		return false
	}
	s.collect(parity ^ 1)
	s.resetOut()
	s.processWindow(h)
	s.heap.compact()
	return true
}

// runInline is the single-goroutine executor. With one shard there are no
// peers, the horizon is the limit and a whole Run is one step.
func (e *Engine) runInline() {
	w := &e.win
	for parity := 0; w.reduce(); parity ^= 1 {
		ran := false
		for _, s := range e.shards {
			if w.step(s, parity) {
				ran = true
			}
		}
		if !ran {
			// Unreachable: the holder of the global minimum has it in its
			// queue or inbound, below a horizon at least one lookahead
			// later. Fail loudly rather than spin.
			panic("sim: window protocol made no progress")
		}
	}
}

// satAdd adds two cycle counts, saturating at MaxInt64 so "no pending
// work" (MaxInt64) plus a latency stays "no bound".
func satAdd(a, b arch.Cycles) arch.Cycles {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}
