// Telemetry integration: the engine-side half of the live observation
// plane (internal/telemetry).
//
// Every hook below runs in a *quiesced* context — a point where no shard
// is executing events and the calling goroutine owns all simulation
// state: the window reduction (window.go; under the pool every worker
// waits in the barrier, whose atomic count/sense pair orders their
// preceding writes before it), and Run itself after the executor returns.
//
// At such a point the engine assembles an immutable Snapshot from shard
// statistics, heaps, actor clocks and injection ports, publishes it
// through the Publisher's pointer swap, and optionally clones the
// metrics recorder into a partial profile. Observers only read the
// published immutable values, so scrapes and dumps can neither race with
// the simulation nor change its schedule: window slicing is the only
// thing telemetry perturbs, and the engine's execution order is provably
// independent of slicing (the same property that makes every executor
// and shard count bit-identical).
package sim

import (
	"errors"
	"fmt"

	"updown/internal/arch"
	"updown/internal/telemetry"
)

// ErrInterrupted is returned by Run when an observer asked the run to
// stop (telemetry.Publisher.RequestStop, typically from a SIGINT
// handler). Like a timeout, the engine stops at a quiesced point with
// every in-flight message parked in its heaps, so partial profiles and
// traces remain coherent and a later Run could continue the work.
var ErrInterrupted = errors.New("sim: run interrupted by stop request")

// InterruptedError is the concrete error Run returns for a requested
// stop. It wraps ErrInterrupted (errors.Is keeps working) and records
// where the run was parked.
type InterruptedError struct {
	// At is the window-start cycle the run stopped at.
	At arch.Cycles
	// Pending is the number of messages still queued, including messages
	// parked behind busy actors.
	Pending int
}

func (i *InterruptedError) Error() string {
	return fmt.Sprintf("sim: run interrupted at cycle %d (%d pending)", i.At, i.Pending)
}

// Unwrap makes errors.Is(err, ErrInterrupted) succeed.
func (i *InterruptedError) Unwrap() error { return ErrInterrupted }

// telemetryBeat is the per-window heartbeat: it stamps the publisher's
// clocks, publishes a snapshot when the throttle (or a pending dump
// request) asks for one, and latches a requested stop into
// e.interrupted. The window reduction calls it, guarded by e.tel != nil.
func (e *Engine) telemetryBeat(now arch.Cycles) {
	if e.tel.Beat(int64(now)) {
		e.telemetryPublish(now, false)
	}
	if e.tel.StopRequested() {
		e.interrupted = true
		e.interruptedAt = now
	}
}

// telemetryPublish assembles and publishes a snapshot, then refreshes
// the partial-profile clone when a metrics recorder is installed. The
// snapshot's counter record is folded into the recorder first so the
// clone is coherent; the engine re-observes the same record after Run,
// so final profile output stays byte-identical to a telemetry-free run.
func (e *Engine) telemetryPublish(now arch.Cycles, done bool) {
	s := e.telemetrySnapshot(now, done)
	e.tel.Publish(s)
	if e.tr != nil {
		// Monotone-max like the recorder's: a mid-run fold keeps partial
		// trace dumps coherent (open program phases get a current end)
		// without changing what the post-run observation produces.
		e.tr.ObserveFinalTime(s.FinalTime)
	}
	if e.rec != nil {
		e.rec.ObserveTotals(s.Totals)
		e.tel.SetProfile(e.rec.PartialProfile())
	}
}

// telemetrySnapshot reads the quiesced engine into an immutable
// snapshot. now is the current window start; done marks the final
// snapshot of a Run.
func (e *Engine) telemetrySnapshot(now arch.Cycles, done bool) *telemetry.Snapshot {
	s := &telemetry.Snapshot{Done: done, SimTime: int64(now), Totals: e.totals(), Pending: e.Pending()}
	if e.maxTime < 1<<62 {
		s.MaxTime = int64(e.maxTime)
	}
	s.Nodes = make([]telemetry.NodeStat, e.M.Nodes)
	for n := range s.Nodes {
		s.Nodes[n].Node = n
	}
	for i := range e.state {
		if b := e.state[i].busy; b != 0 {
			s.Nodes[e.nodeOfID[i]].Busy += b
		}
	}
	for n, busy64 := range e.injBusy64 {
		if backlog := busy64 - int64(now)*64; backlog > 0 {
			s.Nodes[n].InjBacklog = backlog / 64
		}
	}
	return s
}
