package sched

import "updown"

// DefaultQuantum is the reconcile interval used when a caller leaves the
// quantum unset: 4096 simulated cycles (~2 µs at 2 GHz).
const DefaultQuantum updown.Cycles = 4096

// Engine is the slice of the simulator the pacer drives: advance the
// simulated frontier to a host-chosen boundary. *updown.Machine
// satisfies it (and folds its replication counters at every boundary).
type Engine interface {
	RunUntil(t updown.Cycles) (updown.Stats, error)
}

// Step is one host-side reconcile pass, invoked at a quiesced quantum
// boundary with the current simulated frontier. It returns idleUntil — the
// earliest future cycle at which host work exists (anything at or below
// now means "work is live now, pace by one quantum") — and done, which
// ends the drive loop.
type Step func(now updown.Cycles) (idleUntil updown.Cycles, done bool)

// Pacer alternates bounded simulation slices with host-side reconcile
// steps on a fixed quantum grid. It is the determinism backbone shared by
// the job scheduler and the query-serving loop: every host decision
// happens at a grid boundary that is a pure function of the quantum, so
// the interleaving of host actions and simulated progress is identical at
// any shard count. Idle stretches are jumped in one RunUntil — but only to
// another grid boundary, so skipping empty quanta cannot change any
// decision.
type Pacer struct {
	Quantum updown.Cycles
	now     updown.Cycles
}

// NewPacer returns a pacer on the given grid (DefaultQuantum if q <= 0).
func NewPacer(q updown.Cycles) *Pacer {
	if q <= 0 {
		q = DefaultQuantum
	}
	return &Pacer{Quantum: q}
}

// Now returns the simulated frontier the pacer has advanced to.
func (p *Pacer) Now() updown.Cycles { return p.now }

// Align rounds t up to the next quantum boundary at or after it.
func (p *Pacer) Align(t updown.Cycles) updown.Cycles {
	return (t + p.Quantum - 1) / p.Quantum * p.Quantum
}

// Drive runs step / RunUntil alternation until step reports done or the
// engine errors. The frontier only moves forward; Drive may be called
// again after more work is queued.
func (p *Pacer) Drive(eng Engine, step Step) error {
	for {
		idleUntil, done := step(p.now)
		if done {
			return nil
		}
		next := p.now + p.Quantum
		if idleUntil > next {
			next = p.Align(idleUntil)
		}
		if _, err := eng.RunUntil(next); err != nil {
			return err
		}
		p.now = next
	}
}
