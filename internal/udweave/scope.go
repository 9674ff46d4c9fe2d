package udweave

import "fmt"

// Scope records every label and lane-local slot a unit of program
// construction registers, so the whole unit can be retired at once and
// its resources recycled. It exists for multi-program hosting: the event
// label field is 12 bits, so a resident machine executing a stream of
// independent jobs (each registering its app's handlers plus a KVMSR
// invocation's ~20 internal events) would exhaust the label space after
// a few hundred jobs. With scopes, the label space bounds *concurrent*
// jobs, not total jobs served.
//
// Usage (host-side, engine quiesced):
//
//	sc := prog.Begin("job-7")
//	app, err := pagerank.New(m, dg, cfg) // Defines/NewSlots recorded
//	prog.End()
//	... run the job to completion ...
//	prog.Retire(sc) // labels and slots return to the free lists
type Scope struct {
	// Tag identifies the scope in diagnostics (label names of dangling
	// messages, double-retire panics).
	Tag string

	labels  []Label
	slots   []int
	retired bool
}

// Begin opens a recording scope: until End, every Define and NewSlot is
// recorded in the returned Scope. Scopes do not nest — program units that
// compose (an app plus its KVMSR invocations) share one scope. Host-side
// only, engine quiesced.
func (p *Program) Begin(tag string) *Scope {
	if p.scope != nil {
		panic(fmt.Sprintf("udweave: Begin(%q) inside open scope %q (scopes do not nest)", tag, p.scope.Tag))
	}
	p.scope = &Scope{Tag: tag}
	return p.scope
}

// End closes the open recording scope. Define/NewSlot calls after End
// are permanent again (never recycled).
func (p *Program) End() {
	if p.scope == nil {
		panic("udweave: End without Begin")
	}
	p.scope = nil
}

// Retire returns a scope's labels and slots to the program's free lists
// and clears the retired slots on every lane, so the next job reusing a
// slot index starts from pristine lane-local state. Host-side only,
// engine quiesced, and only after the scope's program unit has fully
// terminated: a message in flight to a retired label is a bug and will
// be dispatched to whatever handler next reuses the label — the same
// failure mode as freeing live memory.
func (p *Program) Retire(sc *Scope) {
	if sc.retired {
		panic(fmt.Sprintf("udweave: scope %q retired twice", sc.Tag))
	}
	if p.scope == sc {
		panic(fmt.Sprintf("udweave: Retire of still-open scope %q (call End first)", sc.Tag))
	}
	sc.retired = true
	for _, l := range sc.labels {
		p.handlers[l] = nil
		p.names[l] = "<retired>"
		p.freeLabels = append(p.freeLabels, l)
	}
	p.freeSlots = append(p.freeSlots, sc.slots...)
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	for _, l := range p.lanes {
		for _, s := range sc.slots {
			if s < len(l.slots) {
				l.slots[s] = nil
			}
		}
	}
	sc.labels, sc.slots = nil, nil
}

// FreeLabels returns the number of label table entries available without
// growing past the 12-bit ceiling — the admission headroom a scheduler
// checks before constructing another job's program unit.
func (p *Program) FreeLabels() int {
	return maxLabel - (len(p.handlers) - 1) + len(p.freeLabels)
}
