package udweave

// Checkpoint support. A lane's mutable state is its thread contexts and
// its slots; the values inside them are application-defined, so they are
// serialized with encoding/gob, and their concrete types must be
// registered with gob.Register. A value gob cannot encode — a struct with
// no exported fields, such as the state a KVMSR invocation keeps on its
// lanes, or a closure — makes Snapshot fail with a descriptive error rather
// than silently dropping state, so a lane is not checkpointable while a
// KVMSR job has run on it.

import (
	"errors"
	"fmt"
	"reflect"
	"unsafe"

	"updown/internal/sim"
)

// laneSnapVersion 2 dropped the string-keyed local section: all lane
// state is in slots.
const laneSnapVersion = 2

// ErrNotQuiescent is the sentinel wrapped by lane Snapshot failures caused
// by live, non-serializable runtime state: a KVMSR invocation mid-job
// keeps closures (map/reduce functions) in thread state and unexported
// runtime structs in its slots, none of which gob can encode. Callers
// detect the condition with errors.Is(err, ErrNotQuiescent) and either run
// the machine to quiescence or checkpoint at the warm-start boundary
// instead.
var ErrNotQuiescent = errors.New("lane holds live non-serializable state (checkpoint requires quiescence)")

// NotQuiescentError carries the lane and the value that failed to encode.
type NotQuiescentError struct {
	Lane int32
	What string
	Err  error
}

func (e *NotQuiescentError) Error() string {
	return fmt.Sprintf("udweave: lane %d %s: %v — %v; run to quiescence (or checkpoint at the warm-start boundary) before Machine.Checkpoint, and register concrete serializable types with gob.Register", e.Lane, e.What, e.Err, ErrNotQuiescent)
}

// Unwrap lets errors.Is match both ErrNotQuiescent and the gob cause.
func (e *NotQuiescentError) Unwrap() []error { return []error{ErrNotQuiescent, e.Err} }

// NumHandlers returns the number of registered event labels (including
// the reserved ones). Machine-level checkpoints record it as a cheap
// guard that the restoring process registered the same program.
func (p *Program) NumHandlers() int { return len(p.handlers) }

// NumSlots returns the number of slots declared with NewSlot, recorded in
// machine-level checkpoints alongside the handler count.
func (p *Program) NumSlots() int { return len(p.slotTypes) }

// Snapshot implements sim.Snapshotter for a lane.
func (l *Lane) Snapshot(w *sim.SnapWriter) error {
	w.U8(laneSnapVersion)
	w.U64(l.timerGen)
	w.U64(uint64(len(l.threads)))
	for tid, th := range l.threads {
		if th == nil {
			w.U8(0)
			continue
		}
		w.U8(1)
		w.U64(th.timeoutGen)
		w.U64(uint64(th.timeoutLabel))
		if err := w.Gob(th.State); err != nil {
			return &NotQuiescentError{Lane: int32(l.id), What: fmt.Sprintf("thread %d state", tid), Err: err}
		}
	}
	w.U64(uint64(len(l.freeTIDs)))
	for _, t := range l.freeTIDs {
		w.U64(uint64(t))
	}
	w.U64(uint64(len(l.slots)))
	for i, p := range l.slots {
		var v any
		if p != nil {
			v = reflect.NewAt(l.p.slotTypes[i].Elem(), p).Interface()
		}
		if err := w.Gob(v); err != nil {
			return &NotQuiescentError{Lane: int32(l.id), What: fmt.Sprintf("slot %d", i), Err: err}
		}
	}
	return w.Err()
}

// RestoreSnapshot implements sim.Snapshotter for a lane.
func (l *Lane) RestoreSnapshot(r *sim.SnapReader) error {
	commit, err := l.StageSnapshot(r)
	if err == nil {
		commit()
	}
	return err
}

// StageSnapshot implements sim.Stager: it decodes and checks a lane
// snapshot without touching the lane, and commit installs it. A slot value
// whose type is not the slot's is a *sim.RestoreError of kind
// RestoreShapeMismatch: the checkpoint came from another program. The
// recycled thread pool is not part of the snapshot: pooling is an
// allocation optimization with no observable effect, so the restored lane
// simply starts with an empty pool.
func (l *Lane) StageSnapshot(r *sim.SnapReader) (commit func(), err error) {
	if v := r.U8(); r.Err() == nil && v != laneSnapVersion {
		return nil, fmt.Errorf("lane %d: snapshot version %d, this build reads %d", l.id, v, laneSnapVersion)
	}
	timerGen := r.U64()
	nthreads := r.U64()
	if r.Err() == nil && nthreads > uint64(NewThreadTID) {
		return nil, fmt.Errorf("lane %d: implausible thread count %d", l.id, nthreads)
	}
	var threads []*Thread
	live := 0
	for tid := uint64(0); tid < nthreads && r.Err() == nil; tid++ {
		if r.U8() == 0 {
			threads = append(threads, nil)
			continue
		}
		th := &Thread{TID: uint16(tid), timeoutGen: r.U64(), timeoutLabel: Label(r.U64())}
		var err error
		if th.State, err = r.Gob(); err != nil {
			return nil, fmt.Errorf("lane %d thread %d state: %w (register concrete state types with gob.Register)",
				l.id, tid, err)
		}
		threads = append(threads, th)
		live++
	}
	nfree := r.U64()
	if r.Err() == nil && nfree > uint64(NewThreadTID) {
		return nil, fmt.Errorf("lane %d: implausible free-TID count %d", l.id, nfree)
	}
	var freeTIDs []uint16
	for i := uint64(0); i < nfree && r.Err() == nil; i++ {
		freeTIDs = append(freeTIDs, uint16(r.U64()))
	}
	nslots := r.U64()
	if r.Err() == nil && nslots > uint64(len(l.p.slotTypes)) {
		return nil, fmt.Errorf("lane %d: %d slots, the program declares %d", l.id, nslots, len(l.p.slotTypes))
	}
	var slots []unsafe.Pointer
	for i := uint64(0); i < nslots && r.Err() == nil; i++ {
		v, err := r.Gob()
		if err != nil {
			return nil, fmt.Errorf("lane %d slot %d: %w", l.id, i, err)
		}
		var p unsafe.Pointer
		if v != nil {
			if want := l.p.slotTypes[i]; reflect.TypeOf(v) != want {
				return nil, &sim.RestoreError{Kind: sim.RestoreShapeMismatch,
					Detail: fmt.Sprintf("lane %d slot %d holds a %T, this program's slot holds a %v", l.id, i, v, want)}
			}
			p = reflect.ValueOf(v).UnsafePointer()
		}
		slots = append(slots, p)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() {
		l.timerGen, l.threads, l.live, l.pool, l.freeTIDs, l.slots = timerGen, threads, live, nil, freeTIDs, slots
	}, nil
}
