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
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"unsafe"

	"updown/internal/sim"
	"updown/internal/snap"
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

// Snapshot implements sim.Snapshotter for a lane. The recycled thread
// pool is not part of the snapshot: pooling is an allocation optimization
// with no observable effect, so the restored lane starts with an empty
// pool. A slot value whose type is not the slot's is a *sim.RestoreError of
// kind RestoreShapeMismatch: the checkpoint came from another program.
func (l *Lane) Snapshot(c *snap.Codec) (commit func(), err error) {
	version := uint8(laneSnapVersion)
	if snap.W8(c, &version); version != laneSnapVersion {
		c.Failf("lane %d: snapshot version %d, this build reads %d", l.id, version, laneSnapVersion)
	}
	timerGen, threads, freeTIDs, slots := l.timerGen, l.threads, l.freeTIDs, l.slots
	c.U64(&timerGen)
	live := 0
	snap.List(c, &threads, uint64(NewThreadTID), func(tid int, th **Thread) {
		alive := *th != nil
		if c.Bool(&alive); !alive {
			return
		}
		if c.Reading() {
			*th = &Thread{TID: uint16(tid)}
			live++
		}
		c.U64(&(*th).timeoutGen)
		snap.W64(c, &(*th).timeoutLabel)
		l.codeGob(c, &(*th).State, "thread %d state", tid)
	})
	snap.List(c, &freeTIDs, uint64(NewThreadTID), func(_ int, t *uint16) { snap.W64(c, t) })
	snap.List(c, &slots, uint64(len(l.p.slotTypes)), func(i int, p *unsafe.Pointer) {
		var v any
		if *p != nil {
			v = reflect.NewAt(l.p.slotTypes[i].Elem(), *p).Interface()
		}
		if l.codeGob(c, &v, "slot %d", i); !c.Reading() || v == nil || c.Err() != nil {
			return
		}
		if want := l.p.slotTypes[i]; reflect.TypeOf(v) != want {
			c.Fail(&sim.RestoreError{Kind: sim.RestoreShapeMismatch,
				Detail: fmt.Sprintf("lane %d slot %d holds a %T, this program's slot holds a %v", l.id, i, v, want)})
			return
		}
		*p = reflect.ValueOf(v).UnsafePointer()
	})
	if !c.Reading() {
		return func() {}, c.Err()
	}
	return func() {
		l.timerGen, l.threads, l.live, l.pool, l.freeTIDs, l.slots = timerGen, threads, live, nil, freeTIDs, slots
	}, c.Err()
}

// codeGob codes *v as a length-prefixed, self-contained gob encoding, or a
// zero length for nil. Concrete types reached through interfaces must be
// registered with gob.Register; one gob cannot encode is a
// *NotQuiescentError naming what (a format of i).
func (l *Lane) codeGob(c *snap.Codec, v *any, what string, i int) {
	var data []byte
	if !c.Reading() && *v != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			c.Fail(&NotQuiescentError{Lane: int32(l.id), What: fmt.Sprintf(what, i), Err: err})
		}
		data = buf.Bytes()
	}
	c.Bytes(&data, 1<<30)
	if c.Reading() && len(data) > 0 && c.Err() == nil {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
			c.Failf("lane %d %s: %w (register concrete types with gob.Register)", l.id, fmt.Sprintf(what, i), err)
		}
	}
}
