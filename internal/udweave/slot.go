package udweave

import (
	"fmt"
	"reflect"
	"unsafe"

	"updown/internal/arch"
)

// Lane state lives in slots (the paper's spMalloc, Table 5). A slot is one
// typed variable that every lane of the program may keep in its 64 KiB
// scratchpad: libraries and apps declare theirs at program construction,
// and a lane's first Get lays out a zero value there, charging the type's
// size to the lane. A Get that would take the lane's slots past
// arch.Machine.ScratchBytesPerLane panics with a *ScratchOverflowError. The
// layout is static, as a UDWeave compiler assigns it, so a Get costs no
// simulated cycles. Retire clears a scope's slots on every lane, which
// returns their bytes.

// Slot is a lane-local variable of type T.
type Slot[T any] struct{ i int }

// NewSlot declares a slot of p, reusing a retired one first. Call during
// program construction; inside a Begin/End scope the slot is recycled when
// the scope is retired.
func NewSlot[T any](p *Program) Slot[T] {
	s, t := len(p.slotTypes), reflect.TypeFor[*T]()
	if n := len(p.freeSlots); n > 0 {
		s, p.freeSlots = p.freeSlots[n-1], p.freeSlots[:n-1]
		p.slotTypes[s] = t
	} else {
		p.slotTypes = append(p.slotTypes, t)
	}
	if p.scope != nil {
		p.scope.slots = append(p.scope.slots, s)
	}
	return Slot[T]{s}
}

// Get returns the executing lane's value of the slot, zero on the lane's
// first Get.
func (s Slot[T]) Get(c *Ctx) *T {
	if l := c.lane; s.i < len(l.slots) && l.slots[s.i] != nil {
		return (*T)(l.slots[s.i])
	}
	return s.place(c.lane)
}

// place lays out the lane's zero value on its first Get.
func (s Slot[T]) place(l *Lane) *T {
	v := new(T)
	bytes, held, limit := int(unsafe.Sizeof(*v)), l.scratchBytes(), l.p.M.ScratchBytesPerLane
	if held+bytes > limit {
		panic(&ScratchOverflowError{Lane: l.id, Type: reflect.TypeFor[T]().String(), Bytes: bytes, Held: held, Cap: limit})
	}
	for len(l.slots) <= s.i {
		l.slots = append(l.slots, nil)
	}
	l.slots[s.i] = unsafe.Pointer(v)
	return v
}

// Peek reads the slot on actor, a lane of the slot's program, host-side at
// a quiesced point: nil when actor is not a lane or never used the slot.
func (s Slot[T]) Peek(actor any) *T {
	if l, _ := actor.(*Lane); l != nil && s.i < len(l.slots) {
		return (*T)(l.slots[s.i])
	}
	return nil
}

// scratchBytes sums the sizes of the lane's slot values.
func (l *Lane) scratchBytes() int {
	n := 0
	for i, v := range l.slots {
		if v != nil {
			n += int(l.p.slotTypes[i].Elem().Size())
		}
	}
	return n
}

// FullestLane returns the lane whose slots hold the most bytes, and that
// count (the lowest lane ID on a tie; 0 bytes before any Get). Host-side,
// engine quiesced.
func (p *Program) FullestLane() (lane arch.NetworkID, held int) {
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	for _, l := range p.lanes {
		if n := l.scratchBytes(); n > held || n == held && n > 0 && l.id < lane {
			lane, held = l.id, n
		}
	}
	return lane, held
}

// ScratchOverflowError is the panic value of a Get whose slot does not fit
// in the lane's scratchpad: a Bytes-byte value of Type on top of the Held
// bytes of the lane's other slots would exceed its Cap.
type ScratchOverflowError struct {
	Lane             arch.NetworkID
	Type             string
	Bytes, Held, Cap int
}

func (e *ScratchOverflowError) Error() string {
	return fmt.Sprintf("udweave: lane %d scratchpad overflow: a %d-byte %s slot on top of %d held bytes exceeds %d", e.Lane, e.Bytes, e.Type, e.Held, e.Cap)
}
