package udweave_test

import (
	"errors"
	"slices"
	"testing"

	"updown/internal/arch"
	"updown/internal/udweave"
)

// TestSlotGet: a lane's first Get of a slot is the zero value, the lane's
// threads then share it, and every other lane has its own.
func TestSlotGet(t *testing.T) {
	r := newRig(t, 1)
	slot := udweave.NewSlot[int](r.prog)
	seen := map[arch.NetworkID][]int{}
	ev := r.prog.Define("count", func(c *udweave.Ctx) {
		v := slot.Get(c)
		seen[c.NetworkID()] = append(seen[c.NetworkID()], *v)
		*v++
		c.YieldTerminate()
	})
	l0, l1, idle := r.m.LaneID(0, 0, 0), r.m.LaneID(0, 0, 1), r.m.LaneID(0, 0, 2)
	r.start(udweave.EvwNew(l0, ev))
	r.start(udweave.EvwNew(l0, ev))
	r.start(udweave.EvwNew(l1, ev))
	r.run(t)
	if !slices.Equal(seen[l0], []int{0, 1}) || !slices.Equal(seen[l1], []int{0}) {
		t.Fatalf("lane %d read %v, lane %d read %v; want [0 1] and [0]", l0, seen[l0], l1, seen[l1])
	}
	if v := slot.Peek(r.eng.PeekActor(l0)); v == nil || *v != 2 {
		t.Errorf("Peek(lane %d) = %v, want 2", l0, v)
	}
	if v := slot.Peek(r.eng.PeekActor(idle)); v != nil {
		t.Errorf("Peek of a lane that never ran = %v, want nil", *v)
	}
}

// TestSlotScratchCapacity: slots fill a lane's scratchpad to exactly
// ScratchBytesPerLane, and one byte more panics with the typed error.
func TestSlotScratchCapacity(t *testing.T) {
	r := newRig(t, 1)
	if r.m.ScratchBytesPerLane != 64<<10 {
		t.Fatalf("scratchpad of %d bytes, the test fills 64 KiB", r.m.ScratchBytesPerLane)
	}
	big := udweave.NewSlot[[48 << 10]byte](r.prog)
	rest := udweave.NewSlot[[16 << 10]byte](r.prog)
	one := udweave.NewSlot[byte](r.prog)
	full := false
	ev := r.prog.Define("fill", func(c *udweave.Ctx) {
		big.Get(c)
		rest.Get(c)
		full = true
		one.Get(c)
	})
	lane := r.m.LaneID(0, 0, 0)
	r.start(udweave.EvwNew(lane, ev))
	defer func() {
		err, _ := recover().(error)
		var oe *udweave.ScratchOverflowError
		if !errors.As(err, &oe) {
			t.Fatalf("panic %v, want a *ScratchOverflowError", err)
		}
		want := udweave.ScratchOverflowError{Lane: lane, Type: "uint8", Bytes: 1, Held: 64 << 10, Cap: 64 << 10}
		if !full || *oe != want {
			t.Fatalf("filled to the cap: %v; overflow %+v, want %+v", full, *oe, want)
		}
	}()
	r.eng.Run() //nolint:errcheck
	t.Fatal("the 65,537th scratchpad byte did not panic")
}
