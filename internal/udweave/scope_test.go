package udweave_test

import (
	"testing"

	"updown/internal/udweave"
)

// TestScopeRecycling checks that retiring a scope returns its labels and
// slots for reuse, that the retired slots' bytes leave the lanes' scratchpad,
// and that a recycled slot reads as a zero value again on a lane that had
// set it.
func TestScopeRecycling(t *testing.T) {
	r := newRig(t, 1)
	free0 := r.prog.FreeLabels()

	var slot udweave.Slot[int]
	sc := r.prog.Begin("job-a")
	lSet := r.prog.Define("a.set", func(c *udweave.Ctx) {
		*slot.Get(c) = 7
		c.YieldTerminate()
	})
	slot = udweave.NewSlot[int](r.prog)
	r.prog.End()

	if got := r.prog.FreeLabels(); got != free0-1 {
		t.Fatalf("FreeLabels after Define = %d, want %d", got, free0-1)
	}

	// Set the slot on lane 0, then retire the scope.
	r.start(udweave.EvwNew(0, lSet))
	r.run(t)
	if lane, held := r.prog.FullestLane(); lane != 0 || held != 8 {
		t.Fatalf("FullestLane = lane %d with %d bytes, want lane 0 with 8", lane, held)
	}
	r.prog.Retire(sc)
	if got := r.prog.FreeLabels(); got != free0 {
		t.Fatalf("FreeLabels after Retire = %d, want %d", got, free0)
	}
	if lane, held := r.prog.FullestLane(); held != 0 {
		t.Fatalf("lane %d still holds %d slot bytes after Retire", lane, held)
	}

	// The next scope must reuse the same label and slot, and the slot
	// must read as a zero value again.
	got := make(chan int, 1)
	sc2 := r.prog.Begin("job-b")
	var slot2 udweave.Slot[int]
	lCheck := r.prog.Define("b.check", func(c *udweave.Ctx) {
		got <- *slot2.Get(c)
		c.YieldTerminate()
	})
	slot2 = udweave.NewSlot[int](r.prog)
	r.prog.End()
	if lCheck != lSet {
		t.Errorf("recycled label = %d, want %d", lCheck, lSet)
	}
	if slot2 != slot {
		t.Errorf("recycled slot = %v, want %v", slot2, slot)
	}
	r.start(udweave.EvwNew(0, lCheck))
	r.run(t)
	if v := <-got; v != 0 {
		t.Errorf("recycled slot still held the retired scope's value %d", v)
	}
	r.prog.Retire(sc2)
}

// TestScopeMisuse checks the guard panics: nested Begin, End without
// Begin, double Retire, and Retire of an open scope.
func TestScopeMisuse(t *testing.T) {
	r := newRig(t, 1)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}

	sc := r.prog.Begin("open")
	expectPanic("nested Begin", func() { r.prog.Begin("inner") })
	expectPanic("Retire open scope", func() { r.prog.Retire(sc) })
	r.prog.End()
	expectPanic("End without Begin", func() { r.prog.End() })
	r.prog.Retire(sc)
	expectPanic("double Retire", func() { r.prog.Retire(sc) })
}
