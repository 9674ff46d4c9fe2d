// Package collections provides the scalable data abstractions the paper's
// applications build on (Table 3, bottom): the combining cache that
// implements software fetch-and-add, the scalable hash table (SHT), and
// the distributed frontier used by BFS. All of them are written against
// the udweave runtime, so their coordination costs are simulated.
package collections

import (
	"fmt"

	"updown/internal/gasmem"
	"updown/internal/udweave"
)

// CombiningCache implements the paper's software fetch-and-add (footnote 1
// in Section 4.1): updates to global-memory accumulators are combined in
// the owning lane's scratchpad and, for a counted key, handed to the caller
// the moment its last expected update arrives.
//
// Correctness requires exclusive ownership: all updates to a given address
// must be performed on one lane, which the KVMSR reduce bindings guarantee
// (a key always reduces on the same lane). Under that discipline, Count is
// a purely local scratchpad operation.
//
// The combining operation can be any associative, commutative function
// over the 64-bit word (integer add, float add on the bit pattern, max).
type CombiningCache struct {
	name string
	slot udweave.Slot[ccLaneState]
	op   func(acc, v uint64) uint64
}

// ccLaneState is the per-lane cache.
type ccLaneState struct {
	acc map[gasmem.VA]counted
}

// counted is one cached accumulator: the combined value and, for a
// counted key (Count), the updates in, those expected (0: unknown) and a
// tag.
type counted struct{ acc, n, want, tag uint64 }

// NewCombiningCache registers a cache with the program; op combines
// updates, e.g. AddF64. It defines no event.
func NewCombiningCache(p *udweave.Program, name string, op func(acc, v uint64) uint64) *CombiningCache {
	return &CombiningCache{name: name, slot: udweave.NewSlot[ccLaneState](p), op: op}
}

// AddF64 combines float64 bit patterns by addition.
func AddF64(acc, v uint64) uint64 {
	return udweave.FloatBits(udweave.BitsFloat(acc) + udweave.BitsFloat(v))
}

func (cc *CombiningCache) st(c *udweave.Ctx) *ccLaneState {
	st := cc.slot.Get(c)
	if st.acc == nil {
		st.acc = make(map[gasmem.VA]counted)
	}
	return st
}

// Count takes one call for the counted key at va. With want == 0 it
// combines v into va's accumulator as one of the updates va expects; with
// want > 0 it sets how many that is, and a tag word returned with the
// value, before or after they arrive (v is then ignored). Once they have
// all arrived, done reports it: the entry is gone, and sum and tagged are
// its value and tag. It costs a few scratchpad accesses and sends no
// messages.
func (cc *CombiningCache) Count(c *udweave.Ctx, va gasmem.VA, v, want, tag uint64) (sum, tagged uint64, done bool) {
	st := cc.st(c)
	c.ScratchAccess(2)
	c.Cycles(4)
	p, ok := st.acc[va]
	if want > 0 {
		p.want, p.tag = want, tag
	} else {
		if p.n > 0 {
			v = cc.op(p.acc, v)
		}
		p.acc, p.n = v, p.n+1
	}
	if p.want == 0 || p.n < p.want {
		st.acc[va] = p
		return 0, 0, false
	}
	if p.n > p.want {
		panic(fmt.Sprintf("collections: %s: %d updates for %#x, which expects %d", cc.name, p.n, va, p.want))
	}
	if ok {
		delete(st.acc, va)
	}
	return p.acc, p.tag, true
}

// Pending returns the number of accumulators cached on a lane, given its
// actor, read host-side at a quiesced point.
func (cc *CombiningCache) Pending(lane any) int {
	if st := cc.slot.Peek(lane); st != nil {
		return len(st.acc)
	}
	return 0
}
