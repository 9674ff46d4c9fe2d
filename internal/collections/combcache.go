// Package collections provides the scalable data abstractions the paper's
// applications build on (Table 3, bottom): the combining cache that
// implements software fetch-and-add, the scalable hash table (SHT), and
// the distributed frontier used by BFS. All of them are written against
// the udweave runtime, so their coordination costs are simulated.
package collections

import (
	"fmt"
	"slices"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// CombiningCache implements the paper's software fetch-and-add (footnote 1
// in Section 4.1): updates to global-memory accumulators are combined in
// the owning lane's scratchpad, then either written back to DRAM in a flush
// phase or taken one address at a time by whoever consumes the total.
//
// Correctness requires exclusive ownership: all updates to a given address
// must be performed on one lane, which the KVMSR reduce bindings guarantee
// (a key always reduces on the same lane). Under that discipline, Add is a
// purely local scratchpad operation, the flush is a race-free
// read-modify-write, and Take asks the one lane that can hold an address.
// The cache owns its drain: FlushAll runs Flush on every lane of its lane
// set as one doAll.
//
// The combining operation can be any associative, commutative function
// over the 64-bit word (integer add, float add on the bit pattern, max).
type CombiningCache struct {
	p    *udweave.Program
	name string
	slot udweave.Slot[ccLaneState]
	op   func(acc, v uint64) uint64

	// drain is the doAll whose key i flushes lane i of the set.
	drain *kvmsr.Invocation

	lFlushRead  udweave.Label
	lFlushWrite udweave.Label
	lFlushDone  udweave.Label
	lFlushed    udweave.Label
	lTake       udweave.Label
}

// maxFlushWindow bounds in-flight flush write-backs per lane.
const maxFlushWindow = 64

// ccLaneState is the per-lane cache.
type ccLaneState struct {
	acc map[gasmem.VA]uint64

	// flush machinery
	pendingVAs  []gasmem.VA
	nextFlush   int
	outstanding int
	flushCont   uint64
}

// flushEntry is the thread state of one in-flight write-back.
type flushEntry struct {
	va    gasmem.VA
	delta uint64
}

// NewCombiningCache registers a cache with the program, and the doAll
// that drains it over lanes. op combines the accumulated delta with the
// value in memory during flush (and deltas with each other locally), e.g.
// AddU64 or AddF64.
func NewCombiningCache(p *udweave.Program, name string, op func(acc, v uint64) uint64,
	lanes kvmsr.LaneSet) (*CombiningCache, error) {
	cc := &CombiningCache{p: p, name: name, slot: udweave.NewSlot[ccLaneState](p), op: op}
	cc.lFlushRead = p.Define(name+".flush_read", cc.flushRead)
	cc.lFlushWrite = p.Define(name+".flush_write", cc.flushWrite)
	cc.lFlushDone = p.Define(name+".flush_done", cc.flushDone)
	body := p.Define(name+".flush", cc.flushBody)
	cc.lFlushed = p.Define(name+".flushed", cc.flushed)
	cc.lTake = p.Define(name+".take", cc.take)
	var err error
	// Key i of the drain is lane i: Block, whatever the caller's bindings.
	cc.drain, err = kvmsr.New(p, kvmsr.Spec{Name: name + ".flushall", NumKeys: uint64(lanes.Count), MapEvent: body, Lanes: lanes})
	return cc, err
}

// AddU64 is the integer-add combiner.
func AddU64(acc, v uint64) uint64 { return acc + v }

// AddF64 combines float64 bit patterns by addition.
func AddF64(acc, v uint64) uint64 {
	return udweave.FloatBits(udweave.BitsFloat(acc) + udweave.BitsFloat(v))
}

// MaxU64 is the integer-max combiner.
func MaxU64(acc, v uint64) uint64 {
	if v > acc {
		return v
	}
	return acc
}

func (cc *CombiningCache) st(c *udweave.Ctx) *ccLaneState {
	st := cc.slot.Get(c)
	if st.acc == nil {
		st.acc = make(map[gasmem.VA]uint64)
	}
	return st
}

// Add combines v into the lane-local accumulator for va. It costs a few
// scratchpad accesses and sends no messages.
func (cc *CombiningCache) Add(c *udweave.Ctx, va gasmem.VA, v uint64) {
	st := cc.st(c)
	c.ScratchAccess(2)
	c.Cycles(4)
	if acc, ok := st.acc[va]; ok {
		st.acc[va] = cc.op(acc, v)
	} else {
		st.acc[va] = v
	}
}

// Take sends one message to owner, the lane that combines va's updates,
// whose handler removes va's accumulator and replies to cont with its
// value, or 0 when it holds none.
func (cc *CombiningCache) Take(c *udweave.Ctx, owner arch.NetworkID, va gasmem.VA, cont uint64) {
	c.Cycles(2)
	c.SendEvent(udweave.EvwNew(owner, cc.lTake), cont, va)
}

// take is Take's handler on the owning lane.
func (cc *CombiningCache) take(c *udweave.Ctx) {
	st := cc.st(c)
	va := c.Op(0)
	v := st.acc[va]
	delete(st.acc, va)
	c.ScratchAccess(2)
	c.Cycles(3)
	c.Reply(c.Cont(), v)
	c.YieldTerminate()
}

// Pending returns the number of accumulators cached on a lane, given its
// actor, read host-side at a quiesced point.
func (cc *CombiningCache) Pending(lane any) int {
	if st := cc.slot.Peek(lane); st != nil {
		return len(st.acc)
	}
	return 0
}

// FlushAll drains every lane's cache (a doAll of Flush over the lane set)
// and then replies to cont.
func (cc *CombiningCache) FlushAll(c *udweave.Ctx, cont uint64) {
	cc.drain.Launch(c, cc.drain.Spec().NumKeys, cont)
}

// flushBody is the drain's map task: one lane's Flush.
func (cc *CombiningCache) flushBody(c *udweave.Ctx) {
	c.SetState(c.Cont())
	cc.Flush(c, c.ContinueTo(cc.lFlushed))
}

func (cc *CombiningCache) flushed(c *udweave.Ctx) {
	cc.drain.Return(c, c.State().(uint64))
	c.YieldTerminate()
}

// Flush writes this lane's accumulators back to global memory
// (read-modify-write per entry, windowed), then replies to doneCont.
// FlushAll runs one per lane. Flushing an empty cache replies immediately.
func (cc *CombiningCache) Flush(c *udweave.Ctx, doneCont uint64) {
	st := cc.st(c)
	if st.flushCont != 0 {
		panic(fmt.Sprintf("collections: %s: concurrent Flush on lane %d", cc.name, c.NetworkID()))
	}
	// Deterministic flush order: VAs were inserted in deterministic
	// event order, but Go map iteration is randomized, so materialize
	// and sort.
	st.pendingVAs = st.pendingVAs[:0]
	for va := range st.acc {
		st.pendingVAs = append(st.pendingVAs, va)
	}
	slices.Sort(st.pendingVAs)
	st.nextFlush = 0
	st.outstanding = 0
	st.flushCont = doneCont
	c.Cycles(6 + len(st.pendingVAs))
	cc.pump(c, st)
}

func (cc *CombiningCache) pump(c *udweave.Ctx, st *ccLaneState) {
	self := c.NetworkID()
	for st.outstanding < maxFlushWindow && st.nextFlush < len(st.pendingVAs) {
		va := st.pendingVAs[st.nextFlush]
		st.nextFlush++
		st.outstanding++
		c.Cycles(3)
		// One thread per entry: read the memory value, combine, write.
		c.SendEvent(udweave.EvwNew(self, cc.lFlushRead), udweave.IGNRCONT, va, st.acc[va])
	}
	if st.outstanding == 0 && st.nextFlush >= len(st.pendingVAs) {
		cont := st.flushCont
		st.flushCont = 0
		st.acc = make(map[gasmem.VA]uint64)
		st.pendingVAs = st.pendingVAs[:0]
		c.Cycles(4)
		c.Reply(cont)
	}
}

// flushRead starts one entry's read-modify-write.
func (cc *CombiningCache) flushRead(c *udweave.Ctx) {
	c.SetState(&flushEntry{va: c.Op(0), delta: c.Op(1)})
	c.DRAMRead(c.Op(0), 1, c.ContinueTo(cc.lFlushWrite))
}

// flushWrite combines and writes back, waiting for the acknowledgment so
// that the flush-done signal cannot race ahead of in-flight writes.
func (cc *CombiningCache) flushWrite(c *udweave.Ctx) {
	e := c.State().(*flushEntry)
	combined := cc.op(c.Op(0), e.delta)
	c.Cycles(4)
	c.DRAMWrite(e.va, c.ContinueTo(cc.lFlushDone), combined)
}

// flushDone retires one write-back and refills the window.
func (cc *CombiningCache) flushDone(c *udweave.Ctx) {
	st := cc.st(c)
	st.outstanding--
	cc.pump(c, st)
	c.YieldTerminate()
}
