// Package collections provides the scalable data abstractions the paper's
// applications build on (Table 3, bottom): the combining cache that
// implements software fetch-and-add, the scalable hash table (SHT), and
// the distributed frontier used by BFS. All of them are written against
// the udweave runtime, so their coordination costs are simulated.
package collections

import (
	"fmt"
	"slices"

	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// CombiningCache implements the paper's software fetch-and-add (footnote 1
// in Section 4.1): updates to global-memory accumulators are combined in
// the owning lane's scratchpad, then either written back to DRAM in a flush
// phase or, for a counted key, handed to the caller the moment its last
// expected update arrives.
//
// Correctness requires exclusive ownership: all updates to a given address
// must be performed on one lane, which the KVMSR reduce bindings guarantee
// (a key always reduces on the same lane). Under that discipline, Add and
// Count are purely local scratchpad operations and the flush is a
// race-free read-modify-write. A cache made by NewFlushingCache owns its
// drain: FlushAll runs Flush on every lane of its lane set as one doAll.
//
// The combining operation can be any associative, commutative function
// over the 64-bit word (integer add, float add on the bit pattern, max).
type CombiningCache struct {
	name string
	slot udweave.Slot[ccLaneState]
	op   func(acc, v uint64) uint64

	// drain is the doAll whose key i flushes lane i of the set; nil
	// unless NewFlushingCache made the cache.
	drain *kvmsr.Invocation

	lFlushRead, lFlushWrite, lFlushDone, lFlushed udweave.Label
}

// maxFlushWindow bounds in-flight flush write-backs per lane.
const maxFlushWindow = 64

// ccLaneState is the per-lane cache.
type ccLaneState struct {
	acc map[gasmem.VA]counted

	// flush machinery
	pendingVAs  []gasmem.VA
	nextFlush   int
	outstanding int
	flushCont   uint64
}

// counted is one cached accumulator: the combined value and, for a
// counted key (Count), the updates in, those expected (0: unknown) and a
// tag.
type counted struct{ acc, n, want, tag uint64 }

// flushEntry is the thread state of one in-flight write-back.
type flushEntry struct {
	va    gasmem.VA
	delta uint64
}

// NewCombiningCache registers a cache with the program; op combines
// updates, e.g. AddU64 or AddF64. It defines no event.
func NewCombiningCache(p *udweave.Program, name string, op func(acc, v uint64) uint64) *CombiningCache {
	return &CombiningCache{name: name, slot: udweave.NewSlot[ccLaneState](p), op: op}
}

// NewFlushingCache is NewCombiningCache plus the write-back to memory (op
// also combines a delta with the value there) and the doAll that drains
// the cache over lanes.
func NewFlushingCache(p *udweave.Program, name string, op func(acc, v uint64) uint64,
	lanes kvmsr.LaneSet) (*CombiningCache, error) {
	cc := NewCombiningCache(p, name, op)
	cc.lFlushRead = p.Define(name+".flush_read", cc.flushRead)
	cc.lFlushWrite = p.Define(name+".flush_write", cc.flushWrite)
	cc.lFlushDone = p.Define(name+".flush_done", cc.flushDone)
	body := p.Define(name+".flush", cc.flushBody)
	cc.lFlushed = p.Define(name+".flushed", cc.flushed)
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
		st.acc = make(map[gasmem.VA]counted)
	}
	return st
}

// Add combines v into the lane-local accumulator for va. It costs a few
// scratchpad accesses and sends no messages.
func (cc *CombiningCache) Add(c *udweave.Ctx, va gasmem.VA, v uint64) { cc.Count(c, va, v, 1, 0, 0) }

// Count combines v into va's accumulator as n of the updates va expects;
// want > 0 sets how many that is, and a tag word returned with the value,
// before or after they arrive. Once they have all arrived, done reports it:
// the entry is gone, and sum and tagged are its value and tag. Like Add,
// it costs a few scratchpad accesses and sends no messages.
func (cc *CombiningCache) Count(c *udweave.Ctx, va gasmem.VA, v, n, want, tag uint64) (sum, tagged uint64, done bool) {
	st := cc.st(c)
	c.ScratchAccess(2)
	c.Cycles(4)
	p, ok := st.acc[va]
	if n > 0 {
		if p.n > 0 {
			v = cc.op(p.acc, v)
		}
		p.acc, p.n = v, p.n+n
	}
	if want > 0 {
		p.want, p.tag = want, tag
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

// FlushAll drains every lane's cache (a doAll of Flush over the lane set)
// and then replies to cont. The cache must come from NewFlushingCache.
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
	if cc.drain == nil {
		panic(fmt.Sprintf("collections: %s: Flush on a cache made without NewFlushingCache", cc.name))
	}
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
		c.SendEvent(udweave.EvwNew(self, cc.lFlushRead), udweave.IGNRCONT, va, st.acc[va].acc)
	}
	if st.outstanding == 0 && st.nextFlush >= len(st.pendingVAs) {
		cont := st.flushCont
		st.flushCont = 0
		st.acc = make(map[gasmem.VA]counted)
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
	c.Cycles(4)
	c.DRAMWrite(e.va, c.ContinueTo(cc.lFlushDone), cc.op(c.Op(0), e.delta))
}

// flushDone retires one write-back and refills the window.
func (cc *CombiningCache) flushDone(c *udweave.Ctx) {
	st := cc.st(c)
	st.outstanding--
	cc.pump(c, st)
	c.YieldTerminate()
}
