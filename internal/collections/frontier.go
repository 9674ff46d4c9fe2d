package collections

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// Frontier is the BFS frontier structure of Section 4.2: one segment of
// global memory per accelerator, double-buffered by round parity, with the
// segment's occupancy count held in the accelerator master's scratchpad.
// Any lane of an accelerator appends to its own accelerator's segment by
// sending an append event to the accelerator master, which assigns the
// slot atomically (events are atomic) and writes the value.
//
// The storage is one contiguous DRAMmalloc chunk per node the lane set
// touches, allocated on that node and holding the segments of the set's
// accelerators there, so each segment is node-local to the lanes that
// append to it and read it — the data-placement flexibility the paper
// highlights for BFS.
type Frontier struct {
	p      *udweave.Program
	name   string
	slot   udweave.Slot[frontierLaneState]
	lanes  kvmsr.LaneSet
	segCap int

	// seg[a] is accelerator a's parity-0 segment; parity 1 follows it.
	seg []gasmem.VA

	lAppend udweave.Label
}

// frontierLaneState holds the per-parity counts on each accel master.
type frontierLaneState struct {
	count [2]int
}

// NewFrontier registers the structure. The lane set must start on an
// accelerator boundary and span whole accelerators. segCap is the slot
// capacity of one accelerator's segment.
func NewFrontier(p *udweave.Program, name string, lanes kvmsr.LaneSet, segCap int) (*Frontier, error) {
	if err := lanes.Validate(p.M); err != nil {
		return nil, err
	}
	lpa := p.M.LanesPerAccel
	if int(lanes.First)%lpa != 0 || lanes.Count%lpa != 0 {
		return nil, fmt.Errorf("collections: %s: lane set must be accelerator aligned", name)
	}
	if segCap <= 0 {
		return nil, fmt.Errorf("collections: %s: segCap must be positive", name)
	}
	f := &Frontier{p: p, name: name, slot: udweave.NewSlot[frontierLaneState](p), lanes: lanes, segCap: segCap}
	f.lAppend = p.Define(name+".append", f.append)
	return f, nil
}

// Accels returns the number of accelerator segments.
func (f *Frontier) Accels() int { return f.lanes.Count / f.p.M.LanesPerAccel }

// Alloc reserves the double-buffered segment storage: for each node the
// lane set touches, one chunk on that node holding the segments of the
// set's accelerators there, back to back. Storage never leaves the set's
// nodes, so concurrently scheduled jobs on disjoint partitions never share
// a memory controller.
func (f *Frontier) Alloc(gas *gasmem.GAS) error {
	lpn, lpa := f.p.M.LanesPerNode(), f.p.M.LanesPerAccel
	segBytes := 2 * uint64(f.segCap) * gasmem.WordBytes
	f.seg = make([]gasmem.VA, f.Accels())
	for a := 0; a < len(f.seg); {
		master := f.MasterOfAccel(a)
		n := min(len(f.seg)-a, (lpn-master%lpn)/lpa) // the set's accelerators on master's node
		va, err := gas.DRAMmalloc(uint64(n)*segBytes, master/lpn, 1, 4096)
		if err != nil {
			return err
		}
		for i := range n {
			f.seg[a+i] = va + uint64(i)*segBytes
		}
		a += n
	}
	return nil
}

// AccelOfLane returns the set-relative accelerator index of a lane.
func (f *Frontier) AccelOfLane(lane int) int {
	return (lane - int(f.lanes.First)) / f.p.M.LanesPerAccel
}

// MasterOfAccel returns the accel master lane for a set-relative index.
func (f *Frontier) MasterOfAccel(accel int) int {
	return int(f.lanes.First) + accel*f.p.M.LanesPerAccel
}

// SegmentVA returns the storage of one accelerator's segment for a parity.
func (f *Frontier) SegmentVA(accel int, parity int) gasmem.VA {
	return f.seg[accel] + uint64(parity&1)*uint64(f.segCap)*gasmem.WordBytes
}

// Append adds value to the appending lane's own accelerator segment for
// the given parity. ackCont (may be IGNRCONT) receives the acknowledgment
// after the value is durably written — callers that participate in KVMSR
// termination must wait for it before calling ReduceDone, so that a
// completed round implies a fully written next frontier.
func (f *Frontier) Append(c *udweave.Ctx, parity int, value uint64, ackCont uint64) {
	accel := f.AccelOfLane(int(c.NetworkID()))
	master := arch.NetworkID(f.MasterOfAccel(accel))
	c.Cycles(3)
	c.SendEvent(udweave.EvwNew(master, f.lAppend), ackCont, uint64(parity&1), value)
}

// append runs on the accel master: assign the slot, write, forward the ack.
func (f *Frontier) append(c *udweave.Ctx) {
	st := f.st(c)
	parity := int(c.Op(0))
	accel := f.AccelOfLane(int(c.NetworkID()))
	slot := st.count[parity]
	if slot >= f.segCap {
		panic(fmt.Sprintf("collections: %s: accel %d segment overflow (cap %d)", f.name, accel, f.segCap))
	}
	st.count[parity]++
	c.ScratchAccess(2)
	c.Cycles(4)
	va := f.SegmentVA(accel, parity) + uint64(slot)*gasmem.WordBytes
	// The DRAM write acknowledgment goes straight to the appender's
	// continuation.
	c.DRAMWrite(va, c.Cont(), c.Op(1))
	c.YieldTerminate()
}

func (f *Frontier) st(c *udweave.Ctx) *frontierLaneState { return f.slot.Get(c) }

// Count returns this accel master's segment occupancy for a parity; it
// must be called from an event executing on the accel master.
func (f *Frontier) Count(c *udweave.Ctx, parity int) int {
	c.ScratchAccess(1)
	return f.st(c).count[parity&1]
}

// Reset clears the count for a parity (after the segment is consumed).
func (f *Frontier) Reset(c *udweave.Ctx, parity int) {
	c.ScratchAccess(1)
	f.st(c).count[parity&1] = 0
}

// HostSeed writes initial values into a segment before simulation (the
// BFS root's members). The segment's count stays zero: the application's
// first task on that accelerator knows how many it seeded.
func (f *Frontier) HostSeed(gas *gasmem.GAS, accel, parity int, values []uint32) {
	for i, v := range values {
		gas.WriteU64(f.SegmentVA(accel, parity)+uint64(i)*gasmem.WordBytes, uint64(v))
	}
}
