package collections

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// Shmem is the paper's SHMEM library (Table 3: "SHMEM Library", Table 5:
// "SHMEM (put/get, reductions)"): symmetric data objects — every lane of a
// set owns an identically-sized block of a global allocation — with
// one-sided put/get, a barrier, and an all-reduce sum. The symmetric
// layout leverages DRAMmalloc's translation-supported placement: the
// region is carved so each lane's block lands on its own node when the
// set covers whole nodes.
type Shmem struct {
	p     *udweave.Program
	lanes kvmsr.LaneSet
	words int

	base gasmem.VA

	barrierInv *kvmsr.Invocation
	reduceInv  *kvmsr.Invocation

	lBarrierBody udweave.Label
	lReduceBody  udweave.Label
	lReduceRead  udweave.Label
	lSum         udweave.Label
	lSumWritten  udweave.Label
	sumSlot      udweave.Slot[shmemSumState]

	// resultVA holds the all-reduce result.
	resultVA gasmem.VA
}

// shmemSumState accumulates one all-reduce round at the root lane.
type shmemSumState struct {
	sum uint64
	n   int
}

// NewShmem registers the library for a lane set with a symmetric block of
// `words` 64-bit words per lane.
func NewShmem(p *udweave.Program, lanes kvmsr.LaneSet, words int) (*Shmem, error) {
	if err := lanes.Validate(p.M); err != nil {
		return nil, err
	}
	if words <= 0 {
		return nil, fmt.Errorf("collections: shmem block must be positive, got %d", words)
	}
	s := &Shmem{p: p, lanes: lanes, words: words, sumSlot: udweave.NewSlot[shmemSumState](p)}
	s.lBarrierBody = p.Define("shmem.barrier_body", s.barrierBody)
	s.lReduceBody = p.Define("shmem.reduce_body", s.reduceBody)
	s.lReduceRead = p.Define("shmem.reduce_read", s.reduceRead)
	s.lSum = p.Define("shmem.sum", s.sum)
	s.lSumWritten = p.Define("shmem.sum_written", s.sumWritten)
	var err error
	s.barrierInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "shmem.barrier", NumKeys: uint64(lanes.Count),
		MapEvent: s.lBarrierBody, Lanes: lanes,
	})
	if err != nil {
		return nil, err
	}
	s.reduceInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "shmem.allreduce", NumKeys: uint64(lanes.Count),
		MapEvent: s.lReduceBody, ReduceEvent: s.lSum,
		ReduceBinding: kvmsr.ReduceFunc(func(uint64, kvmsr.LaneSet) arch.NetworkID {
			return lanes.First
		}),
		Lanes: lanes,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Alloc reserves the symmetric region (plus one result word).
func (s *Shmem) Alloc(gas *gasmem.GAS) error {
	m := s.p.M
	size := uint64(s.lanes.Count*s.words) * gasmem.WordBytes
	lanesPerNode := m.LanesPerNode()
	var err error
	// Fallbacks stay on the lane set's first node (not node 0), so
	// concurrently scheduled jobs on disjoint partitions never share a
	// memory controller.
	if int(s.lanes.First)%lanesPerNode == 0 && s.lanes.Count%lanesPerNode == 0 {
		nodes := s.lanes.Count / lanesPerNode
		perNode := size / uint64(nodes)
		if perNode&(perNode-1) == 0 {
			s.base, err = gas.DRAMmalloc(size, m.NodeOf(s.lanes.First), nodes, perNode)
		} else {
			s.base, err = gas.DRAMmalloc(size, m.NodeOf(s.lanes.First), 1, 4096)
		}
	} else {
		s.base, err = gas.DRAMmalloc(size, m.NodeOf(s.lanes.First), 1, 4096)
	}
	if err != nil {
		return err
	}
	s.resultVA, err = gas.DRAMmalloc(gasmem.WordBytes, m.NodeOf(s.lanes.First), 1, 4096)
	return err
}

// Addr returns the address of a symmetric word on a peer lane — the
// essence of SHMEM: any lane can name any peer's block.
func (s *Shmem) Addr(lane arch.NetworkID, word int) gasmem.VA {
	if !s.lanes.Contains(lane) || word < 0 || word >= s.words {
		panic(fmt.Sprintf("collections: shmem address (%d, %d) out of range", lane, word))
	}
	return s.base + uint64(s.lanes.Index(lane)*s.words+word)*gasmem.WordBytes
}

// Put writes vals into peer's symmetric block at word offset; ackCont
// receives completion.
func (s *Shmem) Put(c *udweave.Ctx, peer arch.NetworkID, word int, ackCont uint64, vals ...uint64) {
	c.Cycles(3)
	c.DRAMWrite(s.Addr(peer, word), ackCont, vals...)
}

// Get reads n words from peer's symmetric block; cont receives them.
func (s *Shmem) Get(c *udweave.Ctx, peer arch.NetworkID, word, n int, cont uint64) {
	c.Cycles(3)
	c.DRAMRead(s.Addr(peer, word), n, cont)
}

// Barrier synchronizes all lanes of the set: the continuation fires after
// every lane has executed its barrier body. Launch from inside the
// simulation (typically a driver thread).
func (s *Shmem) Barrier(c *udweave.Ctx, cont uint64) {
	s.barrierInv.Launch(c, uint64(s.lanes.Count), cont)
}

func (s *Shmem) barrierBody(c *udweave.Ctx) {
	c.Cycles(2)
	s.barrierInv.Return(c, c.Cont())
	c.YieldTerminate()
}

// AllReduceSum sums the symmetric word at the given offset across all
// lanes; cont fires once the total is in ResultVA (read it with
// Shmem.Result after the run, or DRAMRead it in-simulation).
func (s *Shmem) AllReduceSum(c *udweave.Ctx, word int, cont uint64) {
	// The word offset rides the KVMSR broadcast argument, so every
	// lane's body sees it without any shared host state.
	s.reduceInv.LaunchWithArg(c, uint64(s.lanes.Count), uint64(word), cont)
}

// Result reads the last all-reduce total (host side, post-run).
func (s *Shmem) Result(gas *gasmem.GAS) uint64 { return gas.ReadU64(s.resultVA) }

// reduceBody: each lane contributes its own symmetric word (the word
// offset arrives as the broadcast argument, operand 1).
func (s *Shmem) reduceBody(c *udweave.Ctx) {
	c.SetState(c.Cont())
	c.Cycles(2)
	s.Get(c, c.NetworkID(), int(c.Op(1)), 1, c.ContinueTo(s.lReduceRead))
}

func (s *Shmem) reduceRead(c *udweave.Ctx) {
	s.reduceInv.Emit(c, 0, c.Op(0))
	s.reduceInv.Return(c, c.State().(uint64))
	c.YieldTerminate()
}

// sum accumulates contributions at the root lane. The total is written
// back (and the round state reset) on the final contribution, before its
// ReduceDone — so the collective's completion implies the result is
// durable, and back-to-back collectives cannot interleave.
func (s *Shmem) sum(c *udweave.Ctx) {
	st := s.sumSlot.Get(c)
	st.sum += c.Op(1)
	st.n++
	c.ScratchAccess(1)
	c.Cycles(3)
	if st.n < s.lanes.Count {
		s.reduceInv.ReduceDone(c)
		c.YieldTerminate()
		return
	}
	total := st.sum
	st.sum = 0
	st.n = 0
	c.DRAMWrite(s.resultVA, c.ContinueTo(s.lSumWritten), total)
}

func (s *Shmem) sumWritten(c *udweave.Ctx) {
	s.reduceInv.ReduceDone(c)
	c.YieldTerminate()
}
