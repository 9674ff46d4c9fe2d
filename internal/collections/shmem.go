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
	s := &Shmem{p: p, lanes: lanes, words: words}
	s.lBarrierBody = p.Define("shmem.barrier_body", s.barrierBody)
	s.lReduceBody = p.Define("shmem.reduce_body", s.reduceBody)
	s.lReduceRead = p.Define("shmem.reduce_read", s.reduceRead)
	s.lSum = p.Define("shmem.sum", s.sum)
	var err error
	s.barrierInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "shmem.barrier", NumKeys: uint64(lanes.Count),
		MapEvent: s.lBarrierBody, Lanes: lanes,
	})
	if err != nil {
		return nil, err
	}
	// Each lane's word reduces on its own lane (key = lane index), and the
	// sum climbs the termination tree with the completion.
	s.reduceInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "shmem.allreduce", NumKeys: uint64(lanes.Count),
		MapEvent: s.lReduceBody, ReduceEvent: s.lSum,
		ReduceBinding: kvmsr.ReduceFunc(func(key uint64, ls kvmsr.LaneSet) arch.NetworkID {
			return ls.First + arch.NetworkID(key)
		}),
		Lanes: lanes,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Alloc reserves the symmetric region.
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
// lanes; cont receives the total as operand 2, like every KVMSR
// completion.
func (s *Shmem) AllReduceSum(c *udweave.Ctx, word int, cont uint64) {
	// The word offset rides the KVMSR broadcast argument, so every
	// lane's body sees it without any shared host state.
	s.reduceInv.LaunchWithArg(c, uint64(s.lanes.Count), uint64(word), cont)
}

// reduceBody: each lane contributes its own symmetric word (the word
// offset arrives as the broadcast argument, operand 1).
func (s *Shmem) reduceBody(c *udweave.Ctx) {
	c.SetState(c.Cont())
	c.Cycles(2)
	s.Get(c, c.NetworkID(), int(c.Op(1)), 1, c.ContinueTo(s.lReduceRead))
}

func (s *Shmem) reduceRead(c *udweave.Ctx) {
	s.reduceInv.Emit(c, uint64(s.lanes.Index(c.NetworkID())), c.Op(0))
	s.reduceInv.Return(c, c.State().(uint64))
	c.YieldTerminate()
}

// sum adds one lane's word to the launch's completion sum.
func (s *Shmem) sum(c *udweave.Ctx) {
	s.reduceInv.ReduceDoneAdd(c, c.Op(1))
	c.YieldTerminate()
}
