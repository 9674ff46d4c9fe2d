// Point-query BFS: the serving-layer fast path for reachability queries
// (source, target) → hop distance, as a kernel of the pointq frame. The
// frame owns slots, rounds and frontier streaming; this file is the BFS
// vertex task (stream the vertex's out-list, carrying the next level and
// the target) and the discovered-vertex reduce chain.
//
// A query's level k is fully reduced before its level k+1 expands, and
// first-touch marking via DRAM fetch-add is order-independent within a
// level, which is what makes a result bit-equal to a solo run whatever
// other queries are in flight.
package bfs

import (
	"updown"
	"updown/internal/apps/pointq"
	"updown/internal/graph"
	"updown/internal/udweave"
)

// PointConfig sizes a point-query engine.
type PointConfig = pointq.Config

// PointBFS is a resident reachability-query engine. Its one state plane
// is the visited mark; the result word is dist+1 of the target, 0 while
// (or if never) unreached.
type PointBFS struct {
	*pointq.Engine
	dg *graph.DeviceGraph

	lMark, lTIdx, lTAck, lSubs, lFIdx, lFAck udweave.Label
}

// NewPoint builds a resident point-query engine over a loaded graph.
func NewPoint(m *updown.Machine, dg *graph.DeviceGraph, cfg PointConfig) (*PointBFS, error) {
	e := &PointBFS{dg: dg}
	var err error
	e.Engine, err = pointq.New(m, dg, cfg, pointq.Kernel{
		Name: "pbfs", Stream: [3]string{"vert", "v_rec", "v_chunk"}, Planes: 1,
		Seed: e.seed, Resolve: e.resolve, Visit: e.visit, Reduce: e.kvReduce,
	})
	if err != nil {
		return nil, err
	}
	p := m.Prog
	e.lMark = p.Define("pbfs.mark", e.mark)
	e.lTIdx = p.Define("pbfs.t_idx", e.tIdx)
	e.lTAck = p.Define("pbfs.t_ack", e.ack)
	e.lSubs = p.Define("pbfs.subs", e.subs)
	e.lFIdx = p.Define("pbfs.f_idx", e.fIdx)
	e.lFAck = p.Define("pbfs.f_ack", e.ack)
	return e, nil
}

// Dist returns the answer of a completed slot: (dist, true) when the
// target is reachable, (0, false) otherwise.
func (e *PointBFS) Dist(slot int) (dist uint64, reached bool) {
	if r := e.Result(slot); r != 0 {
		return r - 1, true
	}
	return 0, false
}

// seed: level 0 is every split member of the source; src == tgt is
// distance 0, which the first round resolves immediately.
func (e *PointBFS) seed(_, sb, tb uint64) (nfront, result uint64) {
	if sb == tb {
		result = 1
	}
	return 1 + uint64(e.dg.G.SubCount[sb]), result
}

// resolve stamps the completion cycle and retires both frontier counters;
// the result word already holds the answer (0 if the frontier ran dry).
func (e *PointBFS) resolve(c *udweave.Ctx, t *pointq.Task) {
	e.Retire(c, t, pointq.HDone, uint64(c.Now()), 0, 0)
}

// visit streams v's neighbors into the shuffle as (next level, target).
func (e *PointBFS) visit(c *udweave.Ctx, t *pointq.Task, v, cont uint64) {
	e.Stream(c, cont, t.Slot, v, t.Round+1, t.Target)
}

// pRedState is one discovered-vertex reduce, a chain of split-phase DRAM
// steps; all its state is thread-local and all shared state is behind
// fetch-add gates, which is what licenses ReduceAnyLane.
type pRedState struct {
	slot, v, dist, target uint64
	subStart, subCount    uint64
	found                 uint64
	acks                  int
	fronted               bool
}

func (e *PointBFS) kvReduce(c *udweave.Ctx) {
	st := &pRedState{dist: c.Op(1), target: c.Op(2)}
	st.slot, st.v = pointq.SplitKey(c.Op(0))
	c.SetState(st)
	c.Cycles(4)
	c.DRAMFetchAdd(e.PlaneVA(st.slot, 0, st.v), 1, c.ContinueTo(e.lMark))
}

func (e *PointBFS) mark(c *udweave.Ctx) {
	st := c.State().(*pRedState)
	if c.Op(0) != 0 {
		// Already visited: first touch won.
		e.ReduceDone(c, st.slot, 0)
		return
	}
	c.Cycles(2)
	if st.v == st.target {
		// Found: record distance and completion cycle together (adjacent
		// header words, one acked write), then fall through to the
		// bookkeeping chain; the found count ends the chain with this round.
		st.acks++
		st.found = 1
		c.DRAMWrite(e.HdrVA(st.slot, pointq.HResult), c.ContinueTo(e.lTAck), st.dist+1, uint64(c.Now()))
	}
	c.DRAMFetchAdd(e.HdrVA(st.slot, pointq.HTouch), 1, c.ContinueTo(e.lTIdx))
}

func (e *PointBFS) tIdx(c *udweave.Ctx) {
	st := c.State().(*pRedState)
	st.acks++
	c.Cycles(2)
	c.DRAMWrite(e.TouchVA(st.slot, c.Op(0)), c.ContinueTo(e.lTAck), st.v)
	c.DRAMRead(e.dg.FieldVA(uint32(st.v), graph.VSubStart), 2, c.ContinueTo(e.lSubs))
}

// subs reserves a contiguous next-frontier range for the vertex and its
// split sub-vertices with one fetch-add.
func (e *PointBFS) subs(c *udweave.Ctx) {
	st := c.State().(*pRedState)
	st.subStart, st.subCount = c.Op(0), c.Op(1)
	c.Cycles(2)
	c.DRAMFetchAdd(e.HdrVA(st.slot, pointq.HFront+(st.dist&1)), 1+st.subCount, c.ContinueTo(e.lFIdx))
}

func (e *PointBFS) fIdx(c *udweave.Ctx) {
	st := c.State().(*pRedState)
	st.acks += e.WriteFront(c, st.slot, st.dist&1, c.Op(0), st.v, st.subStart, st.subCount, c.ContinueTo(e.lFAck))
	st.fronted = true
	e.maybeDone(c, st)
}

func (e *PointBFS) ack(c *udweave.Ctx) {
	st := c.State().(*pRedState)
	st.acks--
	c.Cycles(1)
	e.maybeDone(c, st)
}

func (e *PointBFS) maybeDone(c *udweave.Ctx, st *pRedState) {
	if st.acks == 0 && st.fronted {
		e.ReduceDone(c, st.slot, st.found)
	}
}
