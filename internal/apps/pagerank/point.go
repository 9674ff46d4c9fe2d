// Point-query personalized PageRank: the serving-layer fast path for
// (source, target) → PPR score queries, as a kernel of the pointq frame.
// The frame owns slots, rounds and frontier streaming; this file is the
// push arithmetic, the hub pusher (the per-frontier-vertex task) and the
// residual-contribution reduce chain.
//
// The algorithm is forward push in rounds (a query's round k is fully
// reduced before its round k+1) with fixed-point integer masses, which is
// what makes it servable: integer fetch-add accumulation is
// order-independent, so a query's score is bit-equal whatever else is in
// flight and whatever the shard count. Each round,
// every frontier vertex v settles part of its residual into p[v] and
// pushes share = trunc(trunc(r·d) / totalDeg) to each out-neighbor; the
// truncation residue settles too, so mass is conserved exactly. Residuals
// below DefaultEps settle entirely, which bounds the push depth.
package pagerank

import (
	"updown"
	"updown/internal/apps/pointq"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// FixOne is the fixed-point representation of one unit of probability
// mass. All push arithmetic is integer: scores are exact fractions with
// denominator FixOne.
const FixOne uint64 = 1 << 40

// dampFix is Damping in 16-bit fixed point: trunc(0.85 · 2^16).
const dampFix uint64 = 55705

// DefaultEps is the residual floor of the device engine and RefScores'
// default: masses below it settle in place instead of pushing on.
const DefaultEps = FixOne >> 13

// pushSplit is the single definition of one vertex's push step, shared by
// the device threads and the host reference: residual r at a vertex of
// degree totalDeg either settles entirely (settle=r, share=0) or splits
// into a per-edge share and a settled remainder that conserves mass.
func pushSplit(r, totalDeg, eps uint64) (settle, share uint64) {
	if totalDeg == 0 || r < eps {
		return r, 0
	}
	share = (r * dampFix >> 16) / totalDeg
	if share == 0 {
		return r, 0
	}
	return r - share*totalDeg, share
}

// RefScores runs the identical fixed-point forward push on the host over
// the original (pre-split) graph, returning the full score vector for
// source src. Device results are pinned bit-equal to this reference.
func RefScores(g *graph.Graph, src uint32, eps uint64) []uint64 {
	if eps == 0 {
		eps = DefaultEps
	}
	p := make([]uint64, g.N)
	r := make([]uint64, g.N)
	r[src] = FixOne
	frontier := []uint32{src}
	for len(frontier) > 0 {
		next := make([]uint64, g.N)
		var nf []uint32
		for _, v := range frontier {
			settle, share := pushSplit(r[v], uint64(g.Degree(v)), eps)
			p[v] += settle
			if share == 0 {
				continue
			}
			for _, nb := range g.Neighbors(v) {
				if next[nb] == 0 {
					nf = append(nf, nb)
				}
				next[nb] += share
			}
		}
		r, frontier = next, nf
	}
	return p
}

// PointConfig sizes a point-PPR engine.
type PointConfig struct {
	// Lanes is the engine's lane set (default: whole machine).
	Lanes kvmsr.LaneSet
	// Slots is the number of concurrent queries (default: one per
	// accelerator; see pointq.Config).
	Slots int
}

// Per-slot state planes. Frontiers hold base members only (the engine
// requires the default split without SpreadInEdges, so every adjacency
// destination is a base member); a base pusher streams its sub-vertices'
// out-lists itself.
const (
	plMark = 0 // first-ever-touch marks (recycle bookkeeping)
	plP    = 1 // settled mass, fetch-add accumulated
	plR    = 2 // parity residuals (plR, plR+1), fetch-add accumulated
)

// PointPPR is a resident personalized-PageRank query engine. The result
// word is the target's fixed-point score, an exact fraction with
// denominator FixOne.
type PointPPR struct {
	*pointq.Engine
	gas *gasmem.GAS
	dg  *graph.DeviceGraph

	lPRead, lVert, lRRead, lVRec, lVChunk, lVAck, lSDone udweave.Label
	lRAcc, lFIdx, lTMark, lTIdx, lAck                    udweave.Label
}

// NewPoint builds a resident point-PPR engine over a loaded graph.
func NewPoint(m *updown.Machine, dg *graph.DeviceGraph, cfg PointConfig) (*PointPPR, error) {
	e := &PointPPR{gas: m.GAS, dg: dg}
	var err error
	e.Engine, err = pointq.New(m, dg, pointq.Config{Lanes: cfg.Lanes, Slots: cfg.Slots}, pointq.Kernel{
		Name: "pppr", Stream: [3]string{"stream", "s_rec", "s_chunk"}, Planes: 4,
		Seed: e.seed, Resolve: e.resolve, Visit: e.visit, Reduce: e.kvReduce,
	})
	if err != nil {
		return nil, err
	}
	p := m.Prog
	e.lPRead = p.Define("pppr.p_read", e.pRead)
	e.lVert = p.Define("pppr.vert", e.vert)
	e.lRRead = p.Define("pppr.r_read", e.rRead)
	e.lVRec = p.Define("pppr.v_rec", e.vRec)
	e.lVChunk = p.Define("pppr.v_chunk", e.vChunk)
	e.lVAck = p.Define("pppr.v_ack", e.vAck)
	e.lSDone = p.Define("pppr.s_done", e.sDone)
	e.lRAcc = p.Define("pppr.r_acc", e.rAcc)
	e.lFIdx = p.Define("pppr.f_idx", e.fIdx)
	e.lTMark = p.Define("pppr.t_mark", e.tMark)
	e.lTIdx = p.Define("pppr.t_idx", e.tIdx)
	e.lAck = p.Define("pppr.ack", e.ack)
	return e, nil
}

// seed: the full unit of mass starts as the source base member's residual.
func (e *PointPPR) seed(slot, sb, _ uint64) (nfront, result uint64) {
	e.gas.WriteU64(e.PlaneVA(slot, plR, sb), FixOne)
	return 1, 0
}

// resolve: the frontier ran dry, so the score is final. Copy p[target]
// into the result word, stamp the completion cycle and retire the counters.
func (e *PointPPR) resolve(c *udweave.Ctx, t *pointq.Task) {
	c.DRAMRead(e.PlaneVA(t.Slot, plP, t.Target), 1, c.ContinueTo(e.lPRead))
}

func (e *PointPPR) pRead(c *udweave.Ctx) {
	c.Cycles(2)
	e.Retire(c, c.State().(*pointq.Task), pointq.HResult, c.Op(0), uint64(c.Now()), 0, 0)
}

func (e *PointPPR) visit(c *udweave.Ctx, t *pointq.Task, v, cont uint64) {
	c.SendEvent(udweave.EvwNew(e.Lane(t.Slot, v), e.lVert), cont, v, t.Round, t.Slot)
}

// ppVertState is one hub pusher: consume the base member's residual,
// settle the truncation remainder into p, and stream the hub's full
// out-list — its own plus each sub-vertex's — into the shuffle.
type ppVertState struct {
	cont, v, round, slot uint64

	r, share           uint64
	totalDeg, neighVA  uint64
	degree, loaded     uint64
	subStart, subCount uint64
	nextSub            uint64
	sent               uint64
	// reads counts the residual and record reads in flight. The counters
	// are int32 so that the state, one allocation per task, fits 128 bytes.
	reads, subsOut, acks int32
}

// vert reads the residual and the vertex record together; push runs when
// both have arrived.
func (e *PointPPR) vert(c *udweave.Ctx) {
	st := &ppVertState{cont: c.Cont(), v: c.Op(0), round: c.Op(1), slot: c.Op(2), reads: 2}
	c.SetState(st)
	c.Cycles(4)
	c.DRAMRead(e.PlaneVA(st.slot, plR+(st.round&1), st.v), 1, c.ContinueTo(e.lRRead))
	c.DRAMRead(e.dg.RecordVA(uint32(st.v)), 8, c.ContinueTo(e.lVRec))
}

func (e *PointPPR) rRead(c *udweave.Ctx) {
	st := c.State().(*ppVertState)
	st.r = c.Op(0)
	c.Cycles(2)
	// Zero the consumed residual (acked) so the next round of this parity
	// accumulates from scratch.
	st.acks++
	c.DRAMWrite(e.PlaneVA(st.slot, plR+(st.round&1), st.v), c.ContinueTo(e.lVAck), 0)
	e.push(c, st)
}

func (e *PointPPR) vRec(c *udweave.Ctx) {
	st := c.State().(*ppVertState)
	st.totalDeg, st.neighVA, st.degree = c.Op(graph.VTotalDeg), c.Op(graph.VNeighVA), c.Op(graph.VDegree)
	st.subStart, st.subCount = c.Op(graph.VSubStart), c.Op(graph.VSubCount)
	c.Cycles(2)
	e.push(c, st)
}

func (e *PointPPR) push(c *udweave.Ctx, st *ppVertState) {
	if st.reads--; st.reads > 0 {
		return
	}
	var settle uint64
	settle, st.share = pushSplit(st.r, st.totalDeg, DefaultEps)
	c.Cycles(8)
	st.acks++
	c.DRAMFetchAdd(e.PlaneVA(st.slot, plP, st.v), settle, c.ContinueTo(e.lVAck))
	if st.share == 0 {
		st.degree, st.subCount = 0, 0
	} else {
		// Stream the base member's own out-list, then its sub-vertices'.
		graph.ReadAdj(c, st.neighVA, st.degree, c.ContinueTo(e.lVChunk))
	}
	e.subPump(c, st)
}

func (e *PointPPR) vChunk(c *udweave.Ctx) {
	st := c.State().(*ppVertState)
	st.sent += e.EmitChunk(c, st.slot, st.share, (st.round+1)&1)
	st.loaded += uint64(c.NOps())
	e.vertMaybeDone(c, st)
}

func (e *PointPPR) vAck(c *udweave.Ctx) {
	st := c.State().(*ppVertState)
	st.acks--
	c.Cycles(1)
	e.vertMaybeDone(c, st)
}

// subPump keeps sub-vertex streamers in flight, windowed.
func (e *PointPPR) subPump(c *udweave.Ctx, st *ppVertState) {
	for st.subsOut < pointq.Window && st.nextSub < st.subCount {
		c.Cycles(2)
		e.Stream(c, c.ContinueTo(e.lSDone), st.slot, st.subStart+st.nextSub, st.share, (st.round+1)&1)
		st.nextSub++
		st.subsOut++
	}
	e.vertMaybeDone(c, st)
}

func (e *PointPPR) sDone(c *udweave.Ctx) {
	st := c.State().(*ppVertState)
	st.sent += c.Op(0)
	st.subsOut--
	c.Cycles(2)
	e.subPump(c, st)
}

func (e *PointPPR) vertMaybeDone(c *udweave.Ctx, st *ppVertState) {
	if st.acks == 0 && st.reads == 0 && st.loaded == st.degree && st.subsOut == 0 && st.nextSub == st.subCount {
		c.Reply(st.cont, st.sent)
		c.YieldTerminate()
	}
}

// ppRedState is one residual-contribution reduce: accumulate the share
// into the parity residual and, on the round's first contribution to this
// vertex, append it to the next frontier (and to the touched list on the
// slot's first-ever contribution).
type ppRedState struct {
	slot, v, parity uint64
	chains, acks    int
}

func (e *PointPPR) kvReduce(c *udweave.Ctx) {
	st := &ppRedState{parity: c.Op(2)}
	st.slot, st.v = pointq.SplitKey(c.Op(0))
	c.SetState(st)
	c.Cycles(4)
	c.DRAMFetchAdd(e.PlaneVA(st.slot, plR+st.parity, st.v), c.Op(1), c.ContinueTo(e.lRAcc))
}

func (e *PointPPR) rAcc(c *udweave.Ctx) {
	st := c.State().(*ppRedState)
	if c.Op(0) != 0 {
		// Not the first contribution this round: already in the frontier.
		e.ReduceDone(c, st.slot, 0)
		return
	}
	c.Cycles(2)
	st.chains = 2
	c.DRAMFetchAdd(e.HdrVA(st.slot, pointq.HFront+st.parity), 1, c.ContinueTo(e.lFIdx))
	c.DRAMFetchAdd(e.PlaneVA(st.slot, plMark, st.v), 1, c.ContinueTo(e.lTMark))
}

func (e *PointPPR) fIdx(c *udweave.Ctx) {
	st := c.State().(*ppRedState)
	st.chains--
	st.acks += e.WriteFront(c, st.slot, st.parity, c.Op(0), st.v, 0, 0, c.ContinueTo(e.lAck))
}

func (e *PointPPR) tMark(c *udweave.Ctx) {
	st := c.State().(*ppRedState)
	st.chains--
	c.Cycles(2)
	if c.Op(0) == 0 {
		st.chains++
		c.DRAMFetchAdd(e.HdrVA(st.slot, pointq.HTouch), 1, c.ContinueTo(e.lTIdx))
		return
	}
	e.redMaybeDone(c, st)
}

func (e *PointPPR) tIdx(c *udweave.Ctx) {
	st := c.State().(*ppRedState)
	st.chains--
	st.acks++
	c.Cycles(2)
	c.DRAMWrite(e.TouchVA(st.slot, c.Op(0)), c.ContinueTo(e.lAck), st.v)
}

func (e *PointPPR) ack(c *udweave.Ctx) {
	st := c.State().(*ppRedState)
	st.acks--
	c.Cycles(1)
	e.redMaybeDone(c, st)
}

func (e *PointPPR) redMaybeDone(c *udweave.Ctx, st *ppRedState) {
	if st.chains == 0 && st.acks == 0 {
		e.ReduceDone(c, st.slot, 0)
	}
}
