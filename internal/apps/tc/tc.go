// Package tc implements the paper's triangle counting (Section 4.3):
// kv_map tasks run on all vertices and enumerate the connected vertex
// pairs <vx, vy> with x > y; kv_reduce tasks intersect the two neighbor
// lists, caching the smaller one in scratchpad and streaming the larger
// against it (the Section 4.3.3 reuse variant — with every chunk read in
// flight at once, a pair costs two memory round trips regardless of
// degree). Pair keys combine both vertex names, so the default Hash
// reduce binding spreads the skewed intersection work evenly.
//
// The map binding is kvmsr.Owner where the graph's nodes are the lane
// set's — kv_map for u runs on the node homing u's record and list — and
// Block otherwise. The paper's PBMW variant is not offered: its secondary
// balancing "was not required" (Section 4.3.3), and it ran longer at every
// point measured (EXPERIMENTS.md, "One reduce design per app").
package tc

import (
	"updown"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// Config selects run parameters.
type Config struct {
	// Lanes is the KVMSR lane set (default: whole machine).
	Lanes kvmsr.LaneSet
}

// App is a TC program instance; its Driver's shuffle is the main pair
// invocation.
type App struct {
	updown.Driver
	dg *graph.DeviceGraph

	// total is the launch's ReduceDoneAdd sum, which its completion
	// carries: every pair's intersection count, summed up the KVMSR tree.
	total uint64

	lURecord udweave.Label
	lUChunk  udweave.Label
	lVRecord udweave.Label
	lAChunk  udweave.Label
	lBChunk  udweave.Label
}

// mapState streams vertex u's list, emitting pairs.
type mapState struct {
	mapCont uint64
	u       uint64
	degree  uint64
	neighVA gasmem.VA
	loaded  uint64
}

// reduceState intersects the lists of u and v: the smaller list is loaded
// into a scratchpad set with all chunk reads in flight at once, then the
// larger list streams against it the same way (the paper's Section 4.3.3
// scratchpad-reuse variant; chunk arrival order is immaterial, so no read
// ever waits behind another and a hub pair costs two round trips, not one
// per chunk).
type reduceState struct {
	aVA, bVA   gasmem.VA
	aLen, bLen uint64
	set        map[uint64]struct{}
	pending    int
	streaming  bool
	count      uint64
}

func pairKey(u, v uint64) uint64 { return u<<32 | v }

// New builds the program against a loaded device graph (which must be
// undirected with sorted neighbor lists).
func New(m *updown.Machine, dg *graph.DeviceGraph, cfg Config) (*App, error) {
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	a := &App{Driver: updown.Driver{M: m, Lane: cfg.Lanes.First}, dg: dg}
	p := m.Prog
	kvMap := p.Define("tc.kv_map", a.kvMap)
	a.lURecord = p.Define("tc.u_record", a.uRecord)
	a.lUChunk = p.Define("tc.u_chunk", a.uChunk)
	kvReduce := p.Define("tc.kv_reduce", a.kvReduce)
	a.lVRecord = p.Define("tc.v_record", a.vRecord)
	a.lAChunk = p.Define("tc.a_chunk", a.aChunk)
	a.lBChunk = p.Define("tc.b_chunk", a.bChunk)
	a.Label = p.Define("tc.driver", a.driver)

	var mb kvmsr.MapBinding = kvmsr.Block{}
	if own, ok := dg.Owner(m.Arch, m.GAS, cfg.Lanes); ok {
		mb = own
	}
	var err error
	a.Shuffle, err = kvmsr.New(p, kvmsr.Spec{
		Name: "tc.main", NumKeys: uint64(dg.G.N),
		MapEvent: kvMap, ReduceEvent: kvReduce, MapBinding: mb,
		Lanes:      cfg.Lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce,
		// The reducer intersects two DRAM adjacency lists and hands its
		// count to the completion sum, keeping nothing on its lane, so
		// any lane may run it.
		ReduceAnyLane: true,
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Total returns the per-edge intersection total (3x the triangle count);
// host side, post-run.
func (a *App) Total() uint64 { return a.total }

// Triangles returns the triangle count.
func (a *App) Triangles() uint64 { return a.Total() / 3 }

// driver launches the pair invocation and, on its completion, takes the
// total from the completion's third operand.
func (a *App) driver(c *updown.Ctx) {
	if c.State() == nil {
		a.Start = c.Now()
		c.Phase("tc main")
		c.SetState("main")
		a.Shuffle.Launch(c, uint64(a.dg.G.N), c.ContinueTo(a.Label))
		return
	}
	a.total = c.Op(2)
	a.Done = c.Now()
	c.PhaseEnd()
	c.YieldTerminate()
}

// kvMap: read u's record, then stream its list, emitting each pair u > v.
func (a *App) kvMap(c *updown.Ctx) {
	u := c.Op(0)
	c.SetState(&mapState{mapCont: c.Cont(), u: u})
	c.Cycles(4)
	c.DRAMRead(a.dg.FieldVA(uint32(u), graph.VDegree), 2, c.ContinueTo(a.lURecord))
}

func (a *App) uRecord(c *updown.Ctx) {
	st := c.State().(*mapState)
	st.degree = c.Op(0)
	st.neighVA = c.Op(1)
	if st.degree == 0 {
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
		return
	}
	c.Cycles(4)
	graph.ReadAdj(c, st.neighVA, st.degree, c.ContinueTo(a.lUChunk))
}

func (a *App) uChunk(c *updown.Ctx) {
	st := c.State().(*mapState)
	n := c.NOps()
	c.Cycles(2 * n)
	for i := 0; i < n; i++ {
		v := c.Op(i)
		if v < st.u {
			// Pass u's list descriptor so the reduce reads only v's.
			a.Shuffle.Emit(c, pairKey(st.u, v), uint64(st.neighVA), st.degree)
		}
	}
	st.loaded += uint64(n)
	if st.loaded == st.degree {
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
	}
}

// kvReduce intersects N(u) and N(v) for one pair.
func (a *App) kvReduce(c *updown.Ctx) {
	key := c.Op(0)
	v := uint32(key & 0xFFFFFFFF)
	st := &reduceState{aVA: c.Op(1), aLen: c.Op(2)}
	c.SetState(st)
	c.Cycles(6)
	c.DRAMRead(a.dg.FieldVA(v, graph.VDegree), 2, c.ContinueTo(a.lVRecord))
}

func (a *App) vRecord(c *updown.Ctx) {
	st := c.State().(*reduceState)
	st.bLen = c.Op(0)
	st.bVA = c.Op(1)
	if st.aLen == 0 || st.bLen == 0 {
		a.finishReduce(c, st)
		return
	}
	// Cache the smaller list in the scratchpad set.
	if st.bLen < st.aLen {
		st.aVA, st.bVA = st.bVA, st.aVA
		st.aLen, st.bLen = st.bLen, st.aLen
	}
	st.set = make(map[uint64]struct{}, st.aLen)
	graph.ReadAdj(c, st.aVA, st.aLen, c.ContinueTo(a.lAChunk))
	st.pending = int((st.aLen + 7) / 8)
}

// aChunk inserts one chunk of the cached list into the scratchpad set.
func (a *App) aChunk(c *updown.Ctx) {
	st := c.State().(*reduceState)
	n := c.NOps()
	c.ScratchAccess(n)
	c.Cycles(2 * n)
	for i := 0; i < n; i++ {
		st.set[c.Op(i)] = struct{}{}
	}
	st.pending--
	if st.pending == 0 {
		// Set complete: stream the larger list against it.
		st.streaming = true
		graph.ReadAdj(c, st.bVA, st.bLen, c.ContinueTo(a.lBChunk))
		st.pending = int((st.bLen + 7) / 8)
	}
}

// bChunk probes one chunk of the streamed list against the set.
func (a *App) bChunk(c *updown.Ctx) {
	st := c.State().(*reduceState)
	n := c.NOps()
	c.ScratchAccess(n)
	c.Cycles(2 * n)
	for i := 0; i < n; i++ {
		if _, ok := st.set[c.Op(i)]; ok {
			st.count++
		}
	}
	st.pending--
	if st.pending == 0 {
		a.finishReduce(c, st)
	}
}

func (a *App) finishReduce(c *updown.Ctx, st *reduceState) {
	a.Shuffle.ReduceDoneAdd(c, st.count)
	c.YieldTerminate()
}
