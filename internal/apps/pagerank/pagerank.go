// Package pagerank implements the paper's push-based PageRank (Section
// 4.1, Listing 3) on the simulated UpDown machine: one KVMSR invocation per
// iteration maps over all (split) vertices, each kv_map task streaming its
// neighbor list from DRAM in chunks of eight and emitting a <targetVertex,
// increment> tuple per edge; kv_reduce tasks accumulate the contributions
// with the software fetch-and-add combining cache, and the reduce that
// brings a vertex its last expected contribution finishes it — a
// sub-vertex reports its sum to its base, a base writes its next value —
// so the launch's completion is the iteration's.
//
// Parallelism is expressed per vertex (kv_map) and per edge (kv_reduce);
// data placement is the DRAMmalloc striping chosen when loading the graph;
// computation binding follows the placement when it can — kvmsr.Owner runs
// the kv_map and kv_reduce tasks of vertex v on the node homing record v
// whenever the vertex array's nodes are the lane set's — and is otherwise
// the default Block for maps and Hash for reduces. The three are the
// orthogonal dimensions of the paper's Figure 1.
package pagerank

import (
	"fmt"
	"math"

	"updown"
	"updown/internal/collections"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// Damping matches the baseline package.
const Damping = 0.85

// Config selects the run parameters.
type Config struct {
	// Lanes is the KVMSR lane set (default: the whole machine).
	Lanes kvmsr.LaneSet
	// Iterations of power iteration (default 1, the unit the paper's
	// strong-scaling measurements time).
	Iterations int
}

// App is a PageRank program instance bound to one machine and graph. Its
// Driver's shuffle is the one invocation every iteration launches.
type App struct {
	updown.Driver
	dg  *graph.DeviceGraph
	cfg Config

	// auxVA is the second value buffer (valueVA), one word per split
	// vertex striped so that aux[v] lives with record v.
	auxVA gasmem.VA

	cc *collections.CombiningCache

	lRecord, lParentVal, lNeighRead, lMapAck udweave.Label
	lExpect, lReport, lAck                   udweave.Label

	// PhaseMarks records each iteration's completion cycle.
	PhaseMarks []updown.Cycles
}

// workerState is the kv_map thread state (Listing 3's thread variables:
// degree, prUpdate, loadedNeighbors, plus the saved map continuation).
// waits counts what the task returns after: its stream and any reply.
type workerState struct {
	mapCont, iter   uint64
	v, parent       uint32
	degree          uint64
	loadedNeighbors uint64
	neighVA         gasmem.VA
	totalDeg        uint64
	contribBits     uint64
	waits           int
}

// reduceState is that of a thread that finishes vertex v in iteration
// iter: a kv_reduce task (cont 0), which ends with ReduceDone, or a report
// or expect message, which replies to cont, once every reply it waits for
// (pending) is in.
type reduceState struct {
	v, base    uint32
	cont, iter uint64
	pending    int
}

// New builds the program against an already-loaded device graph.
func New(m *updown.Machine, dg *graph.DeviceGraph, cfg Config) (*App, error) {
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	a := &App{Driver: updown.Driver{M: m, Lane: cfg.Lanes.First}, dg: dg, cfg: cfg}
	p := m.Prog
	a.cc = collections.NewCombiningCache(p, "pr.fna", collections.AddF64)
	// Where the vertex array's nodes are the lane set's, every per-vertex
	// task is bound to the node homing its record, and the per-vertex
	// arrays are striped in blocks of as many vertices as the vertex
	// array's; they live on the lane set's own nodes, so a job confined to
	// a lane partition touches no other partition's memory.
	var mapBinding kvmsr.MapBinding
	var reduceBinding kvmsr.ReduceBinding
	auxBS := uint64(32 << 10)
	if own, ok := dg.Owner(m.Arch, m.GAS, cfg.Lanes); ok {
		mapBinding, reduceBinding = own, own
		auxBS = m.GAS.RegionOf(dg.VertexVA).BS / graph.VertexStride
	}
	var err error
	a.auxVA, err = m.GAS.DRAMmalloc(uint64(dg.G.N)*gasmem.WordBytes, m.Arch.NodeOf(cfg.Lanes.First),
		gasmem.FloorPow2(cfg.Lanes.NumNodes(m.Arch)), auxBS)
	if err != nil {
		return nil, err
	}

	kvMap := p.Define("pr.kv_map", a.kvMap)
	a.lRecord = p.Define("pr.record", a.record)
	a.lParentVal = p.Define("pr.parent_val", a.parentVal)
	a.lNeighRead = p.Define("pr.return_read", a.returnRead)
	a.lMapAck = p.Define("pr.map_ack", a.mapAck)
	kvReduce := p.Define("pr.kv_reduce", a.kvReduce)
	a.lExpect = p.Define("pr.expect", a.expect)
	a.lReport = p.Define("pr.report", a.report)
	a.lAck = p.Define("pr.ack", a.ack)
	a.Label = p.Define("pr.driver", a.driver)

	a.Shuffle, err = kvmsr.New(p, kvmsr.Spec{
		Name: "pr.main", NumKeys: uint64(dg.G.N),
		MapEvent: kvMap, ReduceEvent: kvReduce,
		MapBinding: mapBinding, ReduceBinding: reduceBinding,
		Lanes:      cfg.Lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce,
		// NOT ReduceAnyLane: the reduce binding concentrates each vertex on
		// one lane, whose combining cache sums and counts its arrivals.
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// InitValues writes the uniform starting vector and every split vertex's
// expected arrival count E into its record's VAux (host-side setup): the
// contributions its reduce lane counts before its sum is final — its
// in-edges plus, for a base, one report from each of its sub-vertices that
// has arrivals of its own.
func (a *App) InitValues() {
	g := a.dg.G
	e := make([]uint64, g.N)
	for _, u := range g.Neigh {
		e[u]++
	}
	for v, p := range g.Parent {
		if p != uint32(v) && e[v] > 0 {
			e[p]++
		}
	}
	init := udweave.FloatBits(1.0 / float64(g.OrigN))
	for v := uint32(0); int(v) < g.N; v++ {
		if g.IsBase(v) {
			a.M.GAS.WriteU64(a.dg.FieldVA(v, graph.VValue), init)
		}
		a.M.GAS.WriteU64(a.dg.FieldVA(v, graph.VAux), e[v])
	}
}

// valueVA is where vertex v's value lives at the start of iteration iter
// (from 1): VValue when iter is odd, aux[v] when even. A base may finish
// before its members' map tasks have read it, so values ping-pong.
func (a *App) valueVA(v uint32, iter uint64) gasmem.VA {
	if iter%2 == 1 {
		return a.dg.FieldVA(v, graph.VValue)
	}
	return a.auxVA + uint64(v)*gasmem.WordBytes
}

// PhaseDurations splits Elapsed into each completed iteration's cycles
// (read from PhaseMarks).
func (a *App) PhaseDurations() []updown.Cycles {
	out, prev := make([]updown.Cycles, len(a.PhaseMarks)), a.Start
	for i, mark := range a.PhaseMarks {
		out[i], prev = mark-prev, mark
	}
	return out
}

// Values reads back the final PageRank vector indexed by original input
// vertex ID (host side, post-run).
func (a *App) Values() []float64 {
	out := make([]float64, a.dg.G.OrigN)
	for v := range out {
		out[v] = udweave.BitsFloat(a.M.GAS.ReadU64(a.valueVA(a.dg.G.NewID[v], uint64(a.cfg.Iterations)+1)))
	}
	return out
}

// driver launches the iterations one after another, each with its number
// as the launch argument; the thread's state is the running iteration.
func (a *App) driver(c *updown.Ctx) {
	iter, _ := c.State().(uint64)
	if iter == 0 {
		a.Start = c.Now()
	} else {
		a.PhaseMarks = append(a.PhaseMarks, c.Now())
	}
	if iter == uint64(a.cfg.Iterations) {
		a.Done = c.Now()
		c.PhaseEnd()
		c.YieldTerminate()
		return
	}
	iter++
	c.SetState(iter)
	if c.Tracing() {
		c.Phase(fmt.Sprintf("pr iter %d", iter))
	}
	a.Shuffle.LaunchWithArg(c, uint64(a.dg.G.N), iter, c.ContinueTo(a.Label))
}

// kvMap: load this split vertex's record, then stream its neighbors.
func (a *App) kvMap(c *updown.Ctx) {
	v := uint32(c.Op(0))
	c.SetState(&workerState{mapCont: c.Cont(), v: v, iter: c.Op(1)})
	c.Cycles(6)
	c.DRAMRead(a.dg.RecordVA(v), 8, c.ContinueTo(a.lRecord))
}

// record receives the vertex record. A vertex that expects arrivals sends
// E, with its base and the iteration, to its reduce lane; a base that
// expects none writes its next value. The task returns once that is
// acknowledged too.
func (a *App) record(c *updown.Ctx) {
	st := c.State().(*workerState)
	st.degree = c.Op(graph.VDegree)
	st.neighVA = c.Op(graph.VNeighVA)
	st.totalDeg = c.Op(graph.VTotalDeg)
	st.parent = uint32(c.Op(graph.VParent))
	st.waits = 1
	c.Cycles(6)
	switch want := c.Op(graph.VAux); {
	case want != 0:
		st.waits++
		c.SendEvent(udweave.EvwNew(a.Shuffle.ReduceLane(c, uint64(st.v)), a.lExpect), c.ContinueTo(a.lMapAck),
			uint64(st.v), want, uint64(st.parent)|st.iter<<32)
	case st.parent == st.v:
		st.waits++
		c.DRAMWrite(a.valueVA(st.v, st.iter+1), c.ContinueTo(a.lMapAck), udweave.FloatBits(a.finalValue(0)))
	}
	switch {
	case st.degree == 0:
		a.mapAck(c)
	case st.parent == st.v && st.iter%2 == 1:
		a.beginStream(c, st, c.Op(graph.VValue))
	default:
		c.DRAMRead(a.valueVA(st.parent, st.iter), 1, c.ContinueTo(a.lParentVal))
	}
}

// parentVal receives the value record read.
func (a *App) parentVal(c *updown.Ctx) { a.beginStream(c, c.State().(*workerState), c.Op(0)) }

// beginStream computes the per-edge contribution and issues all neighbor
// reads in chunks of eight (Listing 3's kv_map loop). A tuple is [target,
// contribution].
func (a *App) beginStream(c *updown.Ctx, st *workerState, valueBits uint64) {
	st.contribBits = udweave.FloatBits(udweave.BitsFloat(valueBits) / float64(st.totalDeg))
	c.Cycles(8)
	graph.ReadAdj(c, st.neighVA, st.degree, c.ContinueTo(a.lNeighRead))
}

// returnRead receives one chunk of neighbor IDs and emits an intermediate
// tuple per neighbor (Listing 3's returnRead event).
func (a *App) returnRead(c *updown.Ctx) {
	st := c.State().(*workerState)
	n := c.NOps()
	for i := 0; i < n; i++ {
		a.Shuffle.Emit(c, c.Op(i), st.contribBits)
	}
	st.loadedNeighbors += uint64(n)
	if st.loadedNeighbors == st.degree {
		a.mapAck(c)
	}
}

// mapAck retires one of the map task's waits, returning it after the last.
func (a *App) mapAck(c *updown.Ctx) {
	st := c.State().(*workerState)
	if st.waits--; st.waits == 0 {
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
	}
}

// kvReduce counts one tuple's contribution toward its target vertex.
func (a *App) kvReduce(c *updown.Ctx) {
	c.Cycles(4)
	a.count(c, reduceState{v: uint32(c.Op(0))}, c.Op(1), 0, 0)
}

// report is a finished sub-vertex's sum arriving at its base's reduce
// lane: one arrival.
func (a *App) report(c *updown.Ctx) {
	c.Cycles(2)
	a.count(c, reduceState{v: uint32(c.Op(0)), cont: c.Cont()}, c.Op(1), 0, 0)
}

// expect is a map task's E arriving on its vertex's reduce lane; the cache
// keeps the tag, base | iteration<<32, with the count.
func (a *App) expect(c *updown.Ctx) {
	a.count(c, reduceState{v: uint32(c.Op(0)), cont: c.Cont()}, 0, c.Op(1), c.Op(2))
}

// count counts one arrival of val (want 0), or the expected count and its
// tag, at r.v on its reduce lane. What completes the count finishes the
// vertex with the cache entry's sum; anything else is done at once.
func (a *App) count(c *updown.Ctx, r reduceState, val, want, tag uint64) {
	sum, tag, done := a.cc.Count(c, a.dg.FieldVA(r.v, graph.VAux), val, want, tag)
	if !done {
		a.release(c, r.cont)
		return
	}
	st := r
	st.base, st.iter = uint32(tag), tag>>32
	c.SetState(&st)
	a.settle(c, &st, sum)
}

// settle passes a final sum on, and the thread completes once that is
// acknowledged: a sub-vertex reports it to its base, a base writes its
// next value.
func (a *App) settle(c *updown.Ctx, st *reduceState, sum uint64) {
	st.pending++
	if st.base != st.v {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(a.Shuffle.ReduceLane(c, uint64(st.base)), a.lReport), c.ContinueTo(a.lAck), uint64(st.base), sum)
		return
	}
	c.Cycles(8)
	c.DRAMWrite(a.valueVA(st.v, st.iter+1), c.ContinueTo(a.lAck), udweave.FloatBits(a.finalValue(udweave.BitsFloat(sum))))
}

// finalValue is (1-d)/N + d*sum.
func (a *App) finalValue(sum float64) float64 {
	next := (1-Damping)/float64(a.dg.G.OrigN) + Damping*sum
	if math.IsNaN(next) {
		panic("pagerank: NaN value")
	}
	return next
}

func (a *App) ack(c *updown.Ctx) {
	st := c.State().(*reduceState)
	c.Cycles(1)
	if st.pending--; st.pending == 0 {
		a.release(c, st.cont)
	}
}

// release completes the thread: a kv_reduce task's ReduceDone, or a reply.
func (a *App) release(c *updown.Ctx, cont uint64) {
	if cont != 0 {
		c.Reply(cont)
	} else {
		a.Shuffle.ReduceDone(c)
	}
	c.YieldTerminate()
}
