// Package pagerank implements the paper's push-based PageRank (Section
// 4.1, Listing 3) on the simulated UpDown machine: a KVMSR invocation maps
// over all (split) vertices, each kv_map task streaming its neighbor list
// from DRAM in chunks of eight and emitting a <targetVertex, increment>
// tuple per edge; kv_reduce tasks accumulate the contributions with the
// software fetch-and-add combining cache; a doAll apply phase, which takes
// each vertex's sum straight from the cache of the lane that reduced it,
// completes each iteration: two launches.
//
// Parallelism is expressed per vertex (kv_map) and per edge (kv_reduce);
// data placement is the DRAMmalloc striping chosen when loading the graph;
// computation binding follows the placement when it can — kvmsr.Owner runs
// the kv_map, kv_reduce and apply task of vertex v on the node homing
// record v whenever the vertex array's nodes are the lane set's — and is
// otherwise the default Block for maps and Hash for reduces. The three are
// the orthogonal dimensions of the paper's Figure 1.
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
	// UseMemFetchAdd switches the reduce accumulation from the software
	// combining cache to a memory-side atomic (ablation of the paper's
	// footnote 1).
	UseMemFetchAdd bool
	// Combine installs a float-add combiner on the coalescing shuffle:
	// same-destination-key contributions buffered on the same lane merge
	// into one tuple before they reach the network. Requires
	// Machine.Coalesce; the reassociated float summation makes results
	// epsilon-equal (not bit-equal) to the uncombined run.
	Combine bool
}

// App is a PageRank program instance bound to one machine and graph. Its
// Driver's shuffle is the main scatter invocation; apply is map-only.
type App struct {
	updown.Driver
	dg  *graph.DeviceGraph
	cfg Config

	// auxVA is a contiguous per-split-vertex array: the combining cache's
	// keys and, under UseMemFetchAdd, the accumulators, kept dense so that
	// apply streams a hub's member sums eight words per DRAM read.
	// auxBlock is its distribution block in words.
	auxVA    gasmem.VA
	auxBlock uint32

	cc       *collections.CombiningCache
	applyInv *kvmsr.Invocation

	lRecord    udweave.Label
	lParentVal udweave.Label
	lNeighRead udweave.Label
	lReduceAck udweave.Label
	lApplyRead udweave.Label
	lSum       udweave.Label
	lGather    udweave.Label
	lApplyAck  udweave.Label

	iterLeft int
	// PhaseMarks records the completion cycle of every phase
	// (map+reduce, apply per iteration) for bottleneck analysis.
	PhaseMarks []updown.Cycles
}

// workerState is the kv_map thread state (Listing 3's thread variables:
// degree, prUpdate, loadedNeighbors, plus the saved map continuation).
type workerState struct {
	mapCont         uint64
	v               uint32
	degree          uint64
	loadedNeighbors uint64
	neighVA         gasmem.VA
	totalDeg        uint64
	contribBits     uint64
}

// applyState is an apply task's: it sums base v's members [v, v+total) —
// its sub-vertices too if in-edges are spread — for the next value; or a
// gather thread's, summing a chunk of them for the apply task at cont.
type applyState struct {
	cont   uint64 // the map continuation, or a gather's reply
	gather bool
	v      uint32
	total  uint32
	next   uint32
	sum    float64
	reads  int
	writes int
}

// applyWindow bounds in-flight member-sum requests per apply task.
const applyWindow = 64

// gatherRun is the longest member run an apply task takes sum by sum; a
// longer one goes in chunks to gather threads on the reduce lanes of their
// first members, so the base's lane gets one reply per chunk, not member.
const gatherRun = 32

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
	var err error
	if a.cc, err = collections.NewCombiningCache(p, "pr.fna", collections.AddF64, cfg.Lanes); err != nil {
		return nil, err
	}
	// Where the vertex array's nodes are the lane set's, every per-vertex
	// task is bound to the node homing its record, and the accumulator
	// array is striped in blocks of as many vertices as the vertex array's
	// so that aux[v] lives with record v.
	var mapBinding kvmsr.MapBinding
	var reduceBinding kvmsr.ReduceBinding
	auxBS := uint64(32 << 10)
	if own, ok := dg.Owner(m.Arch, m.GAS, cfg.Lanes); ok {
		mapBinding, reduceBinding = own, own
		auxBS = m.GAS.RegionOf(dg.VertexVA).BS / graph.VertexStride
	}
	// The accumulator array lives on the lane set's own nodes, so a job
	// confined to a lane partition touches no other partition's memory.
	auxFirst := m.Arch.NodeOf(cfg.Lanes.First)
	auxNodes := gasmem.FloorPow2(cfg.Lanes.NumNodes(m.Arch))
	a.auxVA, err = m.GAS.DRAMmalloc(uint64(dg.G.N)*gasmem.WordBytes, auxFirst, auxNodes, auxBS)
	if err != nil {
		return nil, err
	}
	a.auxBlock = uint32(auxBS / gasmem.WordBytes)

	kvMap := p.Define("pr.kv_map", a.kvMap)
	a.lRecord = p.Define("pr.record", a.record)
	a.lParentVal = p.Define("pr.parent_val", a.parentVal)
	a.lNeighRead = p.Define("pr.return_read", a.returnRead)
	kvReduce := p.Define("pr.kv_reduce", a.kvReduce)
	a.lReduceAck = p.Define("pr.reduce_ack", a.reduceAck)
	applyBody := p.Define("pr.apply", a.applyBody)
	a.lApplyRead = p.Define("pr.apply_read", a.applyRead)
	a.lSum = p.Define("pr.sum", a.addSum)
	a.lGather = p.Define("pr.gather", a.gather)
	a.lApplyAck = p.Define("pr.apply_ack", a.applyAck)
	a.Label = p.Define("pr.driver", a.driver)

	var combiner kvmsr.Combiner
	if cfg.Combine {
		combiner = addCombiner
	}
	a.Shuffle, err = kvmsr.New(p, kvmsr.Spec{
		Name: "pr.main", NumKeys: uint64(dg.G.N),
		MapEvent: kvMap, ReduceEvent: kvReduce,
		MapBinding: mapBinding, ReduceBinding: reduceBinding,
		Lanes:      cfg.Lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce, Combiner: combiner,
		// NOT ReduceAnyLane: the reduce binding concentrates each vertex on
		// one lane, which is what makes the per-lane combining cache hit.
		// Letting distributors reduce in place spreads a vertex's
		// contributions over many lanes' caches and the eviction
		// writebacks explode (measured: 5x the DRAM writes, 2x the
		// cycles at scale 18 x 4 nodes).
	})
	if err != nil {
		return nil, err
	}
	a.applyInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "pr.applyall", NumKeys: uint64(dg.G.N),
		MapEvent: applyBody, MapBinding: mapBinding,
		Lanes: cfg.Lanes,
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// addCombiner merges two buffered PageRank contributions for the same
// destination vertex into one float sum (Config.Combine).
func addCombiner(_ uint64, a, b []uint64) []uint64 {
	a[0] = udweave.FloatBits(udweave.BitsFloat(a[0]) + udweave.BitsFloat(b[0]))
	return a
}

// InitValues writes the uniform starting vector (host-side setup).
func (a *App) InitValues() {
	init := udweave.FloatBits(1.0 / float64(a.dg.G.OrigN))
	for v := uint32(0); int(v) < a.dg.G.N; v++ {
		if a.dg.G.IsBase(v) {
			a.M.GAS.WriteU64(a.dg.FieldVA(v, graph.VValue), init)
		}
		a.M.GAS.WriteU64(a.auxVA+uint64(v)*gasmem.WordBytes, 0)
	}
}

// PhaseDurations splits Elapsed into each completed iteration's
// map+reduce and apply cycles (read from PhaseMarks).
func (a *App) PhaseDurations() [][2]updown.Cycles {
	var out [][2]updown.Cycles
	prev := a.Start
	for i := 0; i+1 < len(a.PhaseMarks); i += 2 {
		out = append(out, [2]updown.Cycles{a.PhaseMarks[i] - prev, a.PhaseMarks[i+1] - a.PhaseMarks[i]})
		prev = a.PhaseMarks[i+1]
	}
	return out
}

// Values reads back the final PageRank vector indexed by original input
// vertex ID (host side, post-run).
func (a *App) Values() []float64 {
	out := make([]float64, a.dg.G.OrigN)
	for v := range out {
		base := a.dg.G.NewID[v]
		out[v] = udweave.BitsFloat(a.M.GAS.ReadU64(a.dg.FieldVA(base, graph.VValue)))
	}
	return out
}

// driver chains the phases of each iteration: map+reduce, then apply.
func (a *App) driver(c *updown.Ctx) {
	if c.State() == nil {
		a.Start = c.Now()
		a.iterLeft = a.cfg.Iterations
		a.launch(c, "map", a.Shuffle)
		return
	}
	a.PhaseMarks = append(a.PhaseMarks, c.Now())
	switch c.State().(string) {
	case "map":
		a.launch(c, "apply", a.applyInv)
	case "apply":
		a.iterLeft--
		if a.iterLeft > 0 {
			a.launch(c, "map", a.Shuffle)
			return
		}
		a.Done = c.Now()
		c.PhaseEnd()
		c.YieldTerminate()
	}
}

// launch starts phase name, the invocation inv over every split vertex,
// annotating the program-phase trace track with the current iteration
// (tracing only; the name is built only when spans are recorded).
func (a *App) launch(c *updown.Ctx, name string, inv *kvmsr.Invocation) {
	c.SetState(name)
	if c.Tracing() {
		c.Phase(fmt.Sprintf("pr iter %d %s", a.cfg.Iterations-a.iterLeft+1, name))
	}
	inv.Launch(c, uint64(a.dg.G.N), c.ContinueTo(a.Label))
}

// kvMap: load this split vertex's record, then stream its neighbors.
func (a *App) kvMap(c *updown.Ctx) {
	v := uint32(c.Op(0))
	c.SetState(&workerState{mapCont: c.Cont(), v: v})
	c.Cycles(6)
	c.DRAMRead(a.dg.RecordVA(v), 8, c.ContinueTo(a.lRecord))
}

// record receives the vertex record. Originals carry their own value;
// sub-vertices fetch the parent's current value with one more read.
func (a *App) record(c *updown.Ctx) {
	st := c.State().(*workerState)
	st.degree = c.Op(graph.VDegree)
	st.neighVA = c.Op(graph.VNeighVA)
	st.totalDeg = c.Op(graph.VTotalDeg)
	parent := uint32(c.Op(graph.VParent))
	c.Cycles(6)
	if parent != st.v {
		c.DRAMRead(a.dg.FieldVA(parent, graph.VValue), 1, c.ContinueTo(a.lParentVal))
		return
	}
	a.beginStream(c, st, c.Op(graph.VValue))
}

// parentVal receives a sub-vertex's parent value.
func (a *App) parentVal(c *updown.Ctx) {
	a.beginStream(c, c.State().(*workerState), c.Op(0))
}

// beginStream computes the per-edge contribution and issues all neighbor
// reads in chunks of eight (Listing 3's kv_map loop).
func (a *App) beginStream(c *updown.Ctx, st *workerState, valueBits uint64) {
	if st.degree == 0 {
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
		return
	}
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
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
	}
}

// kvReduce accumulates one contribution into the target vertex's
// accumulator — through the scratchpad combining cache (default) or a
// memory-side float fetch-add (ablation).
func (a *App) kvReduce(c *updown.Ctx) {
	target := uint32(c.Op(0))
	va := a.auxVA + uint64(target)*gasmem.WordBytes
	if a.cfg.UseMemFetchAdd {
		c.Cycles(4)
		c.DRAMFetchAddF(va, udweave.BitsFloat(c.Op(1)), c.ContinueTo(a.lReduceAck))
		return
	}
	c.Cycles(4)
	a.cc.Add(c, va, c.Op(1))
	a.Shuffle.ReduceDone(c)
	c.YieldTerminate()
}

// reduceAck completes a memory-side-atomic reduce.
func (a *App) reduceAck(c *updown.Ctx) {
	a.Shuffle.ReduceDone(c)
	c.YieldTerminate()
}

// applyBody is the doAll body computing one base member's next value,
// next = (1-d)/N + d * sum, from its members' sums. It maps over all split
// vertices (base members are scattered by the shuffle) and skips
// sub-vertices after inspecting the record.
func (a *App) applyBody(c *updown.Ctx) {
	v := uint32(c.Op(0))
	c.SetState(&applyState{cont: c.Cont(), v: v})
	c.Cycles(4)
	c.DRAMRead(a.dg.RecordVA(v), 8, c.ContinueTo(a.lApplyRead))
}

func (a *App) applyRead(c *updown.Ctx) {
	st := c.State().(*applyState)
	if uint32(c.Op(graph.VParent)) != st.v {
		// Sub-vertex: state lives in the base member's record.
		a.applyInv.Return(c, st.cont)
		c.YieldTerminate()
		return
	}
	// Without in-edge spreading every contribution names the base.
	st.total = 1
	if a.dg.G.Spread() {
		st.total += uint32(c.Op(graph.VSubCount))
	}
	c.Cycles(6)
	a.applyPump(c, st)
}

// applyPump keeps member-sum requests in flight: under UseMemFetchAdd a
// DRAM read of up to eight contiguous accumulators, otherwise a Take of one
// member's cached sum or, for a run longer than gatherRun, a gather of a
// chunk of them. Every reply lands in addSum.
func (a *App) applyPump(c *updown.Ctx, st *applyState) {
	for st.reads < applyWindow && st.next < st.total {
		v, cont := st.v+st.next, c.ContinueTo(a.lSum)
		switch {
		case a.cfg.UseMemFetchAdd:
			n := min(st.total-st.next, 8)
			st.next += n
			c.Cycles(2)
			c.DRAMRead(a.auxVA+uint64(v)*gasmem.WordBytes, int(n), cont)
		case st.total <= gatherRun:
			st.next++
			a.cc.Take(c, a.Shuffle.ReduceLane(uint64(v)), a.auxVA+uint64(v)*gasmem.WordBytes, cont)
		default:
			n := min(st.total-st.next, gatherRun)
			st.next += n
			c.Cycles(2)
			c.SendEvent(udweave.EvwNew(a.Shuffle.ReduceLane(uint64(v)), a.lGather), cont, uint64(v), uint64(n))
		}
		st.reads++
	}
	switch {
	case st.reads > 0 || st.next < st.total: // replies outstanding
	case st.gather:
		c.Reply(st.cont, udweave.FloatBits(st.sum))
		c.YieldTerminate()
	default:
		a.applyFinish(c, st)
	}
}

// addSum accumulates one reply: a chunk of accumulators, a taken sum or a
// gathered partial sum.
func (a *App) addSum(c *updown.Ctx) {
	st := c.State().(*applyState)
	n := c.NOps()
	for i := 0; i < n; i++ {
		st.sum += udweave.BitsFloat(c.Op(i))
	}
	st.reads--
	c.Cycles(2 * n)
	a.applyPump(c, st)
}

// gather runs on the reduce lane of a chunk's first member: it takes the
// sums of the chunk's members (first, count) and replies with their total.
func (a *App) gather(c *updown.Ctx) {
	st := &applyState{cont: c.Cont(), gather: true, v: uint32(c.Op(0)), total: uint32(c.Op(1))}
	c.SetState(st)
	c.Cycles(4)
	a.applyPump(c, st)
}

// applyFinish writes the next value, under UseMemFetchAdd clears the
// members' accumulators for the next iteration (Take already removed the
// cached ones), then returns the map task.
func (a *App) applyFinish(c *updown.Ctx, st *applyState) {
	next := (1-Damping)/float64(a.dg.G.OrigN) + Damping*st.sum
	if math.IsNaN(next) {
		panic("pagerank: NaN value")
	}
	c.Cycles(8)
	ack := c.ContinueTo(a.lApplyAck)
	st.writes = 1
	c.DRAMWrite(a.dg.FieldVA(st.v, graph.VValue), ack, udweave.FloatBits(next))
	if !a.cfg.UseMemFetchAdd {
		return
	}
	var zeros [7]uint64
	for off, n := uint32(0), uint32(0); off < st.total; off += n {
		// A write stops at the end of its distribution block: the words
		// past it live on another node (and a replicated write must land
		// on one stripe).
		n = min(st.total-off, 7, a.auxBlock-(st.v+off)%a.auxBlock)
		st.writes++
		c.DRAMWrite(a.auxVA+uint64(st.v+off)*gasmem.WordBytes, ack, zeros[:n]...)
	}
}

func (a *App) applyAck(c *updown.Ctx) {
	st := c.State().(*applyState)
	st.writes--
	c.Cycles(1)
	if st.writes == 0 {
		a.applyInv.Return(c, st.cont)
		c.YieldTerminate()
	}
}
