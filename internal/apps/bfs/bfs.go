// Package bfs implements the paper's push-based breadth-first search
// (Section 4.2): each round is a KVMSR invocation whose kv_map tasks are
// bound one-per-accelerator (over the per-accelerator sections of the
// current frontier); each map task then acts as a local master, organizing
// its accelerator's 64 lanes as workers over its frontier section — the
// paper's departure from flat data parallelism. Discovered neighbors are
// emitted to kv_reduce tasks, which mark the vertex visited, record
// distance and parent, and append the vertex (plus its split sub-vertices)
// to their own accelerator's next-frontier segment.
//
// Rounds repeat until a round's reduces append nothing (each newly visited
// vertex adds 1 to the launch's kvmsr.ReduceDoneAdd sum). The frontier uses
// the contiguous-per-node DRAMmalloc layout the paper highlights for data
// locality — each accelerator's segment sits on the accelerator's own node
// — and the reduce binding completes it: where the graph's nodes are the
// lane set's, kv_reduce for vertex v is bound (kvmsr.Owner) to the node
// homing record v, so the mark and the frontier append are local writes and
// — because the entry goes to the segment of an accelerator of that same
// node, whose lanes expand it — next round's vertex task reads the segment,
// the record and its neighbor list locally too. The shuffle is then BFS's
// only cross-node traffic. That one binding is all BFS needs; elsewhere
// reduces are Hash-bound.
package bfs

import (
	"fmt"

	"updown"
	"updown/internal/collections"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// Unvisited is the distance value of unreached vertices.
const Unvisited = ^uint64(0)

// subWindow bounds in-flight per-vertex tasks per worker lane.
const subWindow = 16

// Config selects run parameters.
type Config struct {
	// Lanes must be accelerator-aligned (default: whole machine).
	Lanes kvmsr.LaneSet
	// Root is the search root (original vertex ID; the paper uses 0 for
	// ER graphs and 28 for RMAT).
	Root uint32
}

// App is a BFS program instance; its Driver's shuffle is the round
// invocation.
type App struct {
	updown.Driver
	dg  *graph.DeviceGraph
	cfg Config

	f *collections.Frontier

	lSubDone   udweave.Label
	lSubTask   udweave.Label
	lFrontChnk udweave.Label
	stream     *graph.Streamer
	lVertDone  udweave.Label
	lRedRec    udweave.Label
	lAppendAck udweave.Label
	lSeedVisit udweave.Label
	lRootSeen  udweave.Label
	// The root's reduce owner lane and its accelerator, where it is seeded.
	rootOwner updown.NetworkID
	rootAccel int

	visited udweave.Slot[map[uint32]bool]

	Rounds int
	// Traversed counts edges explored across all rounds (the GTEPS
	// numerator).
	Traversed uint64
	// RoundLog records every round, launch to completion.
	RoundLog []Round
}

// Round is one round's record: the cycles at which the driver launched it
// and heard it complete, its tuples and its newly visited vertices.
type Round struct {
	Launch, Done updown.Cycles
	Tuples, New  uint64
}

// mapState is the accelerator-master kv_map task.
type mapState struct {
	mapCont    uint64
	cnt, round uint64
	expect     int
	emits      uint64
}

// subState is one worker lane's share of a frontier section.
type subState struct {
	cont         uint64
	segVA        gasmem.VA
	next, hi     uint64
	round        uint64
	outstanding  int
	chunkPending bool
	emitted      uint64
}

// New builds the program against a loaded device graph.
func New(m *updown.Machine, dg *graph.DeviceGraph, cfg Config) (*App, error) {
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	if int(cfg.Root) >= dg.G.OrigN {
		return nil, fmt.Errorf("bfs: root %d outside graph of %d vertices", cfg.Root, dg.G.OrigN)
	}
	a := &App{Driver: updown.Driver{M: m, Lane: cfg.Lanes.First}, dg: dg, cfg: cfg, visited: udweave.NewSlot[map[uint32]bool](m.Prog)}
	var reduce kvmsr.ReduceBinding // nil: Hash
	if own, ok := dg.Owner(m.Arch, m.GAS, cfg.Lanes); ok {
		reduce = own
	}
	p := m.Prog

	accels := cfg.Lanes.Count / m.Arch.LanesPerAccel
	var err error
	a.f, err = collections.NewFrontier(p, "bfs.front", cfg.Lanes, 4*(dg.G.N/max(accels, 1))+256)
	if err != nil {
		return nil, err
	}
	if err := a.f.Alloc(m.GAS); err != nil {
		return nil, err
	}

	kvMap := p.Define("bfs.kv_map", a.kvMap)
	a.lSubDone = p.Define("bfs.sub_done", a.subDone)
	a.lSubTask = p.Define("bfs.sub_task", a.subTask)
	a.lFrontChnk = p.Define("bfs.front_chunk", a.frontChunk)
	a.stream = graph.NewStreamer(p, dg, [3]string{"bfs.vert_task", "bfs.v_rec", "bfs.v_chunk"}, a.emit)
	a.lVertDone = p.Define("bfs.vert_done", a.vertDone)
	kvReduce := p.Define("bfs.kv_reduce", a.kvReduce)
	a.lRedRec = p.Define("bfs.red_rec", a.redRec)
	a.lAppendAck = p.Define("bfs.append_ack", a.appendAck)
	a.lSeedVisit = p.Define("bfs.seed_visit", a.seedVisit)
	a.lRootSeen = p.Define("bfs.root_seen", a.rootSeen)
	a.Label = p.Define("bfs.driver", a.driver)

	a.Shuffle, err = kvmsr.New(p, kvmsr.Spec{
		Name:          "bfs.round",
		NumKeys:       uint64(accels),
		MapEvent:      kvMap,
		ReduceEvent:   kvReduce,
		MapBinding:    kvmsr.Stride{Step: m.Arch.LanesPerAccel},
		ReduceBinding: reduce,
		Lanes:         cfg.Lanes,
		Resilience:    m.Resilience,
		// Traversed counts every emitted (neighbor, dist, parent) tuple
		// and the first arrival picks the BFS-tree parent. The visited
		// check makes every later tuple of a vertex a drop, so the shuffle
		// retires repeats at hand-off.
		Coalesce:  m.Coalesce,
		FirstWins: true,
	})
	if err != nil {
		return nil, err
	}
	a.rootOwner = a.Shuffle.Spec().ReduceBinding.Lane(uint64(dg.G.NewID[cfg.Root]), cfg.Lanes)
	a.rootAccel = a.f.AccelOfLane(int(a.rootOwner))
	return a, nil
}

// InitValues prepares distances and seeds the root's members into the
// segment its reduce would append them to (host-side setup).
func (a *App) InitValues() {
	for v := uint32(0); int(v) < a.dg.G.N; v++ {
		a.M.GAS.WriteU64(a.dg.FieldVA(v, graph.VValue), Unvisited)
		a.M.GAS.WriteU64(a.dg.FieldVA(v, graph.VAux), Unvisited)
	}
	rootBase := a.dg.G.NewID[a.cfg.Root]
	a.M.GAS.WriteU64(a.dg.FieldVA(rootBase, graph.VValue), 0)
	a.f.HostSeed(a.M.GAS, a.rootAccel, 0, a.dg.G.Members(a.cfg.Root))
}

// Distances reads back the hop distances indexed by original input
// vertex ID (post-run).
func (a *App) Distances() []uint64 {
	out := make([]uint64, a.dg.G.OrigN)
	for v := range out {
		out[v] = a.M.GAS.ReadU64(a.dg.FieldVA(a.dg.G.NewID[v], graph.VValue))
	}
	return out
}

// Parents reads back the BFS tree, indexed by original input vertex ID;
// values are split-vertex IDs (Unvisited for unreached and for the root).
func (a *App) Parents() []uint64 {
	out := make([]uint64, a.dg.G.OrigN)
	for v := range out {
		out[v] = a.M.GAS.ReadU64(a.dg.FieldVA(a.dg.G.NewID[v], graph.VAux))
	}
	return out
}

// driver launches round 0 when posted (no operands), then the next round
// on each completion (emitted, cumulative, new) that visited something.
func (a *App) driver(c *updown.Ctx) {
	if c.NOps() == 0 {
		a.Start = c.Now()
		a.launch(c)
		return
	}
	a.Rounds++
	a.Traversed += c.Op(0)
	r := &a.RoundLog[len(a.RoundLog)-1]
	r.Done, r.Tuples, r.New = c.Now(), c.Op(0), c.Op(2)
	if r.New == 0 {
		// Nothing appended: the next frontier is empty, the search complete.
		a.Done = c.Now()
		c.PhaseEnd()
		c.YieldTerminate()
		return
	}
	a.launch(c)
}

// launch starts the next round and opens its record. It annotates the
// program-phase trace track with the frontier level (tracing only; the
// name is built only when spans are recorded).
func (a *App) launch(c *updown.Ctx) {
	round := uint64(a.Rounds)
	if c.Tracing() {
		c.Phase(fmt.Sprintf("bfs round %d", round))
	}
	a.RoundLog = append(a.RoundLog, Round{Launch: c.Now()})
	a.Shuffle.LaunchWithArg(c, uint64(a.f.Accels()), round, c.ContinueTo(a.Label))
}

// visitedSet returns the executing lane's visited set.
func (a *App) visitedSet(c *updown.Ctx) map[uint32]bool {
	v := a.visited.Get(c)
	if *v == nil {
		*v = make(map[uint32]bool)
	}
	return *v
}

// seedVisit marks the root visited on its reduce owner lane.
func (a *App) seedVisit(c *updown.Ctx) {
	a.visitedSet(c)[uint32(c.Op(0))] = true
	c.ScratchAccess(1)
	c.Reply(c.Cont())
	c.YieldTerminate()
}

// kvMap is the per-accelerator map task: consume this accelerator's
// frontier section by fanning subtasks out to the accelerator's lanes.
// Round 0 on the root's accelerator expands the members InitValues seeded
// there, once the root's owner lane, one of this accelerator's, has marked
// it visited: the ack precedes every tuple the round sends.
func (a *App) kvMap(c *updown.Ctx) {
	round := c.Op(1)
	parity := int(round & 1)
	st := &mapState{mapCont: c.Cont(), cnt: uint64(a.f.Count(c, parity)), round: round}
	a.f.Reset(c, parity)
	if round == 0 && a.f.AccelOfLane(int(c.NetworkID())) == a.rootAccel {
		st.cnt = uint64(len(a.dg.G.Members(a.cfg.Root)))
		c.SetState(st)
		c.SendEvent(udweave.EvwNew(a.rootOwner, a.lSeedVisit), c.ContinueTo(a.lRootSeen), uint64(a.dg.G.NewID[a.cfg.Root]))
		return
	}
	a.expand(c, st)
}

func (a *App) rootSeen(c *updown.Ctx) { a.expand(c, c.State().(*mapState)) }

// expand fans the accelerator's frontier section out to its lanes.
func (a *App) expand(c *updown.Ctx, st *mapState) {
	if st.cnt == 0 {
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
		return
	}
	c.SetState(st)
	lpa := uint64(a.M.Arch.LanesPerAccel)
	chunk := (st.cnt + lpa - 1) / lpa
	self := c.NetworkID()
	cont := c.ContinueTo(a.lSubDone)
	c.Cycles(10)
	for i := uint64(0); i*chunk < st.cnt; i++ {
		lo := i * chunk
		hi := min(lo+chunk, st.cnt)
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(self+updown.NetworkID(i), a.lSubTask), cont, lo, hi, st.round)
		st.expect++
	}
}

// subDone aggregates worker completions at the map task.
func (a *App) subDone(c *updown.Ctx) {
	st := c.State().(*mapState)
	st.emits += c.Op(0)
	st.expect--
	c.Cycles(3)
	if st.expect == 0 {
		a.Shuffle.EmitFrom(c, st.emits)
		a.Shuffle.Return(c, st.mapCont)
		c.YieldTerminate()
	}
}

// subTask processes one worker lane's slice of the frontier section.
func (a *App) subTask(c *updown.Ctx) {
	accel := a.f.AccelOfLane(int(c.NetworkID()))
	round := c.Op(2)
	st := &subState{
		cont:  c.Cont(),
		segVA: a.f.SegmentVA(accel, int(round&1)),
		next:  c.Op(0),
		hi:    c.Op(1),
		round: round,
	}
	c.SetState(st)
	c.Cycles(6)
	a.subPump(c, st)
}

// subPump reads the next frontier chunk when the task window has room.
func (a *App) subPump(c *updown.Ctx, st *subState) {
	if !st.chunkPending && st.next < st.hi && st.outstanding < subWindow {
		n := st.hi - st.next
		if n > 8 {
			n = 8
		}
		st.chunkPending = true
		c.Cycles(2)
		c.DRAMRead(st.segVA+st.next*gasmem.WordBytes, int(n), c.ContinueTo(a.lFrontChnk))
	}
	if st.outstanding == 0 && !st.chunkPending && st.next >= st.hi {
		// This lane sends nothing more this round, and its own map phase
		// ended at lane_start: flush its partly filled pack buffers now
		// rather than leave them to the max-linger guard.
		a.Shuffle.Flush(c)
		c.Cycles(2)
		c.Reply(st.cont, st.emitted)
		c.YieldTerminate()
	}
}

// frontChunk spawns one vertex task per frontier entry.
func (a *App) frontChunk(c *updown.Ctx) {
	st := c.State().(*subState)
	st.chunkPending = false
	self := c.NetworkID()
	cont := c.ContinueTo(a.lVertDone)
	for _, v := range c.Ops() {
		c.Cycles(2)
		a.stream.Start(c, self, cont, 0, v, st.round+1, v)
		st.outstanding++
	}
	st.next += uint64(c.NOps())
	a.subPump(c, st)
}

// vertDone retires one vertex task.
func (a *App) vertDone(c *updown.Ctx) {
	st := c.State().(*subState)
	st.emitted += c.Op(0)
	st.outstanding--
	c.Cycles(2)
	a.subPump(c, st)
}

// emit pushes one neighbor of a streamed frontier vertex into the shuffle
// as (neighbor, distance, parent). Sends are unaccounted SendReduce calls
// whose count flows back to the map task for EmitFrom crediting.
func (a *App) emit(c *updown.Ctx, _, nb, dist, parent uint64) {
	a.Shuffle.SendReduce(c, nb, dist, parent)
}

// kvReduce marks one discovered vertex: the reduce binding makes this lane
// the exclusive owner of the vertex, so the scratchpad visited check is
// race-free (events are atomic).
func (a *App) kvReduce(c *updown.Ctx) {
	v := uint32(c.Op(0))
	dist := c.Op(1)
	src := c.Op(2)
	vis := a.visitedSet(c)
	c.ScratchAccess(1)
	c.Cycles(4)
	if vis[v] {
		a.Shuffle.ReduceDone(c)
		c.YieldTerminate()
		return
	}
	vis[v] = true
	// Record distance and BFS-tree parent (adjacent words); the record's
	// sub-vertex range decides what to append to the next frontier.
	c.DRAMWrite(a.dg.FieldVA(v, graph.VValue), udweave.IGNRCONT, dist, src)
	c.SetState(&redWork{v: v, dist: dist})
	c.DRAMRead(a.dg.FieldVA(v, graph.VSubStart), 2, c.ContinueTo(a.lRedRec))
}

type redWork struct {
	v           uint32
	dist        uint64
	pendingAcks int
}

func (a *App) redRec(c *updown.Ctx) {
	st := c.State().(*redWork)
	subStart := uint32(c.Op(0))
	subCount := uint32(c.Op(1))
	parity := int(st.dist & 1)
	ack := c.ContinueTo(a.lAppendAck)
	st.pendingAcks = int(1 + subCount)
	c.Cycles(4)
	a.f.Append(c, parity, uint64(st.v), ack)
	for i := uint32(0); i < subCount; i++ {
		a.f.Append(c, parity, uint64(subStart+i), ack)
	}
}

func (a *App) appendAck(c *updown.Ctx) {
	st := c.State().(*redWork)
	st.pendingAcks--
	c.Cycles(2)
	if st.pendingAcks == 0 {
		a.Shuffle.ReduceDoneAdd(c, 1) // one newly visited vertex
		c.YieldTerminate()
	}
}
