// Package pointq is the point-query frame shared by the serving engines
// (bfs.PointBFS, pagerank.PointPPR): everything about serving (source,
// target) queries from a resident graph except the algorithm. An Engine is
// built once against a loaded graph and then serves an unbounded stream of
// queries. Each of its Slots holds one in-flight query whose whole state
// lives in a preallocated DRAM arena — never in lane scratch — so reduces
// run with ReduceAnyLane and the coalescing shuffle executes tuples on the
// destination node's distributor lane without a forward hop.
//
// A slot is the unit of execution. It owns a contiguous lane slice
// (Lanes.Count/Slots lanes). The engine registers one KVMSR invocation
// over slot 0's slice and each slot launches it on its own slice, a
// translate of slot 0's (kvmsr.Invocation.LaunchAt), so its launch
// broadcast, its map master, its per-vertex tasks, its reduces and its
// termination traffic all stay there, and the engine's event labels do
// not grow with its slots. A seeded slot
// is driven by its own thread on the slice's first lane, its control
// lane, which chains the query's rounds — round k of a query is fully
// reduced before its round k+1 expands — and records the cycle the chain
// ended. The control lane also runs the master and the frontier pump, so
// vertex tasks and reduces run on the slice's other lanes, and a reduce's
// lane depends on the lane that sent it as well as on its vertex: a hub's
// in-flow spreads over the slice instead of queueing on one lane. Nothing
// synchronizes one slot with another: a short query finishes, is
// harvested and its slot reseeded while a long one is still running, and
// an unseeded slot runs nothing. Every shared word of a slot sits behind
// a DRAM fetch-add gate, so a query's answer is independent of what else
// is in flight and of the shard count.
//
// A Kernel supplies only what differs between algorithms: extra seed
// words, what a dry slot writes, the per-frontier-vertex task and the
// reduce chain.
package pointq

import (
	"errors"
	"fmt"

	"updown"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/prng"
	"updown/internal/udweave"
)

// Window bounds a slot's in-flight per-vertex tasks, counting 8 for each
// frontier chunk read still in flight (and a task's in-flight sub-vertex
// streamers). A vertex task is two or three dependent DRAM trips and a
// round's frontier is read from one lane: 64 tasks keep a 16-lane slice
// busy where 16 left it waiting on DRAM.
const Window = 64

// Config sizes a point-query engine.
type Config struct {
	// Lanes is the engine's lane set (default: whole machine).
	Lanes kvmsr.LaneSet
	// Slots is the number of concurrent queries (default: one per
	// accelerator, floor one). Each slot needs a lane slice of its own: with
	// more slots than lanes New returns ErrTooManySlots.
	Slots int
}

// ErrTooManySlots is returned (wrapped, with the counts) by New when
// Config.Slots exceeds the lanes.
var ErrTooManySlots = errors.New("pointq: too many slots")

// Per-slot arena, in words from the slot's base (N split vertices, P
// kernel planes):
//
//	hdr[8]             HResult, HDone, HFront+parity ×2, HTouch, HTarget, spare ×2
//	touched[N]         every vertex whose plane-0 mark was set (Recycle's work list)
//	plane[P][N]        kernel state; plane 0 is the first-touch mark
//	front[2][N+fSlack] parity frontiers of split-vertex IDs
const (
	hdrWords = 8
	fSlack   = 8

	HResult = 0 // the answer; 0 until (and unless) the kernel writes one
	HDone   = 1 // completion cycle, 0 until the query resolves
	HFront  = 2 // frontier length of parity 0, then parity 1
	HTouch  = 4 // length of the touched list
	HTarget = 5 // base member ID of the query target
)

// Kernel is the algorithm plugged into the frame.
type Kernel struct {
	// Name prefixes every event label ("pbfs"); Stream names the
	// adjacency streamer's three events under it.
	Name   string
	Stream [3]string
	// Planes is the number of N-word state planes per slot (≥ 1).
	Planes int
	// Seed (host-side) installs the kernel's own seed words for a query
	// from base member sb to tb and returns the seed frontier's length —
	// sb and its first nfront-1 sub-vertices — and the initial result.
	Seed func(slot, sb, tb uint64) (nfront, result uint64)
	// Resolve runs on the map thread of a slot that found its answer or
	// ran dry; it must end in Engine.Retire.
	Resolve func(c *udweave.Ctx, t *Task)
	// Visit starts the task of frontier vertex v (normally on
	// Engine.Lane(t.Slot, v)); the task replies the number of reduces it
	// sent to cont.
	Visit func(c *udweave.Ctx, t *Task, v, cont uint64)
	// Reduce is the kv_reduce event: operands are the Key and the two
	// value words; every path must end in Engine.ReduceDone.
	Reduce udweave.Handler
}

// Engine is a resident point-query engine.
type Engine struct {
	m  *updown.Machine
	dg *graph.DeviceGraph
	k  Kernel

	lanes     kvmsr.LaneSet
	sliceSize int
	n, fcap   uint64
	slotVA    []gasmem.VA
	// inv is the round invocation, over slot 0's slice; slot s launches
	// it on its own.
	inv *kvmsr.Invocation

	lDriver, lHdr, lIdleAck, lClrAck, lChunk, lVDone udweave.Label
	stream                                           *graph.Streamer

	// done[s] is the cycle slot s's round chain ended, -1 from Seed until
	// then. Its only in-simulation writer is the slot's driver thread, so
	// the host reads it race-free at any quiesced point.
	done []updown.Cycles
	// ended[s] is set by the map task of the round that resolved slot s;
	// the driver, on the same lane, ends the chain with that round.
	ended []bool
	// seeded lists the slots Seed has filled since the last Post.
	seeded []int
}

// New builds a resident engine over a loaded graph. Build it before
// checkpointing the warm machine: the slot arenas are part of the
// snapshot, and an identical rebuild against the restored machine
// reattaches at the same VAs and labels.
func New(m *updown.Machine, dg *graph.DeviceGraph, cfg Config, k Kernel) (*Engine, error) {
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	if cfg.Slots <= 0 {
		cfg.Slots = max(1, cfg.Lanes.Count/m.Arch.LanesPerAccel)
	}
	if cfg.Slots > cfg.Lanes.Count {
		return nil, fmt.Errorf("%w: %s: %d slots over %d lanes (need a lane slice each)", ErrTooManySlots, k.Name, cfg.Slots, cfg.Lanes.Count)
	}
	e := &Engine{m: m, dg: dg, k: k, lanes: cfg.Lanes, sliceSize: cfg.Lanes.Count / cfg.Slots,
		n: uint64(dg.G.N), done: make([]updown.Cycles, cfg.Slots), ended: make([]bool, cfg.Slots),
		seeded: make([]int, 0, cfg.Slots)}
	e.fcap = e.n + fSlack

	// One region per slot, resident on the slot's home node, so a query's
	// marks, frontier and result words are all local to its lane slice.
	perSlot := (hdrWords + (1+uint64(k.Planes))*e.n + 2*e.fcap) * gasmem.WordBytes
	e.slotVA = make([]gasmem.VA, cfg.Slots)
	for s := range e.slotVA {
		va, err := m.GAS.DRAMmalloc(perSlot, m.Arch.NodeOf(e.slotLane(uint64(s))), 1, 4096)
		if err != nil {
			return nil, fmt.Errorf("pointq: %s slot %d: %w", k.Name, s, err)
		}
		e.slotVA[s] = va
	}

	def := func(name string, h udweave.Handler) udweave.Label { return m.Prog.Define(k.Name+"."+name, h) }
	spec := kvmsr.Spec{
		Name:        k.Name + ".round",
		NumKeys:     1, // the slot's one map task, on the slice's first lane
		Lanes:       e.Slice(0),
		MapEvent:    def("kv_map", e.kvMap),
		ReduceEvent: def("kv_reduce", k.Reduce),
		ReduceBinding: kvmsr.ReduceFunc(func(key uint64, _ kvmsr.LaneSet) updown.NetworkID {
			slot, v := SplitKey(key)
			return e.worker(slot, prng.Mix64(v)+key>>spreadShift&spreadMask)
		}),
		Resilience: m.Resilience,
		Coalesce:   m.Coalesce,
		// All reduce state is per-slot DRAM behind fetch-add gates, so any
		// lane may run any tuple — the distributor executes packed tuples
		// in place, the core of the small-task fast path.
		ReduceAnyLane: true,
	}
	e.lDriver = def("driver", e.driver)
	e.lHdr = def("hdr", e.hdr)
	e.lIdleAck = def("idle_ack", e.idleAck)
	e.lClrAck = def("clr_ack", e.clrAck)
	e.lChunk = def("chunk", e.chunk)
	names := k.Stream
	for i := range names {
		names[i] = k.Name + "." + names[i]
	}
	e.stream = graph.NewStreamer(m.Prog, dg, names, e.emit)
	e.lVDone = def("v_done", e.vDone)
	var err error
	if e.inv, err = kvmsr.New(m.Prog, spec); err != nil {
		return nil, err
	}
	return e, nil
}

// A reduce key is slot<<40 | spread<<32 | vertex, where spread is the
// emitting lane's index in the slice, mod 256. The reduce binding adds it
// to the vertex hash, so one vertex's tuples from different lanes reduce
// on different lanes.
const (
	spreadShift = 32
	spreadMask  = 0xff
	slotShift   = 40
)

// SplitKey unpacks a reduce key into its slot and vertex, whatever its
// spread.
func SplitKey(key uint64) (slot, v uint64) { return key >> slotShift, key & 0xffffffff }

// slotLane is the first lane of slot's slice: its driver, invocation
// master and map task run there.
func (e *Engine) slotLane(slot uint64) updown.NetworkID {
	return e.lanes.First + updown.NetworkID(int(slot)*e.sliceSize)
}

// Slice is slot's lane slice: every event of a query in that slot runs
// there.
func (e *Engine) Slice(slot int) kvmsr.LaneSet {
	return kvmsr.LaneSet{First: e.slotLane(uint64(slot)), Count: e.sliceSize}
}

// slotOf is the slot whose slice holds lane id.
func (e *Engine) slotOf(id updown.NetworkID) uint64 {
	return uint64(e.lanes.Index(id) / e.sliceSize)
}

// Lane hashes vertex v over slot's worker lanes: where v's task and its
// sub-vertex streamers run.
func (e *Engine) Lane(slot, v uint64) updown.NetworkID { return e.worker(slot, prng.Mix64(v)) }

// worker maps hash h to one of slot's worker lanes: every lane of the
// slice but the first, which runs the driver, the master and the map
// task, unless the slice has only that one.
func (e *Engine) worker(slot, h uint64) updown.NetworkID {
	first, n := e.slotLane(slot), uint64(e.sliceSize)
	if n > 1 {
		first, n = first+1, n-1
	}
	return first + updown.NetworkID(h%n)
}

// HdrVA addresses header word w of a slot.
func (e *Engine) HdrVA(slot, w uint64) gasmem.VA { return e.slotVA[slot] + w*gasmem.WordBytes }

// TouchVA addresses entry i of a slot's touched list.
func (e *Engine) TouchVA(slot, i uint64) gasmem.VA { return e.HdrVA(slot, hdrWords+i) }

// PlaneVA addresses vertex v's word in one of a slot's state planes.
func (e *Engine) PlaneVA(slot, plane, v uint64) gasmem.VA {
	return e.HdrVA(slot, hdrWords+(1+plane)*e.n+v)
}

// FrontVA addresses the start of a slot's parity frontier.
func (e *Engine) FrontVA(slot, parity uint64) gasmem.VA {
	return e.HdrVA(slot, hdrWords+(1+uint64(e.k.Planes))*e.n+parity*e.fcap)
}

// ---- host API: call at quiesced points only ---------------------------

// Slots returns the number of concurrent queries the engine holds.
func (e *Engine) Slots() int { return len(e.slotVA) }

// Vertices returns the number of input vertices Seed accepts.
func (e *Engine) Vertices() int { return e.dg.G.OrigN }

// Seed installs query (src, tgt) into a recycled slot; the next Post
// starts it.
func (e *Engine) Seed(slot int, src, tgt uint32) {
	gas, s := e.m.GAS, uint64(slot)
	sb, tb := uint64(e.dg.G.NewID[src]), uint64(e.dg.G.NewID[tgt])
	nfront, result := e.k.Seed(s, sb, tb)
	for i := uint64(0); i < nfront; i++ {
		gas.WriteU64(e.FrontVA(s, 0)+i*gasmem.WordBytes, sb+i)
	}
	hdr := [hdrWords]uint64{HResult: result, HFront: nfront, HTouch: 1, HTarget: tb}
	gas.WriteWords(e.HdrVA(s, 0), hdr[:])
	gas.WriteU64(e.PlaneVA(s, 0, sb), 1)
	gas.WriteU64(e.TouchVA(s, 0), sb)
	e.done[slot], e.ended[slot] = -1, false
	e.seeded = append(e.seeded, slot)
}

// Recycle clears a completed slot for reuse. Cost is proportional to the
// vertices the query touched, so footprint and recycle work both stay
// flat across an unbounded query stream.
func (e *Engine) Recycle(slot int) {
	gas, s := e.m.GAS, uint64(slot)
	for i, n := uint64(0), gas.ReadU64(e.HdrVA(s, HTouch)); i < n; i++ {
		v := gas.ReadU64(e.TouchVA(s, i))
		for p := 0; p < e.k.Planes; p++ {
			gas.WriteU64(e.PlaneVA(s, uint64(p), v), 0)
		}
	}
	gas.WriteWords(e.HdrVA(s, 0), zeroHdr[:])
}

var zeroHdr [hdrWords]uint64

// Result returns a completed slot's raw result word.
func (e *Engine) Result(slot int) uint64 { return e.m.GAS.ReadU64(e.HdrVA(uint64(slot), HResult)) }

// DoneCycle returns the in-simulation cycle the slot's query resolved at
// — written by a single in-sim writer, so it is shard-invariant.
func (e *Engine) DoneCycle(slot int) updown.Cycles {
	return updown.Cycles(e.m.GAS.ReadU64(e.HdrVA(uint64(slot), HDone)))
}

// Post starts, at cycle at, the round chain of every slot seeded since
// the last Post. Slots already running are not touched.
func (e *Engine) Post(at updown.Cycles) {
	for _, slot := range e.seeded {
		e.m.StartAt(at, updown.EvwNew(e.slotLane(uint64(slot)), e.lDriver))
	}
	e.seeded = e.seeded[:0]
}

// Busy counts the slots seeded and not yet finished.
func (e *Engine) Busy() (n int) {
	for _, d := range e.done {
		if d < 0 {
			n++
		}
	}
	return n
}

// SlotDone reports the cycle a posted slot's round chain ended: from then
// on nothing of the query is in flight and the slot may be read and
// recycled.
func (e *Engine) SlotDone(slot int) (updown.Cycles, bool) { return e.done[slot], e.done[slot] >= 0 }

// ---- per-slot round driver and map task ---------------------------------

type driverState struct{ slot, round uint64 }

// driver chains one slot's rounds until one completes whose map task
// resolved the query or whose reduces found the answer (a nonzero sum, the
// completion's third operand). A round that emits nothing leaves the next
// one an empty frontier, which resolves.
func (e *Engine) driver(c *udweave.Ctx) {
	st, _ := c.State().(*driverState)
	switch {
	case st == nil:
		st = &driverState{slot: e.slotOf(c.NetworkID())}
		c.SetState(st)
	case e.ended[st.slot] || c.Op(2) != 0:
		e.done[st.slot] = c.Now()
		c.YieldTerminate()
		return
	default:
		st.round++
	}
	e.inv.LaunchAt(c, e.slotLane(st.slot), 1, st.round, c.ContinueTo(e.lDriver))
}

// Task is one slot's map task for one round: read the slot header, then
// stream the frontier through Kernel.Visit tasks on the slot's lane slice.
type Task struct {
	Slot, Round, Target uint64

	mapCont     uint64
	segVA       gasmem.VA
	next, hi    uint64
	outstanding int
	chunks      int
	clears      int
	emits       uint64
}

func (e *Engine) kvMap(c *udweave.Ctx) {
	t := &Task{mapCont: c.Cont(), Slot: e.slotOf(c.NetworkID()), Round: c.Op(1)}
	c.SetState(t)
	c.Cycles(4)
	c.DRAMRead(e.HdrVA(t.Slot, 0), 6, c.ContinueTo(e.lHdr))
}

func (e *Engine) hdr(c *udweave.Ctx) {
	t := c.State().(*Task)
	parity := t.Round & 1
	cnt := c.Op(HFront + int(parity))
	t.Target = c.Op(HTarget)
	c.Cycles(4)
	switch {
	case c.Op(HResult) != 0 || cnt == 0:
		// Answer seeded, or frontier dry: the kernel finalizes the header
		// and stamps the done cycle. (A round whose reduces find the
		// answer ends the chain itself; no round reads its header.)
		e.ended[t.Slot] = true
		e.k.Resolve(c, t)
	default:
		t.segVA, t.hi = e.FrontVA(t.Slot, parity), cnt
		// Retire the consumed parity's count now (acked, before Return) so
		// the next round of this parity starts from zero; this round's
		// reduces only touch the opposite parity's counter.
		t.clears++
		c.DRAMWrite(e.HdrVA(t.Slot, HFront+parity), c.ContinueTo(e.lClrAck), 0)
		e.pump(c, t)
	}
}

// Retire closes a resolved slot from its map thread: words are written at
// header word w and the acknowledgment returns the map task.
func (e *Engine) Retire(c *udweave.Ctx, t *Task, w uint64, words ...uint64) {
	c.DRAMWrite(e.HdrVA(t.Slot, w), c.ContinueTo(e.lIdleAck), words...)
}

func (e *Engine) idleAck(c *udweave.Ctx) {
	t := c.State().(*Task)
	e.inv.Return(c, t.mapCont)
	c.YieldTerminate()
}

func (e *Engine) clrAck(c *udweave.Ctx) {
	t := c.State().(*Task)
	t.clears--
	c.Cycles(1)
	e.pump(c, t)
}

// pump keeps the slot's frontier streaming: it sends chunk reads while
// the vertex tasks in flight plus 8 per pending chunk stay under Window,
// reserving each chunk's indices as its read goes out.
func (e *Engine) pump(c *udweave.Ctx, t *Task) {
	for t.next < t.hi && t.outstanding+8*t.chunks < Window {
		n := min(t.hi-t.next, 8)
		t.chunks++
		c.Cycles(2)
		c.DRAMRead(t.segVA+t.next*gasmem.WordBytes, int(n), c.ContinueTo(e.lChunk))
		t.next += n
	}
	if t.outstanding == 0 && t.chunks == 0 && t.clears == 0 && t.next >= t.hi {
		e.inv.EmitFrom(c, t.emits)
		e.idleAck(c)
	}
}

// chunk fans one frontier chunk out to the kernel's vertex tasks.
func (e *Engine) chunk(c *udweave.Ctx) {
	t := c.State().(*Task)
	t.chunks--
	cont := c.ContinueTo(e.lVDone)
	for _, v := range c.Ops() {
		c.Cycles(2)
		e.k.Visit(c, t, v, cont)
		t.outstanding++
	}
	e.pump(c, t)
}

func (e *Engine) vDone(c *udweave.Ctx) {
	t := c.State().(*Task)
	t.emits += c.Op(0)
	t.outstanding--
	c.Cycles(2)
	e.pump(c, t)
}

// ---- adjacency streamer -------------------------------------------------

// Stream starts a streamer for split vertex v on its slice lane: every
// out-neighbor nb becomes a reduce tuple (nb's key, a, b), and cont
// receives the number sent.
func (e *Engine) Stream(c *udweave.Ctx, cont, slot, v, a, b uint64) {
	e.stream.Start(c, e.Lane(slot, v), cont, slot, v, a, b)
}

// EmitChunk sends one reduce tuple (nb's key, a, b) per neighbor in the
// current event's operands and returns the number it sent.
func (e *Engine) EmitChunk(c *udweave.Ctx, slot, a, b uint64) uint64 {
	return e.stream.EmitChunk(c, slot, a, b)
}

func (e *Engine) emit(c *udweave.Ctx, slot, nb, a, b uint64) {
	e.inv.SendReduce(c, e.key(slot, nb, c.NetworkID()), a, b)
}

// key is vertex v's reduce key in slot for a tuple sent from lane from.
func (e *Engine) key(slot, v uint64, from updown.NetworkID) uint64 {
	return slot<<slotShift | uint64(from-e.slotLane(slot))&spreadMask<<spreadShift | v
}

// ---- reduce-side helpers -------------------------------------------------

// WriteFront writes vertex v and its subCount split sub-vertices (IDs from
// subStart) into slot's parity frontier at index idx — reserved by a
// fetch-add of 1+subCount on HFront+parity — in ≤7-word writes acked to
// ack. It returns the number of acks to expect.
func (e *Engine) WriteFront(c *udweave.Ctx, slot, parity, idx, v, subStart, subCount, ack uint64) (writes int) {
	var vals [7]uint64
	base := e.FrontVA(slot, parity) + idx*gasmem.WordBytes
	for w, total := uint64(0), 1+subCount; w < total; writes++ {
		n := min(total-w, 7)
		for i := range vals[:n] {
			vals[i] = subStart + w + uint64(i) - 1
		}
		if w == 0 {
			vals[0] = v
		}
		c.Cycles(2)
		c.DRAMWrite(base+w*gasmem.WordBytes, ack, vals[:n]...)
		w += n
	}
	return writes
}

// ReduceDone ends a kv_reduce task of slot, adding found to the round's
// sum: the chain ends with a round whose sum is nonzero.
func (e *Engine) ReduceDone(c *udweave.Ctx, slot, found uint64) {
	e.inv.ReduceDoneAdd(c, found)
	c.YieldTerminate()
}
