// Package kvmsr implements KVMSR — key-value map-shuffle-reduce — the
// paper's library for organizing massive-scale parallelism (Section 2.2).
//
// A KVMSR invocation applies a user kv_map event to every key of a key
// space, distributing the map tasks over a lane set according to a
// computation binding (Block by default, PBMW for skew tolerance). Map
// tasks emit intermediate key-value tuples; each emit spawns a kv_reduce
// task on the lane selected by the reduce binding (Hash by default). Both
// user events run over the shared global address space and may perform
// split-phase DRAM accesses across multiple events of their thread.
//
// The library is itself written against the udweave runtime, so every
// coordination step — hierarchical broadcast (master, node masters,
// accelerator masters, lanes), dynamic work distribution, and distributed
// termination detection — spends simulated cycles and network messages,
// exactly the overheads the paper's strong-scaling curves include.
//
// Contract for user events:
//
//   - kv_map receives its key as operand 0 and the map continuation as the
//     message continuation. It may emit any number of tuples via Emit, then
//     must call Return(c, mapCont) exactly once (after its last Emit, in
//     whichever event of the map thread finishes the task).
//   - kv_reduce receives the emitted tuple (key, values...) as operands.
//     When its work — possibly spanning several events — is complete, it
//     must call ReduceDone(c) exactly once.
//   - kv_reduce must not Emit (reductions that need to generate more work
//     launch a follow-up invocation instead, as BFS does per round).
package kvmsr

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// DefaultMaxOutstanding is the per-lane cap on concurrently active map
// tasks. KVMSR throttles task creation so thread and memory parallelism
// match the hardware rather than flooding it (Section 4.1.3).
const DefaultMaxOutstanding = 32

// probeRetryDelay is the backoff before re-probing reduce counters during
// termination detection.
const probeRetryDelay = 500

// Spec describes one KVMSR invocation.
type Spec struct {
	// Name prefixes the internal event labels (diagnostics).
	Name string
	// NumKeys is the default key-space size; Launch may override it per
	// round (BFS frontiers shrink and grow).
	NumKeys uint64
	// MapEvent is the user's kv_map event label.
	MapEvent udweave.Label
	// ReduceEvent is the user's kv_reduce label; zero means the
	// invocation is a doAll (map only, reduction used purely for
	// synchronization).
	ReduceEvent udweave.Label
	// MapBinding distributes keys over lanes (nil = Block).
	MapBinding MapBinding
	// ReduceBinding maps emitted keys to lanes (nil = Hash).
	ReduceBinding ReduceBinding
	// Lanes is the target lane set.
	Lanes LaneSet
	// MaxOutstanding caps in-flight map tasks per lane (0 = default).
	MaxOutstanding int
	// Resilience, when non-nil, routes emitted tuples through the
	// resilient shuffle (acks, retransmission with backoff, idempotent
	// apply — see resilience.go), so the invocation survives message
	// drop/duplication/delay injected by internal/fault. Ignored for
	// map-only invocations (ReduceEvent zero), whose shuffle carries no
	// tuples.
	Resilience *Resilience
	// Coalesce, when non-nil, routes emitted tuples through the
	// coalescing shuffle (per-destination pack buffers, multi-tuple
	// messages, max-linger flush guard — see coalesce.go). Composes with
	// Resilience: packed messages are acked and retransmitted as units.
	// Ignored for map-only invocations, whose shuffle carries no tuples.
	Coalesce *Coalesce
	// Combiner, when non-nil, pre-reduces same-key tuples inside the
	// pack buffers (see the Combiner type's associativity contract).
	// Requires Coalesce.
	Combiner Combiner
	// ReduceAnyLane declares that kv_reduce keeps no lane-keyed state —
	// it may correctly run on any lane of the set, not just the one the
	// reduce binding picked (PageRank accumulates through per-lane
	// combining caches that a flush-all later drains on every lane;
	// triangle counting indexes its totals array by the executing lane).
	// Under Coalesce this lets the distributor on the destination node
	// run unpacked tuples in place instead of forwarding each to its
	// owner lane, saving one intra-node message and one event dispatch
	// per remote tuple. Ignored without Coalesce: the direct path already
	// sends straight to the binding's lane.
	ReduceAnyLane bool
}

// laneState is the per-lane, per-invocation bookkeeping kept in lane-local
// scratchpad storage. One lane may simultaneously play up to four roles
// (worker, accelerator master, node master, invocation master), whose
// fields are kept disjoint.
//
// The emitted and reduced counters are cumulative across launches of the
// same invocation: termination detection compares cumulative sums, which
// is insensitive to reduce tasks racing ahead of a later round's
// lane-start broadcast.
type laneState struct {
	// worker role
	numKeys     uint64
	arg         uint64
	nextKey     uint64
	endKey      uint64
	outstanding int
	emitted     uint64
	reduced     uint64
	awaiting    bool
	exhausted   bool
	doneSent    bool
	// mapActive tracks the open map-window span (tracing only): the
	// window from the lane's first in-flight map task to its lane-done
	// report.
	mapActive bool
	// sendBuf is the lane's reusable shuffle staging buffer: Emit,
	// SendReduce and the coalescing flush assemble outgoing operand
	// lists here instead of allocating per call (the engine copies
	// operands into its message arena, so reuse is safe).
	sendBuf [sim.MaxOperands]uint64

	// accelerator-master role
	aExpect int
	aDone   int
	aEmit   uint64
	apCnt   int
	apSum   uint64

	// node-master role
	nExpect int
	nDone   int
	nEmit   uint64
	npCnt   int
	npSum   uint64

	// invocation-master role
	cont     uint64
	mDone    int
	mEmit    uint64
	prevEmit uint64
	mpCnt    int
	mpSum    uint64
	poolNext uint64
	poolEnd  uint64
	probing  bool
	// lastProbeSum/noProgress drive the straggler detector: consecutive
	// termination probes that report the same (short) reduce sum mean
	// outstanding shuffle work is stuck, so the master re-kicks lanes.
	lastProbeSum uint64
	noProgress   int
	// launches numbers the invocation's launches; it pairs the per-launch
	// phase spans (tracing only).
	launches uint64
}

// Invocation is a registered KVMSR computation, launchable repeatedly.
type Invocation struct {
	p *udweave.Program
	s Spec
	// slot indexes the lane-local state.
	slot int

	// Internal event labels.
	lMasterStart udweave.Label
	lNodeStart   udweave.Label
	lAccelStart  udweave.Label
	lLaneStart   udweave.Label
	lMapReturn   udweave.Label
	lLaneDone    udweave.Label
	lAccelDone   udweave.Label
	lNodeDone    udweave.Label
	lProbeNode   udweave.Label
	lProbeAccel  udweave.Label
	lProbeLane   udweave.Label
	lReplyAccel  udweave.Label
	lReplyNode   udweave.Label
	lReplyMaster udweave.Label
	lRetryProbe  udweave.Label
	lMoreWork    udweave.Label
	lGrant       udweave.Label

	// Resilient-shuffle registration (nil res means the classic reliable
	// shuffle; see resilience.go).
	res         *Resilience
	rslot       int
	lRedDeliver udweave.Label
	lAck        udweave.Label
	lGuard      udweave.Label
	lRekick     udweave.Label

	// Coalescing-shuffle registration (nil coal means one message per
	// tuple; see coalesce.go).
	coal         *Coalesce
	cslot        int
	lPackDeliver udweave.Label
	lFlushGuard  udweave.Label
	// lpn caches the machine's lanes-per-node: node-of-lane arithmetic on
	// the emit fast path (coalescing granularity, network-message
	// accounting).
	lpn int

	// Precomputed span names (tracing): per-emit instants, per-lane map
	// windows, and per-launch master phases.
	nameEmit       string
	nameMapWin     string
	namePhaseMap   string
	namePhaseDrain string
	nameRetry      string
	nameDupDrop    string
	nameFlush      string
}

var invSeq int

// New validates the spec and registers the invocation's internal events
// with the program. Call during program construction (single-threaded).
func New(p *udweave.Program, s Spec) (*Invocation, error) {
	if err := s.Lanes.Validate(p.M); err != nil {
		return nil, err
	}
	if s.MapEvent == 0 {
		return nil, fmt.Errorf("kvmsr: %s: MapEvent is required", s.Name)
	}
	if s.MapBinding == nil {
		s.MapBinding = Block{}
	}
	if s.ReduceBinding == nil {
		s.ReduceBinding = Hash{}
	}
	if s.MaxOutstanding <= 0 {
		s.MaxOutstanding = DefaultMaxOutstanding
	}
	if s.Combiner != nil && s.Coalesce == nil {
		return nil, fmt.Errorf("kvmsr: %s: Combiner requires Coalesce", s.Name)
	}
	invSeq++
	v := &Invocation{p: p, s: s, slot: p.AllocSlot(), lpn: p.M.LanesPerNode()}
	n := s.Name
	v.lMasterStart = p.Define(n+".master_start", v.masterStart)
	v.lNodeStart = p.Define(n+".node_start", v.nodeStart)
	v.lAccelStart = p.Define(n+".accel_start", v.accelStart)
	v.lLaneStart = p.Define(n+".lane_start", v.laneStart)
	v.lMapReturn = p.Define(n+".map_return", v.mapReturn)
	v.lLaneDone = p.Define(n+".lane_done", v.laneDone)
	v.lAccelDone = p.Define(n+".accel_done", v.accelDone)
	v.lNodeDone = p.Define(n+".node_done", v.nodeDone)
	v.lProbeNode = p.Define(n+".probe_node", v.probeNode)
	v.lProbeAccel = p.Define(n+".probe_accel", v.probeAccel)
	v.lProbeLane = p.Define(n+".probe_lane", v.probeLane)
	v.lReplyAccel = p.Define(n+".reply_accel", v.replyAccel)
	v.lReplyNode = p.Define(n+".reply_node", v.replyNode)
	v.lReplyMaster = p.Define(n+".reply_master", v.replyMaster)
	v.lRetryProbe = p.Define(n+".retry_probe", v.retryProbe)
	v.lMoreWork = p.Define(n+".more_work", v.moreWork)
	v.lGrant = p.Define(n+".grant", v.grant)
	v.nameEmit = n + ".emit"
	v.nameMapWin = n + ".map_window"
	v.namePhaseMap = n + ".map_phase"
	v.namePhaseDrain = n + ".drain_phase"
	v.nameRetry = n + ".retry"
	v.nameDupDrop = n + ".dup_drop"
	if s.Resilience != nil && s.ReduceEvent != 0 {
		res := s.Resilience.withDefaults(p.M)
		v.res = &res
		v.rslot = p.AllocSlot()
		v.lRedDeliver = p.Define(n+".red_deliver", v.redDeliver)
		v.lAck = p.Define(n+".emit_ack", v.ack)
		v.lGuard = p.Define(n+".guard", v.guard)
		v.lRekick = p.Define(n+".rekick", v.rekick)
	}
	if s.Coalesce != nil && s.ReduceEvent != 0 {
		co := s.Coalesce.withDefaults(p.M)
		v.coal = &co
		v.cslot = p.AllocSlot()
		v.lFlushGuard = p.Define(n+".flush_guard", v.flushGuard)
		if v.res == nil {
			// Under resilience the packed message arrives through
			// redDeliver (ack + dedup) instead.
			v.lPackDeliver = p.Define(n+".pack_deliver", v.packDeliver)
		}
		v.nameFlush = n + ".flush"
	}
	return v, nil
}

// Labels returns how many event labels New registers for this spec — what
// a caller building many invocations checks against Program.FreeLabels
// before defining any of them.
func (s Spec) Labels() int {
	n := 17
	if s.ReduceEvent == 0 {
		return n
	}
	if s.Resilience != nil {
		n += 4
	}
	if s.Coalesce != nil {
		n++ // flush_guard
		if s.Resilience == nil {
			n++ // pack_deliver
		}
	}
	return n
}

// Resilient reports whether the invocation uses the resilient shuffle.
func (v *Invocation) Resilient() bool { return v.res != nil }

// MustNew is New, panicking on error (program construction helper).
func MustNew(p *udweave.Program, s Spec) *Invocation {
	v, err := New(p, s)
	if err != nil {
		panic(err)
	}
	return v
}

// Spec returns the (defaulted) specification.
func (v *Invocation) Spec() Spec { return v.s }

// LaunchEvw returns the event word that starts the invocation: send it
// numKeys as operand 0 (or no operands for Spec.NumKeys) with the
// completion continuation. The completion event receives
// (emittedThisLaunch, emittedCumulative) as operands.
func (v *Invocation) LaunchEvw() uint64 {
	return udweave.EvwNew(v.s.Lanes.First, v.lMasterStart)
}

// Launch starts the invocation from inside the simulation.
func (v *Invocation) Launch(c *udweave.Ctx, numKeys uint64, cont uint64) {
	c.SendEvent(v.LaunchEvw(), cont, numKeys)
}

// LaunchWithArg additionally broadcasts one argument word that every
// kv_map task receives as operand 1 (BFS passes the round number this
// way — the "appropriate start points" the parallel iterator hands to
// each lane).
func (v *Invocation) LaunchWithArg(c *udweave.Ctx, numKeys, arg uint64, cont uint64) {
	c.SendEvent(v.LaunchEvw(), cont, numKeys, arg)
}

// st returns the lane-local state for this invocation.
func (v *Invocation) st(c *udweave.Ctx) *laneState {
	return c.LocalSlot(v.slot, func() any { return &laneState{} }).(*laneState)
}

// ---- user-facing operations ------------------------------------------

// Emit produces an intermediate tuple from a kv_map task: it schedules a
// kv_reduce task for key on the lane chosen by the reduce binding. The
// send is asynchronous with no response, so each emit generates additional
// parallelism. Under Spec.Coalesce a tuple bound for another node is
// buffered for packing instead of sent immediately (and a Spec.Combiner
// may absorb it into a buffered same-key tuple, in which case it never
// reaches a reducer and is not counted toward termination); same-node
// tuples always go out directly.
func (v *Invocation) Emit(c *udweave.Ctx, key uint64, vals ...uint64) {
	if v.s.ReduceEvent == 0 {
		panic(fmt.Sprintf("kvmsr: %s: Emit without a ReduceEvent", v.s.Name))
	}
	st := v.st(c)
	if st.doneSent {
		panic(fmt.Sprintf("kvmsr: %s: Emit on lane %d after its map phase completed (emits from kv_reduce are not supported)", v.s.Name, c.NetworkID()))
	}
	st.emitted += v.routeTuple(c, key, vals)
}

// nodeOf returns the node hosting a lane.
func (v *Invocation) nodeOf(id arch.NetworkID) int { return int(id) / v.lpn }

// countMsg counts one shuffle message toward Stats.ShuffleMsgs when it
// enters the inter-node network. Same-node messages ride the intra-node
// interconnect — they never touch the injection port coalescing exists to
// relieve — so ShuffleMsgs/ShuffleTuples stays an apples-to-apples network
// metric in both shuffle modes.
func (v *Invocation) countMsg(c *udweave.Ctx, target arch.NetworkID) {
	if v.nodeOf(target) != v.nodeOf(c.NetworkID()) {
		c.CountShuffle(1, 0)
	}
}

// routeTuple delivers one [key, vals...] tuple through the shuffle —
// buffered per destination node under Coalesce when the owner is remote,
// directly otherwise — and returns the termination credit: 1, or 0 when a
// coalescing Combiner absorbed the tuple into a buffered same-key entry.
func (v *Invocation) routeTuple(c *udweave.Ctx, key uint64, vals []uint64) uint64 {
	c.Cycles(4)
	c.Mark(v.nameEmit)
	c.CountShuffle(0, 1)
	target := v.s.ReduceBinding.Lane(key, v.s.Lanes)
	if v.coal != nil {
		checkCoalescedVals(v, vals)
		if node := v.nodeOf(target); node != v.nodeOf(c.NetworkID()) {
			return v.bufferTuple(c, node, key, vals)
		}
	}
	st := v.st(c)
	buf := &st.sendBuf
	if v.res != nil {
		checkResilientVals(v.s.Name, vals)
		if v.coal != nil {
			// Same-node tuple under coalescing+resilience: wrap as a
			// 1-tuple packed message so redDeliver parses one format.
			buf[0] = packHeader(1, 1+len(vals))
			buf[1] = key
			n := copy(buf[2:], vals)
			v.sendResilient(c, target, buf[:2+n])
			return 1
		}
		buf[0] = key
		n := copy(buf[1:], vals)
		v.sendResilient(c, target, buf[:1+n])
		return 1
	}
	buf[0] = key
	n := copy(buf[1:], vals)
	v.countMsg(c, target)
	c.SendEvent(udweave.EvwNew(target, v.s.ReduceEvent), udweave.IGNRCONT, buf[:1+n]...)
	return 1
}

// SendReduce schedules a kv_reduce task for key WITHOUT crediting the emit
// to this lane. It exists for map tasks that organize their own local
// workers (the BFS accelerator master-worker scheme): sub-workers send
// reduces with SendReduce and report their counts to the map task, which
// credits them with EmitFrom before calling Return. The returned credit is
// the number of reduce tasks the call actually scheduled — 1, or 0 when a
// coalescing Combiner absorbed the tuple into a buffered same-key entry —
// and is what the map task must pass to EmitFrom. Using SendReduce without
// a matching EmitFrom breaks termination detection.
func (v *Invocation) SendReduce(c *udweave.Ctx, key uint64, vals ...uint64) uint64 {
	if v.s.ReduceEvent == 0 {
		panic(fmt.Sprintf("kvmsr: %s: SendReduce without a ReduceEvent", v.s.Name))
	}
	return v.routeTuple(c, key, vals)
}

// EmitFrom credits count reduce sends (performed via SendReduce by local
// sub-workers) to this lane's map phase. It must run on a lane whose map
// tasks have not all returned — normally the map task's own lane, before
// its Return.
func (v *Invocation) EmitFrom(c *udweave.Ctx, count uint64) {
	st := v.st(c)
	if st.doneSent {
		panic(fmt.Sprintf("kvmsr: %s: EmitFrom on lane %d after its map phase completed", v.s.Name, c.NetworkID()))
	}
	st.emitted += count
	c.ScratchAccess(1)
}

// Return signals that one kv_map task has completed. mapCont is the map
// continuation the task received (c.Cont() in the kv_map event; a task
// spanning several events must save it in thread state).
func (v *Invocation) Return(c *udweave.Ctx, mapCont uint64) {
	c.Cycles(2)
	c.SendEvent(mapCont, udweave.IGNRCONT)
}

// ReduceDone signals that one kv_reduce task has completed.
func (v *Invocation) ReduceDone(c *udweave.Ctx) {
	st := v.st(c)
	st.reduced++
	c.ScratchAccess(1)
}

// ---- broadcast: master -> node masters -> accel masters -> lanes ------

func (v *Invocation) masterStart(c *udweave.Ctx) {
	st := v.st(c)
	numKeys := v.s.NumKeys
	arg := uint64(0)
	if c.NOps() > 0 {
		numKeys = c.Op(0)
	}
	if c.NOps() > 1 {
		arg = c.Op(1)
	}
	st.cont = c.Cont()
	st.mDone = 0
	st.mEmit = 0
	st.poolNext = v.s.MapBinding.poolStart(v.s.Lanes.Count, numKeys)
	st.poolEnd = numKeys
	st.probing = false
	st.lastProbeSum = 0
	st.noProgress = 0
	st.launches++
	c.TaskBegin(v.namePhaseMap, st.launches)
	c.Cycles(10)
	m := v.p.M
	for node := v.s.Lanes.firstNode(m); node <= v.s.Lanes.lastNode(m); node++ {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.s.Lanes.NodeMaster(m, node), v.lNodeStart), udweave.IGNRCONT, numKeys, arg)
	}
	c.YieldTerminate()
}

func (v *Invocation) nodeStart(c *udweave.Ctx) {
	st := v.st(c)
	m := v.p.M
	node := m.NodeOf(c.NetworkID())
	lo, hi := v.s.Lanes.AccelRangeOnNode(m, node)
	st.nExpect = hi - lo
	st.nDone = 0
	st.nEmit = 0
	c.Cycles(6)
	for a := lo; a < hi; a++ {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.s.Lanes.AccelMaster(m, node, a), v.lAccelStart), udweave.IGNRCONT, c.Op(0), c.Op(1))
	}
	c.YieldTerminate()
}

func (v *Invocation) accelStart(c *udweave.Ctx) {
	st := v.st(c)
	m := v.p.M
	self := c.NetworkID()
	lo, hi := v.s.Lanes.LaneRangeOnAccel(m, m.NodeOf(self), m.AccelOf(self))
	st.aExpect = int(hi - lo)
	st.aDone = 0
	st.aEmit = 0
	c.Cycles(6)
	for lane := lo; lane < hi; lane++ {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(lane, v.lLaneStart), udweave.IGNRCONT, c.Op(0), c.Op(1))
	}
	c.YieldTerminate()
}

func (v *Invocation) laneStart(c *udweave.Ctx) {
	st := v.st(c)
	numKeys := c.Op(0)
	idx := v.s.Lanes.Index(c.NetworkID())
	st.numKeys = numKeys
	st.arg = c.Op(1)
	st.nextKey, st.endKey = v.s.MapBinding.initialRange(idx, v.s.Lanes.Count, numKeys)
	st.outstanding = 0
	st.awaiting = false
	st.exhausted = !v.s.MapBinding.dynamic()
	st.doneSent = false
	c.Cycles(8)
	v.pump(c, st)
	c.YieldTerminate()
}

// pump launches map tasks up to the outstanding window, requests more work
// under a dynamic binding, and reports lane completion.
func (v *Invocation) pump(c *udweave.Ctx, st *laneState) {
	self := c.NetworkID()
	for st.outstanding < v.s.MaxOutstanding && st.nextKey < st.endKey {
		key := st.nextKey
		st.nextKey++
		st.outstanding++
		c.Cycles(3)
		c.SendEvent(udweave.EvwNew(self, v.s.MapEvent),
			udweave.EvwNew(self, v.lMapReturn), key, st.arg)
	}
	// Under a dynamic binding, ask the master for another chunk only when
	// the lane has drained its work: granting chunks to still-busy lanes
	// would queue movable work behind long tasks, defeating the
	// load-balancing purpose of PBMW.
	if st.nextKey >= st.endKey && !st.exhausted && !st.awaiting && st.outstanding == 0 {
		st.awaiting = true
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.s.Lanes.First, v.lMoreWork),
			udweave.EvwNew(self, v.lGrant))
	}
	if st.outstanding == 0 && st.nextKey >= st.endKey && st.exhausted && !st.doneSent {
		st.doneSent = true
		// The lane's map phase is over (its last task returned): flush
		// everything still packed so the emit count reported upward is
		// backed by in-flight tuples. Tuples buffered on this lane later
		// by other lanes' sub-workers (SendReduce) are the flush guard's
		// responsibility.
		if v.coal != nil {
			v.flushAll(c)
		}
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.s.Lanes.ParentAccelMaster(v.p.M, self), v.lLaneDone),
			udweave.IGNRCONT, st.emitted)
	}
	// Tracing: bracket the lane's map window — first in-flight task to the
	// lane-done report — as an async span (it overlaps the lane's event
	// executions). Only the transitions touch state, and only when spans
	// are recorded.
	if c.Tracing() {
		if st.outstanding > 0 && !st.mapActive {
			st.mapActive = true
			c.TaskBegin(v.nameMapWin, uint64(self))
		} else if st.doneSent && st.mapActive {
			st.mapActive = false
			c.TaskEnd(v.nameMapWin, uint64(self))
		}
	}
}

func (v *Invocation) mapReturn(c *udweave.Ctx) {
	st := v.st(c)
	st.outstanding--
	c.Cycles(2)
	v.pump(c, st)
	c.YieldTerminate()
}

// ---- dynamic work distribution (PBMW) ---------------------------------

func (v *Invocation) moreWork(c *udweave.Ctx) {
	st := v.st(c)
	chunk := v.s.MapBinding.chunk()
	start := st.poolNext
	end := start + chunk
	if end > st.poolEnd {
		end = st.poolEnd
	}
	st.poolNext = end
	c.Cycles(6)
	c.Reply(c.Cont(), start, end)
	c.YieldTerminate()
}

func (v *Invocation) grant(c *udweave.Ctx) {
	st := v.st(c)
	start, end := c.Op(0), c.Op(1)
	st.awaiting = false
	if start >= end {
		st.exhausted = true
	} else {
		st.nextKey, st.endKey = start, end
	}
	c.Cycles(4)
	v.pump(c, st)
	c.YieldTerminate()
}

// ---- completion aggregation: lanes -> accel -> node -> master ---------

func (v *Invocation) laneDone(c *udweave.Ctx) {
	st := v.st(c)
	st.aDone++
	st.aEmit += c.Op(0)
	c.Cycles(3)
	if st.aDone == st.aExpect {
		c.SendEvent(udweave.EvwNew(v.s.Lanes.ParentNodeMaster(v.p.M, c.NetworkID()), v.lAccelDone),
			udweave.IGNRCONT, st.aEmit)
	}
	c.YieldTerminate()
}

func (v *Invocation) accelDone(c *udweave.Ctx) {
	st := v.st(c)
	st.nDone++
	st.nEmit += c.Op(0)
	c.Cycles(3)
	if st.nDone == st.nExpect {
		c.SendEvent(udweave.EvwNew(v.s.Lanes.First, v.lNodeDone), udweave.IGNRCONT, st.nEmit)
	}
	c.YieldTerminate()
}

func (v *Invocation) nodeDone(c *udweave.Ctx) {
	st := v.st(c)
	st.mDone++
	st.mEmit += c.Op(0)
	c.Cycles(3)
	if st.mDone == v.s.Lanes.NumNodes(v.p.M) {
		// All map tasks have returned; mEmit is the cumulative emit
		// count. With no reduce phase the invocation is complete;
		// otherwise probe the reduce counters until they match.
		c.TaskEnd(v.namePhaseMap, st.launches)
		if v.s.ReduceEvent == 0 {
			v.complete(c, st)
		} else {
			st.probing = true
			c.TaskBegin(v.namePhaseDrain, st.launches)
			v.sendProbe(c)
		}
	}
	c.YieldTerminate()
}

func (v *Invocation) complete(c *udweave.Ctx, st *laneState) {
	if st.probing {
		c.TaskEnd(v.namePhaseDrain, st.launches)
	}
	delta := st.mEmit - st.prevEmit
	st.prevEmit = st.mEmit
	st.probing = false
	c.Cycles(4)
	c.Reply(st.cont, delta, st.mEmit)
}

// ---- termination detection: probe cumulative reduce counters ----------

func (v *Invocation) sendProbe(c *udweave.Ctx) {
	st := v.st(c)
	st.mpCnt = 0
	st.mpSum = 0
	m := v.p.M
	c.Cycles(4)
	for node := v.s.Lanes.firstNode(m); node <= v.s.Lanes.lastNode(m); node++ {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.s.Lanes.NodeMaster(m, node), v.lProbeNode), udweave.IGNRCONT)
	}
}

func (v *Invocation) probeNode(c *udweave.Ctx) {
	st := v.st(c)
	st.npCnt = 0
	st.npSum = 0
	m := v.p.M
	node := m.NodeOf(c.NetworkID())
	lo, hi := v.s.Lanes.AccelRangeOnNode(m, node)
	c.Cycles(4)
	for a := lo; a < hi; a++ {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.s.Lanes.AccelMaster(m, node, a), v.lProbeAccel), udweave.IGNRCONT)
	}
	c.YieldTerminate()
}

func (v *Invocation) probeAccel(c *udweave.Ctx) {
	st := v.st(c)
	st.apCnt = 0
	st.apSum = 0
	m := v.p.M
	self := c.NetworkID()
	lo, hi := v.s.Lanes.LaneRangeOnAccel(m, m.NodeOf(self), m.AccelOf(self))
	c.Cycles(4)
	for lane := lo; lane < hi; lane++ {
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(lane, v.lProbeLane), udweave.IGNRCONT)
	}
	c.YieldTerminate()
}

func (v *Invocation) probeLane(c *udweave.Ctx) {
	st := v.st(c)
	c.Cycles(2)
	c.SendEvent(udweave.EvwNew(v.s.Lanes.ParentAccelMaster(v.p.M, c.NetworkID()), v.lReplyAccel),
		udweave.IGNRCONT, st.reduced)
	c.YieldTerminate()
}

func (v *Invocation) replyAccel(c *udweave.Ctx) {
	st := v.st(c)
	st.apCnt++
	st.apSum += c.Op(0)
	c.Cycles(3)
	if st.apCnt == st.aExpect {
		c.SendEvent(udweave.EvwNew(v.s.Lanes.ParentNodeMaster(v.p.M, c.NetworkID()), v.lReplyNode),
			udweave.IGNRCONT, st.apSum)
	}
	c.YieldTerminate()
}

func (v *Invocation) replyNode(c *udweave.Ctx) {
	st := v.st(c)
	st.npCnt++
	st.npSum += c.Op(0)
	c.Cycles(3)
	if st.npCnt == st.nExpect {
		c.SendEvent(udweave.EvwNew(v.s.Lanes.First, v.lReplyMaster), udweave.IGNRCONT, st.npSum)
	}
	c.YieldTerminate()
}

func (v *Invocation) replyMaster(c *udweave.Ctx) {
	st := v.st(c)
	st.mpCnt++
	st.mpSum += c.Op(0)
	c.Cycles(3)
	if st.mpCnt == v.s.Lanes.NumNodes(v.p.M) {
		if st.mpSum == st.mEmit {
			st.noProgress = 0
			v.complete(c, st)
		} else {
			// Reduces still in flight: back off and re-probe. Under the
			// resilient shuffle the master doubles as the straggler
			// detector: a run of probes with no forward progress means
			// shuffle work is stuck (lost retransmissions, a stalled
			// lane), so re-kick every lane to resend its outstanding
			// emits immediately.
			if v.res != nil {
				if st.mpSum == st.lastProbeSum {
					st.noProgress++
				} else {
					st.noProgress = 0
					st.lastProbeSum = st.mpSum
				}
				if st.noProgress >= v.res.StragglerProbes {
					st.noProgress = 0
					v.rst(c).totals.Rekicks++
					c.Cycles(4)
					for lane := v.s.Lanes.First; lane < v.s.Lanes.End(); lane++ {
						c.Cycles(1)
						c.SendEvent(udweave.EvwNew(lane, v.lRekick), udweave.IGNRCONT)
					}
				}
			}
			c.SendEventAfter(probeRetryDelay,
				udweave.EvwNew(v.s.Lanes.First, v.lRetryProbe), udweave.IGNRCONT)
		}
	}
	c.YieldTerminate()
}

func (v *Invocation) retryProbe(c *udweave.Ctx) {
	st := v.st(c)
	if st.probing {
		v.sendProbe(c)
	}
	c.YieldTerminate()
}
