// Package kvmsr implements KVMSR — key-value map-shuffle-reduce — the
// paper's library for organizing massive-scale parallelism (Section 2.2).
//
// A KVMSR invocation applies a user kv_map event to every key of a key
// space, distributing the map tasks over a lane set according to a
// computation binding (Block by default, PBMW for skew tolerance, Owner to
// run each task on the node that homes its key's record). Map tasks emit
// intermediate key-value tuples; each emit spawns a kv_reduce task on the
// lane selected by the reduce binding (Hash by default, or Owner). Both
// user events run over the shared global address space and may perform
// split-phase DRAM accesses across multiple events of their thread.
//
// The library is itself written against the udweave runtime, so every
// coordination step — hierarchical broadcast (master, node masters,
// accelerator masters, lanes), dynamic work distribution, and distributed
// termination detection — spends simulated cycles and network messages,
// exactly the overheads the paper's strong-scaling curves include.
//
// Termination detection is event-driven, not polled: reduce counts reach
// the master as deltas (with the map-completion tree, which each node holds
// back until a drain probe over its own lanes has answered, and pushed by
// the lanes themselves once they have answered it), and the launch
// completes on the message that makes the master's sum equal the emit
// count. See "termination detection" below and DESIGN.md "Termination".
//
// Contract for user events:
//
//   - kv_map receives its key as operand 0 and the map continuation as the
//     message continuation. It may emit any number of tuples via Emit, then
//     must call Return(c, mapCont) exactly once (after its last Emit, in
//     whichever event of the map thread finishes the task).
//   - kv_reduce receives the emitted tuple (key, values...) as operands.
//     When its work — possibly spanning several events — is complete, it
//     must call ReduceDone(c), or ReduceDoneAdd(c, n), exactly once.
//   - kv_reduce must not Emit (reductions that need to generate more work
//     launch a follow-up invocation instead, as BFS does per round).
package kvmsr

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/prng"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// maxOutstanding is the per-lane cap on concurrently active map tasks.
// KVMSR throttles task creation so thread and memory parallelism match the
// hardware rather than flooding it (Section 4.1.3).
const maxOutstanding = 32

// What the Owner binding's index arithmetic costs a lane, in instructions:
// at lane_start its node's ring position, its rank among the node's lanes
// of the set and the count of keys the node homes (a divide, two multiplies,
// compares); per started key the block-cyclic unfolding of a position
// (shift, mask, multiply-add); per emitted tuple the home node of the key
// ahead of the hash (shift, mask, multiply) and the clamp to the set.
const (
	stripedStartCycles = 8
	stripedKeyCycles   = 3
	ownerEmitCycles    = 3
)

// Tree levels, leaf first: the master -> node masters -> accelerator
// masters -> lanes tree has one role per level and unit (see LaneSet.unit
// and LaneSet.holder). The probe, push, delta and rekick labels each serve
// every role; operand 0 of their messages names the role addressed.
const (
	levelLane uint64 = iota
	levelAccel
	levelNode
	levelMaster
)

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
	// Lanes is the target lane set. LaunchAt may also run the invocation
	// on a translate of it: the same set shifted up by a whole multiple of
	// Lanes.Count (see Invocation.lanes).
	Lanes LaneSet
	// Resilience, when non-nil, routes emitted tuples through the
	// resilient shuffle (acks, retransmission with backoff, idempotent
	// apply — see resilience.go), so the invocation survives message
	// drop/duplication/delay injected by internal/fault. Ignored for
	// map-only invocations (ReduceEvent zero), whose shuffle carries no
	// tuples.
	Resilience *Resilience
	// Coalesce, when non-nil, packs tuples bound for another node into
	// per-destination buffers that flush as multi-tuple messages (see
	// coalesce.go); without it every tuple travels as a pack of one.
	// Composes with Resilience: a pack is acked and retransmitted as a
	// unit. Ignored for map-only invocations, whose shuffle carries no
	// tuples.
	Coalesce *Coalesce
	// ReduceAnyLane declares that kv_reduce keeps no lane-keyed state —
	// it may correctly run on any lane of the set, not just the one the
	// reduce binding picked (triangle counting hands each pair's count to
	// the completion sum; PageRank must not declare it, since a vertex's
	// reduce lane counts its arrivals in that lane's combining cache).
	// Under Coalesce this lets the distributor on the destination node
	// run unpacked tuples in place instead of forwarding each to its
	// owner lane, saving one intra-node message and one event dispatch
	// per remote tuple. Ignored without Coalesce: the direct path already
	// sends straight to the binding's lane.
	ReduceAnyLane bool
	// FirstWins declares that a key's kv_reduce changes state only for the
	// first tuple of that key to reach the key's owner lane, over the
	// invocation's whole life; every later tuple only calls ReduceDone
	// (BFS's visited check). The shuffle then retires a tuple on the lane
	// that addresses it to its owner — the emitter of a direct send, the
	// coalescing distributor of a packed one — when that lane has already
	// handed the owner a tuple of the same key (see handOff). Which
	// of several same-key tuples wins may change; that any but the first
	// changes nothing may not. Incompatible with ReduceAnyLane, whose
	// reduce has no owner lane.
	FirstWins bool
}

// handedBits sizes the FirstWins table every handing-over lane keeps:
// 1<<handedBits direct-mapped 32-bit slots, 2 KiB of the lane's 64 KiB
// scratchpad (EXPERIMENTS.md "BFS's hub round" has the size sweep).
const handedBits = 9

// handedTable is the FirstWins table (see handOff).
type handedTable [1 << handedBits]uint32

// handOffCycles is what the FirstWins check costs a lane per tuple: the
// slot index (a shift of the key hash the reduce binding computes anyway)
// and the compare, next to the slot's scratchpad access.
const handOffCycles = 2

// laneState is the per-lane, per-invocation bookkeeping kept in a lane
// slot. One lane may simultaneously play up to four roles
// (worker, accelerator master, node master, invocation master), whose
// fields are kept disjoint.
//
// Every emit and reduce counter is cumulative across launches of the same
// invocation: termination detection compares cumulative sums, which is
// insensitive to reduce tasks racing ahead of a later round's lane-start
// broadcast.
type laneState struct {
	// worker role
	numKeys uint64
	arg     uint64
	// keys is the walk over the lane's assigned keys not yet started: its
	// static share from lane_start, then each PBMW grant.
	keys        keySeq
	outstanding int
	emitted     uint64
	awaiting    bool
	exhausted   bool
	doneSent    bool
	// started and reduced count kv_reduce tasks entered (the reduce
	// wrapper) and finished (ReduceDone) on this lane, added sums their
	// ReduceDoneAdd values; reported and addReported are how much of
	// reduced and added the lane has told its accelerator master.
	// replyOwed is set while its node's drain probe has reached the lane
	// but found reduces in progress: the counted reply goes out when the
	// lane is next reduce-idle. In report mode (from that reply until the
	// next lane_start) the lane pushes reduced-reported itself, pushLinger
	// cycles after it goes reduce-idle.
	started               uint64
	reduced, added        uint64
	reported, addReported uint64
	replyOwed             bool
	reportMode            bool
	// handed caches the lane's FirstWins table slot from its first
	// hand-off.
	handed *handedTable
	// mapActive tracks the open map-window span (tracing only): the
	// window from the lane's first in-flight map task to its lane-done
	// report.
	mapActive bool
	// sendBuf is the lane's reusable shuffle staging buffer: Emit,
	// SendReduce and the distributor's forwards assemble outgoing operand
	// lists here instead of allocating per call (the engine copies
	// operands into its message arena, so reuse is safe).
	sendBuf [sim.MaxOperands]uint64

	// pend and armed drive the self-clocked push of reduce-count deltas,
	// indexed by the role's tree level: pend[level] and pendAdd[level]
	// accumulate deltas and sums pushed up by the role's children (a
	// worker's own are reduced-reported and added-addReported, so
	// level 0 stays zero) and armed[level] says a push is queued here.
	pend, pendAdd [levelMaster]uint64
	armed         [levelMaster]bool

	// roles holds the counted convergecast of each tree role the lane
	// holds, indexed by level (roles[levelLane] is unused).
	roles [levelMaster + 1]role

	// invocation-master role: cont is the launch's completion continuation;
	// draining is set from map-done to completion.
	cont              uint64
	prevEmit, prevSum uint64
	poolNext          uint64
	poolEnd           uint64
	draining          bool
	// lastR is R at the straggler clock's last tick (Resilience only).
	lastR uint64
	// term counts the protocol's work on this lane; at the master
	// term.Launches also numbers the launches, pairing the per-launch phase
	// spans (tracing) and tagging the straggler clock.
	term TerminationTotals
}

// role is the counted convergecast of one tree role: expect children, done
// of which have reported, with the sums of what they reported. The map-done
// pass (emits and the reduce deltas riding with them) and the drain probe's
// replies (reduce deltas) share it: a probe starts only after every child
// has reported map-done. At a node red keeps summing through its drain, so
// node_done carries both; at the master emit is E, the cumulative emit
// count (exact once every node has reported), and red is R, the sum of
// every reduce-count delta the master has been told. sum rides with red:
// the ReduceDoneAdd values of the reduces red counts.
type role struct {
	expect, done   int
	emit, red, sum uint64
}

// Invocation is a registered KVMSR computation, launchable repeatedly.
type Invocation struct {
	p *udweave.Program
	s Spec
	// slot holds the lane state; fwslot, declared only under
	// Spec.FirstWins, the FirstWins table.
	slot   udweave.Slot[laneState]
	fwslot udweave.Slot[handedTable]

	// Internal event labels. lStart[level] starts the role at level;
	// lDone[level] and lReply[level] carry the role's map-done report and
	// probe reply to its parent (a node's drained map-done is its reply).
	lStart     [levelMaster + 1]udweave.Label
	lDone      [levelMaster]udweave.Label
	lReply     [levelNode]udweave.Label
	lMapReturn udweave.Label
	lProbe     udweave.Label
	lMoreWork  udweave.Label
	lGrant     udweave.Label
	// lReduce receives every reliable shuffle message (see deliver).
	lReduce udweave.Label
	lPush   udweave.Label
	lDelta  udweave.Label

	// Resilient-shuffle registration (nil res means the reliable shuffle;
	// see resilience.go). lRedDeliver receives every resilient message.
	res         *Resilience
	rslot       udweave.Slot[resilState]
	lRedDeliver udweave.Label
	lAck        udweave.Label
	lGuard      udweave.Label
	lRekick     udweave.Label

	// Coalescing-shuffle registration (nil coal means no pack buffers:
	// every tuple travels alone; see coalesce.go).
	coal        *Coalesce
	cslot       udweave.Slot[coalState]
	lFlushGuard udweave.Label
	// lpn caches the machine's lanes-per-node: node-of-lane arithmetic on
	// the emit fast path (coalescing granularity, network-message
	// accounting).
	lpn int
	// emitCycles is what routing one tuple charges: the reduce binding's
	// arithmetic and the send set-up.
	emitCycles int
	// pushLinger is how long a lane in report mode waits after going
	// reduce-idle before it pushes: a quarter of a cross-node hop, so the
	// next few tuples of a trickle ride the same delta.
	pushLinger arch.Cycles

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

// New validates the spec and registers the invocation's internal events
// with the program. Call during program construction (single-threaded).
func New(p *udweave.Program, s Spec) (*Invocation, error) {
	if s.MapEvent == 0 {
		return nil, fmt.Errorf("kvmsr: %s: MapEvent is required", s.Name)
	}
	if s.MapBinding == nil {
		s.MapBinding = Block{}
	}
	if s.ReduceBinding == nil {
		s.ReduceBinding = Hash{}
	}
	if s.FirstWins && s.ReduceAnyLane {
		return nil, fmt.Errorf("kvmsr: %s: FirstWins needs an owner lane per key, ReduceAnyLane has none", s.Name)
	}
	if err := s.runsOn(p.M, s.Lanes); err != nil {
		return nil, err
	}
	v := &Invocation{p: p, s: s, slot: udweave.NewSlot[laneState](p), lpn: p.M.LanesPerNode(), emitCycles: 4,
		pushLinger: p.M.LatCrossNode / 4}
	if s.FirstWins {
		v.fwslot = udweave.NewSlot[handedTable](p)
	}
	if _, ok := s.ReduceBinding.(Owner); ok {
		v.emitCycles += ownerEmitCycles
	}
	n := s.Name
	v.lStart[levelMaster] = p.Define(n+".master_start", v.masterStart)
	v.lStart[levelNode] = p.Define(n+".node_start", v.start(levelNode))
	v.lStart[levelAccel] = p.Define(n+".accel_start", v.start(levelAccel))
	v.lStart[levelLane] = p.Define(n+".lane_start", v.laneStart)
	v.lMapReturn = p.Define(n+".map_return", v.mapReturn)
	v.lDone[levelLane] = p.Define(n+".lane_done", v.done(levelAccel))
	v.lDone[levelAccel] = p.Define(n+".accel_done", v.done(levelNode))
	v.lDone[levelNode] = p.Define(n+".node_done", v.done(levelMaster))
	v.lProbe = p.Define(n+".probe", v.probe)
	v.lReply[levelLane] = p.Define(n+".reply_accel", v.reply(levelAccel))
	v.lReply[levelAccel] = p.Define(n+".reply_node", v.reply(levelNode))
	v.lMoreWork = p.Define(n+".more_work", v.moreWork)
	v.lGrant = p.Define(n+".grant", v.grant)
	v.lPush = p.Define(n+".push", v.push)
	v.lDelta = p.Define(n+".delta", v.delta)
	if s.ReduceEvent != 0 {
		// The wrapper keeps the user's event name, so traces and
		// diagnostics still show kv_reduce executions under the name the
		// application registered.
		v.lReduce = p.Define(p.Name(s.ReduceEvent), v.deliver)
	}
	v.nameEmit = n + ".emit"
	v.nameMapWin = n + ".map_window"
	v.namePhaseMap = n + ".map_phase"
	v.namePhaseDrain = n + ".drain_phase"
	v.nameRetry = n + ".retry"
	v.nameDupDrop = n + ".dup_drop"
	if s.Resilience != nil && s.ReduceEvent != 0 {
		v.res = s.Resilience
		v.rslot = udweave.NewSlot[resilState](p)
		v.lRedDeliver = p.Define(n+".red_deliver", v.redDeliver)
		v.lAck = p.Define(n+".emit_ack", v.ack)
		v.lGuard = p.Define(n+".guard", v.guard)
		v.lRekick = p.Define(n+".rekick", v.rekick)
	}
	if s.Coalesce != nil && s.ReduceEvent != 0 {
		v.coal = s.Coalesce
		v.cslot = udweave.NewSlot[coalState](p)
		v.lFlushGuard = p.Define(n+".flush_guard", v.flushGuard)
		v.nameFlush = n + ".flush"
	}
	return v, nil
}

// runsOn checks that the invocation can run on lane set ls: ls lies in the
// machine and an Owner binding's data lives on exactly ls's nodes.
func (s Spec) runsOn(m arch.Machine, ls LaneSet) error {
	if err := ls.Validate(m); err != nil {
		return err
	}
	for _, b := range []any{s.MapBinding, s.ReduceBinding} {
		if o, ok := b.(Owner); ok && !o.fits(m, ls) {
			return fmt.Errorf("kvmsr: %s: Owner binding built for another lane set (data on nodes [%d,%d), lanes on [%d,%d])",
				s.Name, o.home.FirstNode, o.home.FirstNode+o.home.NRNodes, ls.firstNode(m), ls.lastNode(m)+1)
		}
	}
	return nil
}

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

// ReduceLane returns the lane the reduce binding runs key's kv_reduce on,
// in the translate of the lane set the executing lane runs in.
func (v *Invocation) ReduceLane(c *udweave.Ctx, key uint64) arch.NetworkID {
	return v.s.ReduceBinding.Lane(key, v.lanes(c.NetworkID()))
}

// lanes returns the translate of Spec.Lanes that lane id runs in: the set
// shifted up by the whole multiple of its Count that covers id, or the set
// itself for a lane below its end. Every role derives its own translate
// this way, so a launch on a translate sends no more operands than one on
// Spec.Lanes, and a lane of one translate never serves another.
func (v *Invocation) lanes(id arch.NetworkID) LaneSet {
	ls := v.s.Lanes
	if id >= ls.End() {
		n := arch.NetworkID(ls.Count)
		ls.First += (id - ls.First) / n * n
	}
	return ls
}

// LaunchEvw returns the event word that starts the invocation: send it
// numKeys as operand 0 (or no operands for Spec.NumKeys) with the
// completion continuation. The completion event receives
// (emittedThisLaunch, emittedCumulative, sumThisLaunch) as operands, the
// last the launch's ReduceDoneAdd values summed.
func (v *Invocation) LaunchEvw() uint64 {
	return udweave.EvwNew(v.s.Lanes.First, v.lStart[levelMaster])
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

// LaunchAt is LaunchWithArg on the translate of Spec.Lanes whose first
// lane is first (Spec.Lanes.First + k*Spec.Lanes.Count for some k >= 0).
// Launches on distinct translates run concurrently and independently, each
// with its own master, tree and completion; a launch on a translate may
// overlap only an earlier one on the same translate that has completed.
// An Owner binding runs only on the translate whose nodes hold its data.
func (v *Invocation) LaunchAt(c *udweave.Ctx, first arch.NetworkID, numKeys, arg uint64, cont uint64) {
	if err := v.s.runsOn(v.p.M, LaneSet{first, v.s.Lanes.Count}); err != nil || v.lanes(first).First != first {
		panic(fmt.Sprintf("kvmsr: %s: LaunchAt lane %d: no translate of [%d,%d) the invocation runs on (%v)",
			v.s.Name, first, v.s.Lanes.First, v.s.Lanes.End(), err))
	}
	c.SendEvent(udweave.EvwNew(first, v.lStart[levelMaster]), cont, numKeys, arg)
}

// st returns the lane state for this invocation.
func (v *Invocation) st(c *udweave.Ctx) *laneState { return v.slot.Get(c) }

// ---- user-facing operations ------------------------------------------

// Emit produces an intermediate tuple from a kv_map task: it schedules a
// kv_reduce task for key on the lane chosen by the reduce binding. The
// send is asynchronous with no response, so each emit generates additional
// parallelism. Under Spec.Coalesce a tuple bound for another node is
// buffered for packing instead of sent immediately; same-node tuples
// always go out directly. A tuple carries at most 6 values (5 under
// Resilience): its message also holds the key and the pack header.
func (v *Invocation) Emit(c *udweave.Ctx, key uint64, vals ...uint64) {
	if v.s.ReduceEvent == 0 {
		panic(fmt.Sprintf("kvmsr: %s: Emit without a ReduceEvent", v.s.Name))
	}
	st := v.st(c)
	if st.doneSent {
		panic(fmt.Sprintf("kvmsr: %s: Emit on lane %d after its map phase completed (emits from kv_reduce are not supported)", v.s.Name, c.NetworkID()))
	}
	v.routeTuple(c, key, vals)
	st.emitted++
}

// nodeOf returns the node hosting a lane.
func (v *Invocation) nodeOf(id arch.NetworkID) int { return int(id) / v.lpn }

// ---- the shuffle wire format ------------------------------------------
//
// Every shuffle message is a pack: count tuples [key, vals...] of one
// width, back to back, then a header word, count | width<<8, then under
// Resilience the emit ID. The header is a trailer so that TruncateOps
// strips it: an owner-addressed pack (ownerBit set; its one tuple is
// addressed to the lane the reduce binding picked) runs kv_reduce in place
// and kv_reduce sees exactly [key, vals...]. A pack without the bit went to
// a coalescing distributor, which unpacks it (see coalesce.go).

// ownerBit marks an owner-addressed pack in its header.
const ownerBit = 1 << 16

// packHeader encodes a pack's header word.
func packHeader(count, width int) uint64 { return uint64(count) | uint64(width)<<8 }

// payloadWords is the tuple budget of one message: every operand but the
// header and, under Resilience, the emit ID.
func (v *Invocation) payloadWords() int {
	if v.res != nil {
		return sim.MaxOperands - 2
	}
	return sim.MaxOperands - 1
}

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

// send puts one pack on the wire to target: reliably to lReduce or, under
// Resilience, through the acked protocol to lRedDeliver.
func (v *Invocation) send(c *udweave.Ctx, target arch.NetworkID, ops []uint64) {
	v.countMsg(c, target)
	if v.res != nil {
		v.sendResilient(c, target, ops)
		return
	}
	c.SendEvent(udweave.EvwNew(target, v.lReduce), udweave.IGNRCONT, ops...)
}

// routeTuple delivers one [key, vals...] tuple through the shuffle:
// buffered per destination node under Coalesce when the owner is remote,
// otherwise sent to the owner as a pack of one (unless FirstWins retires it
// here). Either way it schedules exactly one reduce.
func (v *Invocation) routeTuple(c *udweave.Ctx, key uint64, vals []uint64) {
	width := 1 + len(vals)
	if width > v.payloadWords() {
		panic(fmt.Sprintf("kvmsr: %s: Emit with %d values (max %d: a message also carries the key, the pack header and, under Resilience, the emit ID)",
			v.s.Name, len(vals), v.payloadWords()-1))
	}
	c.Cycles(v.emitCycles)
	c.Mark(v.nameEmit)
	c.CountShuffle(0, 1)
	target := v.ReduceLane(c, key)
	if v.coal != nil {
		if node := v.nodeOf(target); node != v.nodeOf(c.NetworkID()) {
			v.bufferTuple(c, node, key, vals)
			return
		}
	}
	st := v.st(c)
	if v.s.FirstWins && !v.handOff(c, st, key) {
		return
	}
	st.sendBuf[0] = key
	copy(st.sendBuf[1:], vals)
	st.sendBuf[width] = packHeader(1, width) | ownerBit
	v.send(c, target, st.sendBuf[:width+1])
}

// SendReduce schedules a kv_reduce task for key WITHOUT crediting the emit
// to this lane. It exists for map tasks that organize their own local
// workers (the BFS accelerator master-worker scheme): sub-workers send
// reduces with SendReduce and report their counts to the map task, which
// credits them with EmitFrom before calling Return. Every call schedules
// exactly one reduce task, so the map task passes EmitFrom the number of
// calls. Using SendReduce without a matching EmitFrom breaks termination
// detection.
func (v *Invocation) SendReduce(c *udweave.Ctx, key uint64, vals ...uint64) {
	if v.s.ReduceEvent == 0 {
		panic(fmt.Sprintf("kvmsr: %s: SendReduce without a ReduceEvent", v.s.Name))
	}
	v.routeTuple(c, key, vals)
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

// ReduceDone signals that one kv_reduce task has completed. On a lane its
// node's drain probe has reached, the completion that leaves no reduce task
// in progress arms the lane's push, so late reduces reach the master
// without being asked for again: at most one message per reduce-idle
// transition, and a lane batches — the push fires pushLinger cycles later
// and reports every reduce finished by then at once.
func (v *Invocation) ReduceDone(c *udweave.Ctx) { v.reduceDone(c, v.st(c), 0) }

// ReduceDoneAdd is ReduceDone adding n to the launch's sum (the completion's
// third operand), which rides every report of the count and so is exact.
func (v *Invocation) ReduceDoneAdd(c *udweave.Ctx, n uint64) { v.reduceDone(c, v.st(c), n) }

func (v *Invocation) reduceDone(c *udweave.Ctx, st *laneState, n uint64) {
	st.reduced++
	st.added += n
	c.ScratchAccess(1)
	if (st.reportMode || st.replyOwed) && st.started == st.reduced {
		v.armPush(c, st, levelLane)
	}
}

// deliver receives every shuffle message, under Resilience after
// redDeliver's ack and dedup. An owner-addressed pack runs its tuple's
// kv_reduce in place — same thread, same message, no cycles of its own —
// and counts the task as started. A distributor's pack is unpacked: each
// tuple passes the FirstWins filter and goes to its owner lane as a pack of
// one, forwarded on the intra-node interconnect or, when the distributor
// owns it (or under ReduceAnyLane), run through udweave.InvokeLocal (fresh
// thread, src preserved).
func (v *Invocation) deliver(c *udweave.Ctx) {
	ops := c.Ops()
	hdr := ops[len(ops)-1]
	count, width, owned := int(hdr&0xff), int(hdr>>8&0xff), hdr&ownerBit != 0
	if count == 0 || width == 0 || count*width != len(ops)-1 || owned && count != 1 {
		panic(fmt.Sprintf("kvmsr: %s: malformed shuffle message (header %#x, %d operands)", v.s.Name, hdr, len(ops)))
	}
	st := v.st(c)
	if owned {
		c.TruncateOps(width)
		st.started++
		c.Invoke(v.s.ReduceEvent)
		return
	}
	c.Cycles(2)
	self, src := c.NetworkID(), c.Src()
	for i := 0; i < count; i++ {
		tuple := ops[i*width : (i+1)*width]
		owner := self
		if !v.s.ReduceAnyLane {
			if v.s.FirstWins && !v.handOff(c, st, tuple[0]) {
				continue
			}
			owner = v.ReduceLane(c, tuple[0])
		}
		pack := append(append(st.sendBuf[:0], tuple...), packHeader(1, width)|ownerBit)
		if owner == self {
			c.InvokeLocal(src, v.lReduce, pack...)
			continue
		}
		c.Cycles(1)
		c.SendEvent(udweave.EvwNew(owner, v.lReduce), udweave.IGNRCONT, pack...)
	}
	c.YieldTerminate()
}

// handOff is the Spec.FirstWins filter, run by the lane about to hand a
// tuple of key to the key's owner lane: it reports whether to hand it over,
// which is false only if this lane has handed the owner a tuple of key
// before. That earlier tuple reaches the owner ahead of this one (a lane's
// sends to one lane arrive in order), so the owner would only ReduceDone
// this one. It is retired here instead, started and reduced on this lane,
// so the termination sums hold unchanged. The table is direct-mapped and
// remembers the last key per slot: a miss just hands the tuple over, and
// the owner's own check stays the authority. Slots hold key+1 in 32 bits
// (0 = empty), so a key of 2^32-1 or more is always handed over.
func (v *Invocation) handOff(c *udweave.Ctx, st *laneState, key uint64) bool {
	c.Cycles(handOffCycles)
	c.ScratchAccess(1)
	if key >= 1<<32-1 {
		return true
	}
	if st.handed == nil {
		st.handed = v.fwslot.Get(c)
	}
	slot := &st.handed[prng.Mix64(key)>>(64-handedBits)]
	if *slot == uint32(key+1) {
		st.started++
		st.term.Retired++
		v.reduceDone(c, st, 0)
		return false
	}
	*slot = uint32(key + 1)
	return true
}

// Flush sends whatever the executing lane holds in its pack buffers now
// instead of leaving it to the max-linger guard. It is for lanes that
// SendReduce outside their own map phase (BFS sub-workers) and know they
// have sent their last tuple of the round; calling it per tuple would
// unpack the shuffle. A no-op without Spec.Coalesce.
func (v *Invocation) Flush(c *udweave.Ctx) {
	if v.coal != nil {
		v.flushAll(c)
	}
}

// ---- broadcast: master -> node masters -> accel masters -> lanes ------

// fanOut sends label with ops from the role at level, held by the executing
// lane, to each of its children one level down, in lane order, and returns
// their number. It charges base cycles and 2 per child. Every broadcast
// uses it: the start, a node's drain probe and the straggler re-kick.
func (v *Invocation) fanOut(c *udweave.Ctx, level uint64, base int, label udweave.Label, ops ...uint64) int {
	m, n, ls := v.p.M, 0, v.lanes(c.NetworkID())
	lo, hi := ls.unit(m, level, c.NetworkID())
	c.Cycles(base)
	for child := lo; child < hi; n++ {
		clo, chi := ls.unit(m, level-1, child)
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(ls.holder(m, level-1, clo, chi), label), udweave.IGNRCONT, ops...)
		child = chi
	}
	return n
}

// parent returns the lane holding the role one level up from the role at
// level that self holds.
func (v *Invocation) parent(level uint64, self arch.NetworkID) arch.NetworkID {
	ls := v.lanes(self)
	lo, hi := ls.unit(v.p.M, level+1, self)
	return ls.holder(v.p.M, level+1, lo, hi)
}

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
	// red is R, which spans launches.
	r := &st.roles[levelMaster]
	r.done, r.emit = 0, 0
	st.poolNext = v.s.MapBinding.poolStart(v.s.Lanes.Count, numKeys)
	st.poolEnd = numKeys
	st.term.Launches++
	c.TaskBegin(v.namePhaseMap, v.phase(c, st))
	r.expect = v.fanOut(c, levelMaster, 10, v.lStart[levelNode], numKeys, arg)
	c.YieldTerminate()
}

// start returns the start handler of the node or accelerator role: it
// opens the role's convergecast for the launch and passes the broadcast on.
func (v *Invocation) start(level uint64) udweave.Handler {
	return func(c *udweave.Ctx) {
		st := v.st(c)
		st.roles[level] = role{expect: v.fanOut(c, level, 6, v.lStart[level-1], c.Op(0), c.Op(1))}
		c.YieldTerminate()
	}
}

func (v *Invocation) laneStart(c *udweave.Ctx) {
	st := v.st(c)
	numKeys := c.Op(0)
	st.numKeys = numKeys
	st.arg = c.Op(1)
	st.keys = v.s.MapBinding.initialKeys(v.p.M, v.lanes(c.NetworkID()), c.NetworkID(), numKeys)
	st.outstanding = 0
	st.awaiting = false
	st.exhausted = !v.s.MapBinding.dynamic()
	st.doneSent = false
	st.reportMode = false
	c.Cycles(8)
	if st.keys.striped() {
		c.Cycles(stripedStartCycles)
	}
	v.pump(c, st)
	c.YieldTerminate()
}

// pump launches map tasks up to the outstanding window, requests more work
// under a dynamic binding, and reports lane completion.
func (v *Invocation) pump(c *udweave.Ctx, st *laneState) {
	self := c.NetworkID()
	for st.outstanding < maxOutstanding && !st.keys.empty() {
		if st.keys.striped() {
			c.Cycles(stripedKeyCycles)
		}
		key := st.keys.pop()
		st.outstanding++
		c.Cycles(3)
		c.SendEvent(udweave.EvwNew(self, v.s.MapEvent),
			udweave.EvwNew(self, v.lMapReturn), key, st.arg)
	}
	// Under a dynamic binding, ask the master for another chunk only when
	// the lane has drained its work: granting chunks to still-busy lanes
	// would queue movable work behind long tasks, defeating the
	// load-balancing purpose of PBMW.
	if st.keys.empty() && !st.exhausted && !st.awaiting && st.outstanding == 0 {
		st.awaiting = true
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(v.lanes(self).First, v.lMoreWork),
			udweave.EvwNew(self, v.lGrant))
	}
	if st.outstanding == 0 && st.keys.empty() && st.exhausted && !st.doneSent {
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
		d, a := st.takeDelta()
		c.SendEvent(udweave.EvwNew(v.parent(levelLane, self), v.lDone[levelLane]),
			udweave.IGNRCONT, st.emitted, d, a)
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
		st.keys = keyRange(start, end)
	}
	c.Cycles(4)
	v.pump(c, st)
	c.YieldTerminate()
}

// ---- completion aggregation: lanes -> accel -> node -> master ---------
//
// Each done message carries the subtree's cumulative emit count and, next
// to it, the reduce-count delta its lanes had not yet reported and that
// delta's sum: one tree traversal yields all three sums at the master.

// done returns the map-done handler of the role at level: it counts one
// child's report into the role's convergecast and, on the last child's,
// reports the role's sums to its parent — a node first drains its lanes
// (see drain) — or, at the master, ends the map phase.
func (v *Invocation) done(level uint64) udweave.Handler {
	return func(c *udweave.Ctx) {
		st := v.st(c)
		r := &st.roles[level]
		r.done++
		r.emit += c.Op(0)
		r.red += c.Op(1)
		r.sum += c.Op(2)
		c.Cycles(3)
		switch {
		case r.done < r.expect:
		case level == levelMaster:
			v.mapDone(c, st)
		case level == levelNode && v.s.ReduceEvent != 0:
			v.drain(c, st)
		default:
			v.report(c, level, r)
		}
		c.YieldTerminate()
	}
}

// report sends the role's map-done sums to its parent.
func (v *Invocation) report(c *udweave.Ctx, level uint64, r *role) {
	c.SendEvent(udweave.EvwNew(v.parent(level, c.NetworkID()), v.lDone[level]), udweave.IGNRCONT, r.emit, r.red, r.sum)
}

// mapDone runs at the master once every node has reported map-done and
// drained: E is exact and every lane is in report mode. With no reduce
// phase, or when the counts that rode up already match E, the launch is
// complete; otherwise the push that makes R == E completes it.
func (v *Invocation) mapDone(c *udweave.Ctx, st *laneState) {
	c.TaskEnd(v.namePhaseMap, v.phase(c, st))
	if v.s.ReduceEvent != 0 {
		st.draining = true
		c.TaskBegin(v.namePhaseDrain, v.phase(c, st))
	}
	switch {
	case v.drained(st):
		st.term.AtMapDone++
		v.complete(c, st)
	case v.res != nil:
		st.lastR = st.roles[levelMaster].red
		v.armTick(c, st)
	}
}

// phase is the master's span ID for its current launch: the launch number
// above the master's offset from Spec.Lanes.First, so the phases of
// concurrent translates stay apart.
func (v *Invocation) phase(c *udweave.Ctx, st *laneState) uint64 {
	return uint64(c.NetworkID()-v.s.Lanes.First)<<32 | st.term.Launches
}

func (v *Invocation) complete(c *udweave.Ctx, st *laneState) {
	if st.draining {
		c.TaskEnd(v.namePhaseDrain, v.phase(c, st))
	}
	r := &st.roles[levelMaster]
	delta, sum := r.emit-st.prevEmit, r.sum-st.prevSum
	st.prevEmit, st.prevSum = r.emit, r.sum
	st.draining = false
	c.Cycles(4)
	c.Reply(st.cont, delta, r.emit, sum)
}

// ---- termination detection --------------------------------------------
//
// One invariant: the master's R sums every reduce-count delta it has been
// told, and R <= reduces actually finished <= E, so once map-done has made E
// exact, R == E means the launch is drained — in whatever order the deltas
// arrived, within or across launches. Deltas ride the done messages above
// and, from lanes in report mode, pushes. A node holds its map-done report
// until one counted probe over its own lanes has been answered (a lane
// replies when it is reduce-idle, so the reply covers everything queued at
// it, and enters report mode), and node_done carries the replies' deltas.
// So no reply is in flight once the master has heard every node, a
// launch's counted convergecasts never see another launch's messages, and
// every lane then reports its own late reduces; tree masters combine those
// pushes on the way up. The master completes on the message that makes
// R == E; it never probes. Each delta carries its reduces' ReduceDoneAdd
// sum, so at R == E the master's sum is exact too.

// drained reports R == E. Call it only between map-done and completion,
// when E is exact. R can exceed E only through a bug in the user's events
// (a kv_reduce that calls ReduceDone twice, SendReduce credits that never
// reached EmitFrom), which would otherwise leave the launch open forever
// with nothing left to run.
func (v *Invocation) drained(st *laneState) bool {
	r := &st.roles[levelMaster]
	if r.red > r.emit {
		panic(fmt.Sprintf("kvmsr: %s: %d reduces reported done for %d emits", v.s.Name, r.red, r.emit))
	}
	return r.red == r.emit
}

// takeDelta returns the lane's reduces not yet reported upward and their
// sum, and marks them reported.
func (st *laneState) takeDelta() (d, a uint64) {
	d, a = st.reduced-st.reported, st.added-st.addReported
	st.reported, st.addReported = st.reduced, st.added
	return d, a
}

// drain starts a node's counted probe over its own lanes; the replies add
// to the red its accelerators reported with map-done.
func (v *Invocation) drain(c *udweave.Ctx, st *laneState) {
	st.roles[levelNode].done = 0
	st.term.NodeDrains++
	v.fanOut(c, levelNode, 4, v.lProbe, levelAccel)
}

// probe is the level-tagged probe handler: an accelerator role reopens its
// convergecast for the replies and passes the probe on, a lane answers it,
// and at the master level it is the straggler clock.
func (v *Invocation) probe(c *udweave.Ctx) {
	st := v.st(c)
	switch level := c.Op(0); level {
	case levelMaster:
		v.tick(c, st)
	case levelLane:
		v.probeLane(c, st)
	default:
		r := &st.roles[level]
		r.done, r.red, r.sum = 0, 0, 0
		v.fanOut(c, level, 4, v.lProbe, level-1)
	}
	c.YieldTerminate()
}

// probeLane answers the drain probe. A reduce-idle lane replies at once; a
// lane with reduce tasks in progress owes the reply until it is next idle,
// so the counted aggregation — one message per accelerator — carries
// everything the lane had queued when the probe arrived, and only tuples
// that arrive after the reply are left to pushes.
func (v *Invocation) probeLane(c *udweave.Ctx, st *laneState) {
	c.Cycles(2)
	if st.started != st.reduced {
		st.replyOwed = true
		return
	}
	v.replyLane(c, st)
}

// replyLane sends the lane's counted probe reply with its unreported
// reduces and flips the lane into report mode: whatever it finishes from
// here on it pushes itself.
func (v *Invocation) replyLane(c *udweave.Ctx, st *laneState) {
	st.replyOwed = false
	st.reportMode = true
	d, a := st.takeDelta()
	c.SendEvent(udweave.EvwNew(v.parent(levelLane, c.NetworkID()), v.lReply[levelLane]), udweave.IGNRCONT, d, a)
}

// reply returns the probe-reply handler of the role at level: it counts one
// child's reduce delta into the role's convergecast and, on the last
// child's, passes the sum up: an accelerator as its reply, a node as its
// map-done report, which its drain held back.
func (v *Invocation) reply(level uint64) udweave.Handler {
	return func(c *udweave.Ctx) {
		st := v.st(c)
		r := &st.roles[level]
		r.done++
		r.red += c.Op(0)
		r.sum += c.Op(1)
		c.Cycles(3)
		switch {
		case r.done < r.expect:
		case level == levelNode:
			v.report(c, level, r)
		default:
			c.SendEvent(udweave.EvwNew(v.parent(level, c.NetworkID()), v.lReply[level]), udweave.IGNRCONT, r.red, r.sum)
		}
		c.YieldTerminate()
	}
}

// armTick queues the straggler clock's next tick at the master (the
// executing lane), tagged with the launch it belongs to.
func (v *Invocation) armTick(c *udweave.Ctx, st *laneState) {
	c.SendEventAfter(stragglerTick, udweave.EvwNew(c.NetworkID(), v.lProbe), udweave.IGNRCONT, levelMaster, st.term.Launches)
}

// tick is the straggler detector (Resilience only, where a tuple can be
// lost in flight): a tick that finds R where the last one left it means
// shuffle work is stuck (lost retransmissions, a stalled lane), so the
// master re-kicks every lane down the tree to resend its outstanding emits
// at once. A tick whose launch has completed meanwhile is stale and dies.
func (v *Invocation) tick(c *udweave.Ctx, st *laneState) {
	if !st.draining || c.Op(1) != st.term.Launches {
		return
	}
	if r := st.roles[levelMaster].red; r == st.lastR {
		v.rst(c).totals.Rekicks++
		v.fanOut(c, levelMaster, 4, v.lRekick, levelNode)
	} else {
		st.lastR = r
	}
	v.armTick(c, st)
}

// armPush queues the role's push event on the executing lane unless one
// is queued already; a lane in report mode lingers pushLinger cycles first.
func (v *Invocation) armPush(c *udweave.Ctx, st *laneState, level uint64) {
	if st.armed[level] {
		return
	}
	st.armed[level] = true
	c.Cycles(2)
	evw := udweave.EvwNew(c.NetworkID(), v.lPush)
	if level == levelLane && st.reportMode {
		c.SendEventAfter(v.pushLinger, evw, udweave.IGNRCONT, level)
		return
	}
	c.SendEvent(evw, udweave.IGNRCONT, level)
}

// push forwards what the role has accumulated one level up: a worker its
// own unreported reduces, a tree master the deltas its children pushed
// since its last forward. Being self-addressed it runs after whatever was
// queued on the lane when it was armed, which is what combines a burst
// into one message.
func (v *Invocation) push(c *udweave.Ctx) {
	st := v.st(c)
	level := c.Op(0)
	st.armed[level] = false
	c.Cycles(2)
	c.YieldTerminate()
	var d, a uint64
	switch {
	case level != levelLane:
		d, a, st.pend[level], st.pendAdd[level] = st.pend[level], st.pendAdd[level], 0, 0
	case st.started != st.reduced:
		// Reduces started while the push was queued: the idle transition
		// that ends them arms the next one.
		return
	case st.replyOwed:
		v.replyLane(c, st)
		return
	default:
		if d, a = st.takeDelta(); d == 0 {
			return
		}
		st.term.Pushes++
	}
	c.SendEvent(udweave.EvwNew(v.parent(level, c.NetworkID()), v.lDelta), udweave.IGNRCONT, level+1, d, a)
}

// delta receives a pushed reduce-count delta at a tree master (accumulate
// and forward) or at the invocation master (add to R and complete if that
// drains the launch).
func (v *Invocation) delta(c *udweave.Ctx) {
	st := v.st(c)
	level, d, a := c.Op(0), c.Op(1), c.Op(2)
	c.Cycles(3)
	if level < levelMaster {
		st.pend[level] += d
		st.pendAdd[level] += a
		v.armPush(c, st, level)
	} else {
		st.roles[levelMaster].red += d
		st.roles[levelMaster].sum += a
		st.term.DeltaMsgs++
		st.term.DeltaReduces += d
		if st.draining && v.drained(st) {
			v.complete(c, st)
		}
	}
	c.YieldTerminate()
}

// TerminationTotals counts the termination protocol's work over an
// invocation's lifetime, on every translate it ran on (see
// Invocation.TerminationTotals).
type TerminationTotals struct {
	// Launches counts launches started.
	Launches uint64
	// NodeDrains counts the drain probes node roles sent over their own
	// lanes: one per node and launch with a reduce phase (the master never
	// probes).
	NodeDrains uint64
	// AtMapDone counts launches that completed on their last node_done,
	// the reduce counts riding the completion tree already matching the
	// emits.
	AtMapDone uint64
	// DeltaMsgs and DeltaReduces count the pushed delta messages the
	// master received and the reduces they reported; Pushes the delta
	// messages worker lanes sent (tree masters combine them on the way).
	DeltaMsgs    uint64
	DeltaReduces uint64
	Pushes       uint64
	// Retired counts the tuples Spec.FirstWins retired at hand-off, over
	// every lane: the emits that never reached their owner lane.
	Retired uint64
}

// TerminationState is a host-side reading of the protocol's conservation
// law (see Invocation.TerminationState), summed over every translate the
// invocation ran on: at quiescence Reduced == Reported == R == E, Added ==
// S, Retired <= Reduced, and nothing is Armed or Pending.
type TerminationState struct {
	// Reduced and Reported sum the lanes' finished and reported reduces;
	// Retired the part of Reduced that FirstWins retired at hand-off
	// instead of running kv_reduce; Added their ReduceDoneAdd values.
	Reduced, Reported, Retired, Added uint64
	// R and E are the masters' delta sums and cumulative emit counts, S
	// the sums that rode with R.
	R, E, S uint64
	// Armed counts queued push events; Pending sums deltas, and their
	// sums, parked at tree masters.
	Armed   int
	Pending uint64
}

// eachLane calls f with the *T that every lane of the invocation's set and
// of its translates keeps in slot (lanes the program never touched keep
// none). peek resolves a lane to its actor: pass updown.Machine's lane
// peek or sim.Engine.PeekActor, after a run or at a quiesced point.
func eachLane[T any](v *Invocation, peek func(arch.NetworkID) any, slot udweave.Slot[T], f func(lane arch.NetworkID, st *T)) {
	for lane := v.s.Lanes.First; int(lane) < v.p.M.TotalLanes(); lane++ {
		if st := slot.Peek(peek(lane)); st != nil {
			f(lane, st)
		}
	}
}

// TerminationTotals reads the termination counters after a run: each lane
// counts what its roles did, so the invocation's totals are their sums
// over every translate.
func (v *Invocation) TerminationTotals(peek func(arch.NetworkID) any) TerminationTotals {
	var t TerminationTotals
	eachLane(v, peek, v.slot, func(_ arch.NetworkID, st *laneState) {
		l := st.term
		t = TerminationTotals{t.Launches + l.Launches, t.NodeDrains + l.NodeDrains,
			t.AtMapDone + l.AtMapDone, t.DeltaMsgs + l.DeltaMsgs, t.DeltaReduces + l.DeltaReduces,
			t.Pushes + l.Pushes, t.Retired + l.Retired}
	})
	return t
}

// TerminationState reads the protocol's counters at a quiesced point
// (testing and leak detection, like Outstanding).
func (v *Invocation) TerminationState(peek func(arch.NetworkID) any) TerminationState {
	var s TerminationState
	eachLane(v, peek, v.slot, func(lane arch.NetworkID, st *laneState) {
		s.Reduced += st.reduced
		s.Reported += st.reported
		s.Retired += st.term.Retired
		s.Added += st.added
		if v.lanes(lane).First == lane {
			r := st.roles[levelMaster]
			s.R, s.E, s.S = s.R+r.red, s.E+r.emit, s.S+r.sum
		}
		for level := range st.armed {
			if st.armed[level] {
				s.Armed++
			}
			s.Pending += st.pend[level] + st.pendAdd[level]
		}
	})
	return s
}
