// Coalescing shuffle for KVMSR: when Spec.Coalesce is set, tuples emitted
// to reducers on *other nodes* are not sent one message each but packed
// into per-destination-node buffers and flushed as multi-tuple messages
// that fill the 8-operand payload. Tuples whose reducer lives on the
// sender's own node go out at once, exactly as without Coalesce: they
// never cross the inter-node network, so there is nothing to save — and
// deferring them would only cost latency. On a one-node machine
// coalescing is therefore a no-op, in every mode.
//
// The granularity matters. A per-destination-LANE buffer has expected
// density tuples/lanes^2 per source lane — far below one tuple per buffer
// at any realistic scale, so nothing ever packs and buffered tuples just
// arrive late, destroying map/reduce overlap. A per-destination-NODE
// buffer has density tuples/(lanes x nodes): it fills every few emits,
// packs at the payload limit, and flushes continuously while the map
// phase runs. This mirrors the aggregation hierarchy of real fine-grained
// machines, where the scarce resource is the node's network injection
// port, not the lane-to-lane path: the simulator charges injection-port
// serialization and the fixed per-message wire cost (arch.MsgBytes) only
// for cross-node messages, and those are exactly the messages packing
// eliminates.
//
// A buffer flushes as one pack of the shuffle's single wire format (see
// "the shuffle wire format" in kvmsr.go): its tuples, then the header,
// then under Resilience the emit ID, so it holds payloadWords words of
// tuples (7, or 6 resilient). A tuple sent alone is a pack of one.
//
// Flush triggers, in order of precedence:
//   - buffer-full: the next tuple would not fit (or has a different width);
//   - lane map-done: the lane's last map task returned (the doneSent
//     transition in pump), so everything buffered goes out before the
//     lane reports its emit count upward;
//   - explicit: Invocation.Flush, for a lane that buffers outside its own
//     map phase and knows it has sent its last tuple of the round (BFS
//     sub-workers SendReduce on lanes whose own map phase finished
//     immediately, and flush just before reporting their count);
//   - max-linger: a lazily started guard thread (udweave.ArmTimeout, the
//     resilience-guard pattern) flushes everything buffered at least every
//     lingerHops cross-node latencies, so a tuple buffered outside the
//     lane's own map phase and never flushed explicitly still reaches its
//     reducer. Termination detection does not wait for the linger on a
//     timer of its own: the tuple's emit is already counted in E, so the
//     launch stays open until the reduce it becomes is pushed to the
//     master.
//
// A flushed pack targets a distributor lane on the destination node —
// nodeBase + srcLane%lanesPerNode, so concurrent senders spread across
// all of the node's lanes instead of hot-spotting one, or under
// ReduceAnyLane a hash of the pack's first key — without the header's
// owner bit. The distributor unpacks it (Invocation.deliver) and
// hands each tuple to its owner lane (recomputed from the reduce binding;
// reducers keep lane-local state, so a tuple that changes state must land
// on its owner) as an owner-addressed pack of one, over the cheap
// intra-node interconnect, or runs it directly through
// udweave.InvokeLocal when it owns the tuple itself. The distributor is
// the lane that addresses those tuples to their owners, so under
// Spec.FirstWins it is the one that retires every tuple whose key it has
// already handed over (see handOff); the emitter checks only the tuples it
// sends to their owners itself.
// Invocations whose reducer tolerates any lane declare Spec.ReduceAnyLane
// and skip the forward hop entirely: the distributor runs every tuple in
// place, so a packed message costs one event dispatch for several tuples
// where the classic shuffle paid one per tuple.
// emitted/reduced termination counters thus count logical tuples, not
// messages. One visible contract change: a kv_reduce behind a forwarded
// tuple sees the distributor, not the original mapper, as Ctx.Src — no
// application in this repo reads Src in kv_reduce, and new ones must not
// when they opt into coalescing.
//
// Under Resilience the emit ID and the ack retire the whole pack (the
// distributor acks and dedups per message; admission forwards each
// contained tuple exactly once on the reliable class, so per-tuple
// exactly-once delivery follows).
//
// Stats accounting: Stats.ShuffleTuples counts logical emits in every
// mode; Stats.ShuffleMsgs counts shuffle messages that enter the
// inter-node network (cross-node sends — the ones that pay injection),
// in every mode. Their ratio is the achieved packing factor over the
// network. Distributor forwards and same-node direct sends are intra-node
// and count toward neither.
package kvmsr

import (
	"updown/internal/arch"
	"updown/internal/prng"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// Coalesce opts an invocation into the coalescing shuffle (Spec.Coalesce
// non-nil). Its timing derives from the machine: lingerHops.
type Coalesce struct{}

// lingerHops is the longest a buffered tuple waits for the flush guard, in
// cross-node latencies.
const lingerHops = 2

// packBuf is one destination node's pack buffer: count tuples of uniform
// width packed back-to-back in ops, with room for the header the flush
// appends.
type packBuf struct {
	node  int
	width int
	count int
	ops   [sim.MaxOperands]uint64
}

// coalState is the per-lane, per-invocation coalescing bookkeeping, kept
// in its own lane slot. Buffers are allocated once per destination
// node (at most nodes-1 of them) and reused for the lane's lifetime;
// order records first-use order so flush-all never iterates a Go map
// (map order must not leak into simulated behavior).
type coalState struct {
	bufs     map[int]*packBuf
	order    []int
	buffered int
	guardOn  bool
}

// cst returns the lane's coalescing state for this invocation.
func (v *Invocation) cst(c *udweave.Ctx) *coalState {
	cs := v.cslot.Get(c)
	if cs.bufs == nil {
		cs.bufs = make(map[int]*packBuf)
	}
	return cs
}

// bufferTuple adds [key, vals...] to the destination node's pack buffer,
// flushing first if the tuple would not fit.
func (v *Invocation) bufferTuple(c *udweave.Ctx, node int, key uint64, vals []uint64) {
	cs := v.cst(c)
	width := 1 + len(vals)
	pb := cs.bufs[node]
	if pb == nil {
		pb = &packBuf{node: node}
		cs.bufs[node] = pb
		cs.order = append(cs.order, node)
	}
	if pb.count > 0 && (pb.width != width || (pb.count+1)*pb.width > v.payloadWords()) {
		v.flushBuf(c, cs, pb)
	}
	if pb.count == 0 {
		pb.width = width
	}
	base := pb.count * width
	pb.ops[base] = key
	copy(pb.ops[base+1:base+width], vals)
	pb.count++
	cs.buffered++
	c.ScratchAccess(width)
	if !cs.guardOn {
		cs.guardOn = true
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(c.NetworkID(), v.lFlushGuard), udweave.IGNRCONT)
	}
}

// flushBuf sends one node's buffered tuples as a single pack to a
// distributor lane on that node and empties the buffer.
func (v *Invocation) flushBuf(c *udweave.Ctx, cs *coalState, pb *packBuf) {
	if pb.count == 0 {
		return
	}
	n := pb.count * pb.width
	pb.ops[n] = packHeader(pb.count, pb.width)
	cs.buffered -= pb.count
	pb.count = 0
	c.Cycles(2)
	if c.Tracing() {
		c.Mark(v.nameFlush)
	}
	v.send(c, v.distributor(c.NetworkID(), pb.node, pb.ops[0]), pb.ops[:n+1])
}

// distributor picks the lane of node's slice of src's translate of the
// lane set (never empty: reduce targets derive from in-set lanes) that
// receives a pack from src whose first key is key: by the sender's
// intra-node index, spreading concurrent senders, or under ReduceAnyLane,
// where it runs the whole pack, by the key's hash, so a hub map task's
// packs spread like its keys.
func (v *Invocation) distributor(src arch.NetworkID, node int, key uint64) arch.NetworkID {
	lo, hi := v.lanes(src).clip(node*v.lpn, v.lpn)
	if v.s.ReduceAnyLane {
		return lo + arch.NetworkID(prng.Mix64(key)%uint64(hi-lo))
	}
	return lo + arch.NetworkID(int(src)%int(hi-lo))
}

// flushAll drains every pack buffer in destination first-use order.
func (v *Invocation) flushAll(c *udweave.Ctx) {
	cs := v.cst(c)
	if cs.buffered == 0 {
		return
	}
	begin := c.Now()
	for _, node := range cs.order {
		v.flushBuf(c, cs, cs.bufs[node])
	}
	if c.Tracing() {
		c.Span(v.nameFlush, begin)
	}
}

// flushGuard is the lane's max-linger watchdog thread: it wakes every
// lingerHops cross-node latencies, flushes whatever is buffered, and
// terminates once the lane's buffers are empty (it is restarted by the next
// buffered tuple).
func (v *Invocation) flushGuard(c *udweave.Ctx) {
	cs := v.cst(c)
	if cs.buffered == 0 {
		cs.guardOn = false
		c.Cycles(2)
		c.YieldTerminate()
		return
	}
	c.Cycles(2)
	v.flushAll(c)
	c.ArmTimeout(lingerHops*v.p.M.LatCrossNode, v.lFlushGuard)
}
