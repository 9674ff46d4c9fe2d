// Coalescing shuffle for KVMSR: when Spec.Coalesce is set, tuples emitted
// to reducers on *other nodes* are not sent one message each but packed
// into per-destination-node buffers and flushed as multi-tuple messages
// that fill the 8-operand payload. An optional associative Spec.Combiner
// pre-reduces same-key tuples inside the pack buffer before they ever
// reach the network. Tuples whose reducer lives on the sender's own node
// ride the classic direct path untouched: they never cross the inter-node
// network, so there is nothing to save — and deferring them would only
// cost latency. On a one-node machine coalescing is therefore a no-op.
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
// Packing format: operand 0 is a header word, count | width<<8, where
// width = 1 + len(vals) is the uniform per-tuple operand footprint; the
// payload is count back-to-back [key, vals...] tuples. Non-resilient
// messages budget sim.MaxOperands-1 payload words (7); resilient ones one
// fewer (6), since the trailing operand carries the emit ID.
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
//     MaxLinger cycles, so a tuple buffered outside the lane's own map
//     phase and never flushed explicitly still reaches its reducer.
//     Termination detection does not wait for the linger on a timer of
//     its own: the tuple's emit is already counted in E, so the launch
//     stays open until the reduce it becomes is pushed to the master.
//
// A packed message targets a distributor lane on the destination node —
// nodeBase + srcLane%lanesPerNode, so concurrent senders spread across
// all of the node's lanes instead of hot-spotting one. The distributor
// unpacks and forwards each tuple to its owner lane (recomputed from the
// reduce binding; reducers keep lane-local state, so a tuple that changes
// state must land on its owner) over the cheap intra-node interconnect,
// or runs it directly through udweave.InvokeLocal when it owns the tuple
// itself. Under Spec.FirstWins the distributor first retires every tuple
// whose key it has already handed over (see handOff): that one never
// reaches its owner.
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
// Under Resilience the emit ID and the ack retire the *packed message*
// (the distributor acks and dedups per message; admission forwards each
// contained tuple exactly once on the reliable class, so per-tuple
// exactly-once delivery follows). So that the reducer-side shim can
// parse every resilient delivery uniformly, same-node tuples under
// coalescing+resilience are wrapped as 1-tuple packed messages.
//
// Stats accounting: Stats.ShuffleTuples counts logical emits in every
// mode; Stats.ShuffleMsgs counts shuffle messages that enter the
// inter-node network (cross-node sends — the ones that pay injection),
// in every mode. Their ratio is the achieved packing factor over the
// network. Distributor forwards and same-node direct sends are intra-node
// and count toward neither.
package kvmsr

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// Coalesce configures the coalescing shuffle. The zero value of each field
// selects a default at registration time.
type Coalesce struct {
	// MaxLinger is the longest a buffered tuple may wait before the guard
	// thread force-flushes the lane's buffers. Zero selects 2 x the
	// machine's cross-node latency.
	MaxLinger arch.Cycles
}

// withDefaults resolves zero fields against machine m.
func (o Coalesce) withDefaults(m arch.Machine) Coalesce {
	if o.MaxLinger <= 0 {
		o.MaxLinger = 2 * m.LatCrossNode
	}
	return o
}

// Combiner pre-reduces two same-key value lists inside a pack buffer. It
// must be associative and commutative up to the application's tolerance
// (integer merges are exact; float summation reassociates, which is why
// PageRank results under combining are epsilon-equal, not bit-equal, to
// the uncombined run). The returned slice must have the same length as a
// and may reuse a's storage; it becomes the buffered entry's values.
type Combiner func(key uint64, a, b []uint64) []uint64

// packBuf is one destination node's pack buffer: count tuples of uniform
// width packed back-to-back in ops (payload only; the header word is
// prepended at flush time, and the resilient path appends the emit ID).
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

// payloadWords is the per-message packing budget: one operand goes to the
// header, and a resilient message reserves one more for the emit ID.
func (v *Invocation) payloadWords() int {
	if v.res != nil {
		return sim.MaxOperands - 2
	}
	return sim.MaxOperands - 1
}

// packHeader encodes the tuple count and uniform tuple width.
func packHeader(count, width int) uint64 { return uint64(count) | uint64(width)<<8 }

func checkCoalescedVals(v *Invocation, vals []uint64) {
	if 1+len(vals) > v.payloadWords() {
		suffix := ""
		if v.res != nil {
			suffix = " and one for the emit ID"
		}
		panic(fmt.Sprintf("kvmsr: %s: coalesced Emit with %d values (max %d: one operand is reserved for the pack header%s)",
			v.s.Name, len(vals), v.payloadWords()-1, suffix))
	}
}

// bufferTuple adds [key, vals...] to the destination node's pack buffer,
// flushing first if the tuple would not fit, and returns the termination
// credit: 1 when the tuple became a new buffered entry (it will reach a
// reducer and be ReduceDone'd once), 0 when the combiner absorbed it into
// an existing same-key entry.
func (v *Invocation) bufferTuple(c *udweave.Ctx, node int, key uint64, vals []uint64) uint64 {
	cs := v.cst(c)
	width := 1 + len(vals)
	pb := cs.bufs[node]
	if pb == nil {
		pb = &packBuf{node: node}
		cs.bufs[node] = pb
		cs.order = append(cs.order, node)
	}
	if v.s.Combiner != nil && pb.count > 0 && pb.width == width {
		// Linear scan over at most a handful of buffered entries.
		c.Cycles(1)
		for i := 0; i < pb.count; i++ {
			base := i * width
			if pb.ops[base] == key {
				c.Cycles(2)
				// Stage vals through the lane's pooled buffer before
				// handing it to the user combiner: escape analysis
				// can't see through the function value, and passing
				// the caller's slice directly would force every
				// Emit/SendReduce call site to heap-allocate its
				// variadic arguments.
				stage := v.st(c).sendBuf[:width-1]
				copy(stage, vals)
				merged := v.s.Combiner(key, pb.ops[base+1:base+width], stage)
				copy(pb.ops[base+1:base+width], merged)
				return 0
			}
		}
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
	return 1
}

// flushBuf sends one node's buffered tuples as a single packed message to
// a distributor lane on that node and empties the buffer. The distributor
// is picked by the sender's intra-node lane index, spreading concurrent
// senders across the destination node.
func (v *Invocation) flushBuf(c *udweave.Ctx, cs *coalState, pb *packBuf) {
	if pb.count == 0 {
		return
	}
	st := v.st(c)
	n := pb.count * pb.width
	st.sendBuf[0] = packHeader(pb.count, pb.width)
	copy(st.sendBuf[1:1+n], pb.ops[:n])
	cs.buffered -= pb.count
	pb.count = 0
	dist := v.distributor(c.NetworkID(), pb.node)
	c.Cycles(2)
	if c.Tracing() {
		c.Mark(v.nameFlush)
	}
	if v.res != nil {
		// sendResilient counts the network message (cross-node by
		// construction here).
		v.sendResilient(c, dist, st.sendBuf[:1+n])
		return
	}
	c.CountShuffle(1, 0)
	c.SendEvent(udweave.EvwNew(dist, v.lPackDeliver), udweave.IGNRCONT, st.sendBuf[:1+n]...)
}

// distributor picks the lane on the destination node that receives a
// packed message from src: the sender's intra-node index, folded into the
// slice of the node that belongs to the invocation's lane set (reduce
// targets always derive from in-set lanes, so that slice is never empty),
// spreading concurrent senders instead of hot-spotting one lane.
func (v *Invocation) distributor(src arch.NetworkID, node int) arch.NetworkID {
	lo, hi := v.s.Lanes.clip(node*v.lpn, v.lpn)
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
// MaxLinger cycles, flushes whatever is buffered, and terminates once the
// lane's buffers are empty (it is restarted by the next buffered tuple).
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
	c.ArmTimeout(v.coal.MaxLinger, v.lFlushGuard)
}

// packDeliver is the distributor-side shim of the non-resilient coalesced
// shuffle: unpack the message and hand each tuple to its owner lane.
func (v *Invocation) packDeliver(c *udweave.Ctx) {
	v.unpackDispatch(c, c.Src(), c.Ops())
	c.YieldTerminate()
}

// unpackDispatch routes every [key, vals...] tuple of a packed payload
// (header included at ops[0]) to its owner lane's kv_reduce: a local
// forward on the intra-node interconnect, or udweave.InvokeLocal (fresh
// thread, src preserved) when the distributor itself owns the tuple.
func (v *Invocation) unpackDispatch(c *udweave.Ctx, src arch.NetworkID, ops []uint64) {
	hdr := ops[0]
	count := int(hdr & 0xff)
	width := int(hdr >> 8 & 0xff)
	if count <= 0 || width <= 0 || 1+count*width > len(ops) {
		panic(fmt.Sprintf("kvmsr: %s: malformed packed shuffle message (header %#x, %d operands)", v.s.Name, hdr, len(ops)))
	}
	c.Cycles(2)
	self := c.NetworkID()
	var st *laneState // the FirstWins table's lane, fetched once per message
	if v.s.FirstWins {
		st = v.st(c)
	}
	for i := 0; i < count; i++ {
		base := 1 + i*width
		if !v.s.ReduceAnyLane {
			if st != nil && !v.handOff(c, st, ops[base]) {
				continue
			}
			owner := v.s.ReduceBinding.Lane(ops[base], v.s.Lanes)
			if owner != self {
				c.Cycles(1)
				c.SendEvent(udweave.EvwNew(owner, v.lReduce), udweave.IGNRCONT, ops[base:base+width]...)
				continue
			}
		}
		c.InvokeLocal(src, v.lReduce, ops[base:base+width]...)
	}
}
