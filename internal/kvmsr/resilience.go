// Resilient shuffle for KVMSR: when Spec.Resilience is set, every shuffle
// message — a pack of the one wire format (see "the shuffle wire format"
// in kvmsr.go), one tuple or a coalesced buffer's worth — travels on the
// unreliable message class (arch.KindEventU) wrapped in an at-least-once
// delivery protocol: the pack carries a per-lane sequence-numbered emit ID
// as its last operand, the receiver acks it, a guard thread retransmits
// overdue packs with capped exponential backoff, and the receiver applies
// each pack once through a per-sender sliding dedup window before the
// shuffle's one unpack (Invocation.deliver) takes it. The invocation master
// doubles as a straggler detector: only under this shuffle does it keep a
// clock while the launch drains (a tick every stragglerTick cycles), and
// when R stops moving between ticks it re-kicks every lane down the tree,
// forcing an immediate retransmission of all outstanding shuffle work.
//
// The net contract: under any fault plan that eventually delivers some
// retransmission (message drop/dup/delay at any rate below 1), a
// resilient invocation applies every logical emit exactly once, so
// application results are identical to a fault-free run.
package kvmsr

import (
	"sort"

	"updown/internal/arch"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// Resilience opts an invocation into the resilient shuffle (Spec.Resilience
// non-nil). Its timing is fixed: the constants below.
type Resilience struct{}

const (
	// retryHops sets the base ack deadline before an emit is retransmitted,
	// in cross-node latencies; the deadline doubles per failed attempt.
	retryHops = 8
	// backoffCap bounds the exponential backoff to 2^backoffCap (64x) the
	// base deadline.
	backoffCap = 6
	// stragglerTick is the period of the master's straggler clock: a tick
	// that finds R unchanged since the last one re-kicks all lanes.
	stragglerTick = 4000
)

// ResilienceTotals aggregates the protocol's counters across a lane set
// (see Invocation.ResilienceTotals).
type ResilienceTotals struct {
	// Emits counts packs sent (first transmissions).
	Emits int64
	// Retries counts retransmissions (guard timeouts plus re-kicks).
	Retries int64
	// DupDrops counts packs discarded by the receiver's dedup window.
	DupDrops int64
	// Acks counts acks that retired a pending emit.
	Acks int64
	// Rekicks counts straggler re-kick rounds triggered by the master.
	Rekicks int64
}

// Add accumulates o into t.
func (t *ResilienceTotals) Add(o ResilienceTotals) {
	t.Emits += o.Emits
	t.Retries += o.Retries
	t.DupDrops += o.DupDrops
	t.Acks += o.Acks
	t.Rekicks += o.Rekicks
}

// pendingEmit is one unacked pack held by the sending lane, stored
// resend-ready (ops already carry the trailing emit ID).
type pendingEmit struct {
	target   arch.NetworkID
	sentAt   arch.Cycles
	attempts int
	nops     int
	ops      [sim.MaxOperands]uint64
}

// srcWindow is the reducer-side dedup state for one sender: every ID at
// or below w has been applied; pend holds applied IDs above the
// watermark until the gap closes.
type srcWindow struct {
	w    uint64
	pend map[uint64]struct{}
}

// resilState is the per-lane, per-invocation resilience bookkeeping,
// kept in its own lane slot.
type resilState struct {
	// sender side
	nextID  uint64
	out     map[uint64]*pendingEmit
	guardOn bool
	// reducer side
	seen   map[arch.NetworkID]*srcWindow
	totals ResilienceTotals
}

// rst returns the lane's resilience state for this invocation.
func (v *Invocation) rst(c *udweave.Ctx) *resilState {
	rs := v.rslot.Get(c)
	if rs.out == nil {
		rs.out = make(map[uint64]*pendingEmit)
	}
	return rs
}

// admit records (src, id) and reports whether it is the first delivery.
func (rs *resilState) admit(src arch.NetworkID, id uint64) bool {
	if rs.seen == nil {
		rs.seen = make(map[arch.NetworkID]*srcWindow)
	}
	sw := rs.seen[src]
	if sw == nil {
		sw = &srcWindow{pend: make(map[uint64]struct{})}
		rs.seen[src] = sw
	}
	if id <= sw.w {
		return false
	}
	if _, dup := sw.pend[id]; dup {
		return false
	}
	sw.pend[id] = struct{}{}
	for {
		if _, ok := sw.pend[sw.w+1]; !ok {
			break
		}
		delete(sw.pend, sw.w+1)
		sw.w++
	}
	return true
}

// sendResilient transmits one pack on the unreliable class, registers it
// as pending, and ensures the guard thread is running. The emit ID is
// appended to buf as the trailing operand.
func (v *Invocation) sendResilient(c *udweave.Ctx, target arch.NetworkID, buf []uint64) {
	rs := v.rst(c)
	rs.nextID++
	id := rs.nextID
	pe := &pendingEmit{target: target, sentAt: c.Now(), attempts: 1, nops: len(buf) + 1}
	copy(pe.ops[:], buf)
	pe.ops[len(buf)] = id
	rs.out[id] = pe
	rs.totals.Emits++
	c.ScratchAccess(2)
	c.SendEventU(udweave.EvwNew(target, v.lRedDeliver), udweave.IGNRCONT, pe.ops[:pe.nops]...)
	if !rs.guardOn {
		rs.guardOn = true
		c.Cycles(2)
		c.SendEvent(udweave.EvwNew(c.NetworkID(), v.lGuard), udweave.IGNRCONT)
	}
}

// resend retransmits one pending emit.
func (v *Invocation) resend(c *udweave.Ctx, rs *resilState, pe *pendingEmit) {
	pe.attempts++
	pe.sentAt = c.Now()
	rs.totals.Retries++
	c.Cycles(3)
	if c.Tracing() {
		c.Mark(v.nameRetry)
	}
	v.countMsg(c, pe.target)
	c.SendEventU(udweave.EvwNew(pe.target, v.lRedDeliver), udweave.IGNRCONT, pe.ops[:pe.nops]...)
}

// sortedPending returns the lane's outstanding emit IDs in ascending
// order; map iteration order must never leak into simulated behavior.
func sortedPending(rs *resilState) []uint64 {
	ids := make([]uint64, 0, len(rs.out))
	for id := range rs.out {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// guard is the sender-side watchdog thread: it wakes every base ack
// deadline (via the udweave timeout continuation), retransmits emits whose
// backoff deadline passed, and terminates once everything is acked.
func (v *Invocation) guard(c *udweave.Ctx) {
	rs := v.rst(c)
	if len(rs.out) == 0 {
		rs.guardOn = false
		c.Cycles(2)
		c.YieldTerminate()
		return
	}
	now, timeout := c.Now(), retryHops*v.p.M.LatCrossNode
	c.Cycles(4)
	for _, id := range sortedPending(rs) {
		pe := rs.out[id]
		if now-pe.sentAt >= timeout<<uint(min(pe.attempts-1, backoffCap)) {
			v.resend(c, rs, pe)
		}
	}
	c.ArmTimeout(timeout, v.lGuard)
}

// rekick is the straggler-recovery broadcast, level-tagged like the probe:
// a tree role passes it down, and a lane retransmits every outstanding
// emit immediately, ignoring backoff.
func (v *Invocation) rekick(c *udweave.Ctx) {
	if level := c.Op(0); level > levelLane {
		v.fanOut(c, level, 4, v.lRekick, level-1)
		c.YieldTerminate()
		return
	}
	rs := v.rst(c)
	c.Cycles(3)
	for _, id := range sortedPending(rs) {
		v.resend(c, rs, rs.out[id])
	}
	c.YieldTerminate()
}

// ack retires a pending emit on the sending lane. Late duplicates of an
// ack (or acks for already-retired retransmissions) are ignored.
func (v *Invocation) ack(c *udweave.Ctx) {
	rs := v.rst(c)
	id := c.Op(0)
	c.ScratchAccess(1)
	if _, ok := rs.out[id]; ok {
		delete(rs.out, id)
		rs.totals.Acks++
	}
	c.YieldTerminate()
}

// redDeliver is the receiving side of the protocol: ack the sender (every
// time — the retransmission may mean the previous ack was lost), dedup by
// (sender, emit ID), and hand first deliveries, emit ID stripped, to
// deliver. The unit of ack and dedup is the pack; deliver runs or forwards
// each of its tuples exactly once on the reliable class, so per-tuple
// exactly-once delivery follows from per-pack exactly-once admission.
func (v *Invocation) redDeliver(c *udweave.Ctx) {
	rs := v.rst(c)
	n := c.NOps()
	id := c.Op(n - 1)
	src := c.Src()
	c.Cycles(4)
	c.SendEventU(udweave.EvwNew(src, v.lAck), udweave.IGNRCONT, id)
	if !rs.admit(src, id) {
		rs.totals.DupDrops++
		if c.Tracing() {
			c.Mark(v.nameDupDrop)
		}
		c.YieldTerminate()
		return
	}
	c.TruncateOps(n - 1)
	v.deliver(c)
}

// ResilienceTotals sums the protocol counters over the invocation's lane
// set and its translates after a run. peek resolves a lane to its actor (pass
// updown.Machine's lane peek or sim.Engine.PeekActor); lanes the program
// never touched contribute nothing. Returns the zero value for
// non-resilient invocations.
func (v *Invocation) ResilienceTotals(peek func(arch.NetworkID) any) ResilienceTotals {
	var t ResilienceTotals
	if v.res != nil {
		eachLane(v, peek, v.rslot, func(_ arch.NetworkID, rs *resilState) { t.Add(rs.totals) })
	}
	return t
}

// Outstanding reports the number of unacked emits still pending on the
// invocation's lanes and their translates (testing and leak detection: a drained invocation
// leaves zero).
func (v *Invocation) Outstanding(peek func(arch.NetworkID) any) int {
	n := 0
	if v.res != nil {
		eachLane(v, peek, v.rslot, func(_ arch.NetworkID, rs *resilState) { n += len(rs.out) })
	}
	return n
}
