// Package dram models each node's HBM memory system: a controller actor
// that serves split-phase read/write/fetch-add requests with a fixed access
// latency and a per-node bandwidth budget (paper Section 3: 9.4 TB/s per
// node). Requests arriving faster than the bandwidth allows queue behind a
// busy-until horizon, which is what makes the DRAMmalloc striping sweep
// (Figure 12) show its bandwidth knee.
//
// Under replicated placement (gasmem regions with Rep > 1) each leg of a
// write fan-out arrives at its own replica's controller and is applied to
// that node's stripe, so bandwidth and byte accounting charge each physical
// copy on the node that stores it. Hinted-handoff legs — writes whose
// replica node fail-stopped — are queued in a per-controller log and
// drained into the recovering or spare node at backfill.
package dram

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// Hint is one queued hinted-handoff record: a write (or fetch-add) that
// could not be delivered to the fail-stopped Intended node. Ops holds the
// data words for a write or the single delta for a fetch-add.
type Hint struct {
	Intended int32
	Kind     uint8
	NOps     uint8
	VA       uint64
	Ops      [sim.MaxOperands - 1]uint64
}

// Controller serves global-memory requests for one node. Requests are
// applied to the backing store in deterministic arrival order, which
// provides a single serialization point per node: the simulated memory is
// sequentially consistent per location.
type Controller struct {
	node int
	m    arch.Machine
	gas  *gasmem.GAS
	// busy64 is the bandwidth occupancy horizon in 1/64-cycle units;
	// at 4700 bytes/cycle a 64-byte access occupies well under a cycle,
	// so sub-cycle resolution is needed to model contention faithfully.
	busy64 int64
	// Bytes served (per-node traffic statistics).
	Bytes int64
	// FallbackReads counts read requests this controller served for
	// addresses whose primary is another (fail-stopped) node — the
	// observable face of quorum-of-one read fall-over.
	FallbackReads int64
	// hints is the hinted-handoff log, in deterministic arrival order.
	hints []Hint
}

// Install creates one controller per node and registers them with the
// engine. It returns the controllers for inspection.
func Install(e *sim.Engine, gas *gasmem.GAS) []*Controller {
	ctrls := make([]*Controller, e.M.Nodes)
	for n := 0; n < e.M.Nodes; n++ {
		c := &Controller{node: n, m: e.M, gas: gas}
		ctrls[n] = c
		e.SetActor(e.M.MemCtrlID(n), c)
	}
	return ctrls
}

// Hints returns the number of queued hinted-handoff records.
func (c *Controller) Hints() int { return len(c.hints) }

// DrainHints removes every queued hint intended for the given node and
// feeds them, in arrival order, to apply. Backfill calls it across all
// controllers in node order, so the global drain order is deterministic.
func (c *Controller) DrainHints(intended int, apply func(h Hint)) int {
	kept := c.hints[:0]
	drained := 0
	for _, h := range c.hints {
		if int(h.Intended) == intended {
			apply(h)
			drained++
		} else {
			kept = append(kept, h)
		}
	}
	c.hints = kept
	return drained
}

// OnMessage implements sim.Actor.
func (c *Controller) OnMessage(env *sim.Env, m *sim.Message) {
	switch m.Kind {
	case arch.KindDRAMRead:
		va := m.Ops[0]
		n := int(m.Ops[1])
		if n <= 0 || n > sim.MaxOperands {
			panic(fmt.Sprintf("dram: read of %d words", n))
		}
		if c.gas.Replicated() && c.gas.ReadFallback(c.node, va) {
			c.FallbackReads++
		}
		var words [sim.MaxOperands]uint64
		for i := 0; i < n; i++ {
			words[i] = c.gas.CtrlReadU64(c.node, va+uint64(i)*gasmem.WordBytes)
		}
		delay := c.service(env, int64(n)*gasmem.WordBytes)
		if m.Cont != udweave.IGNRCONT {
			c.respond(env, delay, m.Cont, words[:n])
		}
	case arch.KindDRAMWrite:
		// Ops[0] is the address, Ops[1:] the data words. A message with no
		// operands at all is malformed (it has no address); validate like
		// KindDRAMRead does, or the unchecked n = -1 would flow negative
		// byte counts into c.Bytes and Stats.DRAMBytes. n == 0 (address
		// only) is a legal ack-only write: it stores nothing and moves
		// zero bytes, but still serializes through the controller and
		// acknowledges its continuation.
		if m.NOps == 0 {
			panic("dram: write message without an address operand")
		}
		va := m.Ops[0]
		n := int(m.NOps) - 1
		for i := 0; i < n; i++ {
			c.gas.CtrlWriteU64(c.node, va+uint64(i)*gasmem.WordBytes, m.Ops[1+i])
		}
		delay := c.service(env, int64(n)*gasmem.WordBytes)
		if m.Cont != udweave.IGNRCONT {
			c.respond(env, delay, m.Cont, nil)
		}
	case arch.KindDRAMFetchAdd:
		old := c.gas.CtrlAddU64(c.node, m.Ops[0], m.Ops[1])
		delay := c.service(env, 2*gasmem.WordBytes) // read-modify-write
		if m.Cont != udweave.IGNRCONT {
			c.respond(env, delay, m.Cont, []uint64{old})
		}
	case arch.KindDRAMWriteHint, arch.KindDRAMFetchAddHint:
		// A write leg whose replica node fail-stopped: queue it for
		// backfill instead of applying. The record still serializes
		// through this controller's bandwidth (the bytes really arrive
		// here) and acknowledges its continuation so a coordinator-less
		// fan-out never strands the issuing thread. Fetch-add hints
		// acknowledge with 0 — the dead copy's prior value is
		// unrecoverable by definition; they only coordinate when every
		// live replica was lost mid-flight.
		if m.NOps == 0 {
			panic("dram: hint message without a header operand")
		}
		va, intended := gasmem.SplitHintOp(m.Ops[0])
		n := int(m.NOps) - 1
		h := Hint{Intended: int32(intended), Kind: m.Kind, NOps: uint8(n), VA: va}
		copy(h.Ops[:], m.Ops[1:1+n])
		c.hints = append(c.hints, h)
		bytes := int64(n) * gasmem.WordBytes
		if m.Kind != arch.KindDRAMWriteHint {
			bytes = 2 * gasmem.WordBytes
		}
		delay := c.service(env, bytes)
		if m.Cont != udweave.IGNRCONT {
			if m.Kind == arch.KindDRAMWriteHint {
				c.respond(env, delay, m.Cont, nil)
			} else {
				c.respond(env, delay, m.Cont, []uint64{0})
			}
		}
	default:
		panic(fmt.Sprintf("dram: node %d controller received message kind %d", c.node, m.Kind))
	}
}

// service accounts bytes against the node's bandwidth and returns the
// total delay (queueing + transfer + access latency) before the response
// may leave the controller.
func (c *Controller) service(env *sim.Env, bytes int64) arch.Cycles {
	now64 := int64(env.Now()) * 64
	if c.busy64 < now64 {
		c.busy64 = now64
	}
	xfer := bytes * 64 / int64(c.m.DRAMBytesPerCycle)
	if xfer < 1 {
		xfer = 1
	}
	// Fault injection can degrade a node's effective DRAM bandwidth by an
	// integer factor (1 when no plan is installed).
	xfer *= env.DRAMSlowdown()
	c.busy64 += xfer
	c.Bytes += bytes
	env.AddDRAMTraffic(bytes, c.busy64)
	done := arch.Cycles((c.busy64 + 63) / 64)
	return done - env.Now() + c.m.DRAMLatency
}

// respond delivers words to a continuation event word after delay cycles.
func (c *Controller) respond(env *sim.Env, delay arch.Cycles, cont uint64, words []uint64) {
	dst := udweave.EvwNetworkID(cont)
	env.SendAfter(delay, dst, arch.KindEvent, cont, udweave.IGNRCONT, words...)
}
