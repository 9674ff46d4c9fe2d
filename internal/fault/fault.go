// Package fault is a deterministic, opt-in fault-injection layer for the
// simulator. A Plan describes what goes wrong — messages dropped,
// duplicated or delayed by kind/node/time-window, lanes stalled, node
// bandwidth degraded, whole nodes fail-stopped — and Compile turns it
// into an Injector the engine consults through nil-checked hooks.
//
// Every per-message decision is a pure function of the plan seed and the
// message identity (Src, Seq) via the internal/prng mixer: no mutable
// PRNG state is shared between shards, so a run with a given seed+plan is
// bit-identical at any shard count, and a retransmission (which carries a
// fresh Seq) draws an independent verdict — lossy links lose each copy
// independently, exactly like a real network.
//
// The layer models the fabric between nodes, not the application: host
// Post traffic is never faulted, and by default only arch.KindEventU
// ("unreliable event") messages are eligible, so protocol traffic that
// has no retry story (DRAM requests, control, plain events) stays
// reliable unless a rule opts it in explicitly.
package fault

import (
	"fmt"
	"math"
	"sort"

	"updown/internal/arch"
	"updown/internal/prng"
)

// AnyNode in a MsgRule's SrcNode/DstNode matches every node.
const AnyNode = -1

// MsgRule subjects matching messages to probabilistic drop, duplication
// and delay. A message matches when its kind bit is set in Kinds, its
// source and destination nodes match (AnyNode is a wildcard) and its send
// time falls in [From, Until). The first matching rule decides; at most
// one fault is applied per message.
type MsgRule struct {
	// Kinds is a bitmask of 1<<kind. Zero selects the default eligible
	// class, 1<<arch.KindEventU.
	Kinds uint16
	// SrcNode and DstNode filter by endpoint node; AnyNode matches all.
	SrcNode int
	DstNode int
	// From and Until bound the send-time window [From, Until); Until zero
	// means unbounded.
	From  arch.Cycles
	Until arch.Cycles
	// DropProb, DupProb and DelayProb partition the unit interval:
	// a single uniform draw picks drop, duplicate, delay or clean
	// delivery. Their sum must not exceed 1.
	DropProb  float64
	DupProb   float64
	DelayProb float64
	// DelayCycles is the maximum extra network delay for a delayed
	// message (the draw is uniform in [1, DelayCycles]). Zero defaults to
	// the machine's MinCrossNodeLatency at Compile time.
	DelayCycles arch.Cycles
}

// Stall freezes one lane: no message executes on it during [At, At+For).
type Stall struct {
	Lane arch.NetworkID
	At   arch.Cycles
	For  arch.Cycles
}

// Degrade multiplies a node's injection-port and/or DRAM service time by
// an integer factor from cycle From onward. Factors below one mean "no
// change".
type Degrade struct {
	Node       int
	InjFactor  int64
	DRAMFactor int64
	From       arch.Cycles
}

// FailStop kills a node: from cycle At onward no actor on the node
// executes, and every message delivered to it is dead-lettered.
type FailStop struct {
	Node int
	At   arch.Cycles
}

// Plan is a complete fault scenario. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision; runs with equal seed and
	// plan are bit-identical at any shard count.
	Seed      uint64
	Rules     []MsgRule
	Stalls    []Stall
	Degrades  []Degrade
	FailStops []FailStop
}

// Counts aggregates injected faults over a run.
type Counts struct {
	// Dropped, Dupped and Delayed count MsgRule verdicts at the send
	// side.
	Dropped int64
	Dupped  int64
	Delayed int64
	// DeadLetters counts messages discarded at delivery because the
	// destination node had fail-stopped.
	DeadLetters int64
	// Failovers counts DRAM messages that would have been dead letters
	// but were rerouted to a surviving replica (or converted to hinted
	// handoff) by the replicated-placement layer.
	Failovers int64
	// Stalled counts lane stalls applied.
	Stalled int64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Dropped += o.Dropped
	c.Dupped += o.Dupped
	c.Delayed += o.Delayed
	c.DeadLetters += o.DeadLetters
	c.Failovers += o.Failovers
	c.Stalled += o.Stalled
}

// Zero reports whether no fault was injected.
func (c Counts) Zero() bool { return c == Counts{} }

// String renders the counts as the "faults:" line's key=value list.
func (c Counts) String() string {
	return fmt.Sprintf("dropped=%d dupped=%d delayed=%d dead-letters=%d failovers=%d stalls=%d",
		c.Dropped, c.Dupped, c.Delayed, c.DeadLetters, c.Failovers, c.Stalled)
}

// Verdict is the outcome of a per-message fault draw.
type Verdict uint8

const (
	// VerdictDeliver delivers the message normally.
	VerdictDeliver Verdict = iota
	// VerdictDrop discards the message after injection.
	VerdictDrop
	// VerdictDup delivers the message plus one duplicate.
	VerdictDup
	// VerdictDelay delivers the message with extra network latency.
	VerdictDelay
)

// rule is a compiled MsgRule: wildcards resolved, probabilities
// pre-partitioned into cumulative thresholds on the 53-bit draw.
type rule struct {
	kinds      uint16
	srcNode    int32 // -1 = any
	dstNode    int32
	from       arch.Cycles
	until      arch.Cycles // math.MaxInt64 = unbounded
	dropThresh float64
	dupThresh  float64
	delThresh  float64
	delayMax   uint64 // ≥ 1
	salt       uint64
}

// stallRange is a compiled Stall.
type stallRange struct{ at, end arch.Cycles }

// Injector is a compiled Plan; the engine holds one and consults it on
// the send and delivery paths. All methods are safe for concurrent use:
// the Injector is immutable after Compile.
type Injector struct {
	seed  uint64
	rules []rule
	// deadAt maps node → fail-stop cycle (MaxInt64 = alive forever);
	// nil when the plan has no fail-stops.
	deadAt []arch.Cycles
	// stalls maps lane → stall ranges sorted by start; nil when none.
	stalls map[arch.NetworkID][]stallRange
	// injFactor/dramFactor/degradeFrom map node → bandwidth degradation;
	// nil when none.
	injFactor   []int64
	dramFactor  []int64
	degradeFrom []arch.Cycles
}

// Compile validates p against machine m and returns the immutable
// Injector. A nil plan compiles to a nil injector.
func Compile(p *Plan, m arch.Machine) (*Injector, error) {
	if p == nil {
		return nil, nil
	}
	in := &Injector{seed: prng.Mix64(p.Seed ^ 0xFA01755CF0E57ACE)}
	defaultDelay := uint64(m.MinCrossNodeLatency())
	if defaultDelay < 1 {
		defaultDelay = 1
	}
	for i, r := range p.Rules {
		// Written so that NaN, which fails every comparison, is rejected.
		if !(r.DropProb >= 0 && r.DupProb >= 0 && r.DelayProb >= 0) {
			return nil, fmt.Errorf("fault: rule %d: NaN or negative probability", i)
		}
		sum := r.DropProb + r.DupProb + r.DelayProb
		if !(sum <= 1) {
			return nil, fmt.Errorf("fault: rule %d: probabilities sum to %g > 1", i, sum)
		}
		if err := checkNode(m, "rule", i, r.SrcNode); err != nil {
			return nil, err
		}
		if err := checkNode(m, "rule", i, r.DstNode); err != nil {
			return nil, err
		}
		if r.Until != 0 && r.Until <= r.From {
			return nil, fmt.Errorf("fault: rule %d: empty window [%d, %d)", i, r.From, r.Until)
		}
		cr := rule{
			kinds:      r.Kinds,
			srcNode:    int32(r.SrcNode),
			dstNode:    int32(r.DstNode),
			from:       r.From,
			until:      r.Until,
			dropThresh: r.DropProb,
			dupThresh:  r.DropProb + r.DupProb,
			delThresh:  sum,
			delayMax:   uint64(r.DelayCycles),
			salt:       prng.Mix64(uint64(i) ^ 0x5BF0A8B1F8316933),
		}
		if cr.kinds == 0 {
			cr.kinds = 1 << arch.KindEventU
		}
		if cr.until == 0 {
			cr.until = math.MaxInt64
		}
		if cr.delayMax == 0 {
			cr.delayMax = defaultDelay
		}
		in.rules = append(in.rules, cr)
	}
	for i, f := range p.FailStops {
		if f.Node < 0 || f.Node >= m.Nodes {
			return nil, fmt.Errorf("fault: failstop %d: node %d out of range [0,%d)", i, f.Node, m.Nodes)
		}
		if in.deadAt == nil {
			in.deadAt = make([]arch.Cycles, m.Nodes)
			for n := range in.deadAt {
				in.deadAt[n] = math.MaxInt64
			}
		}
		if f.At < in.deadAt[f.Node] {
			in.deadAt[f.Node] = f.At
		}
	}
	for i, s := range p.Stalls {
		if !m.IsLane(s.Lane) {
			return nil, fmt.Errorf("fault: stall %d: %d is not a lane", i, s.Lane)
		}
		if s.For <= 0 {
			return nil, fmt.Errorf("fault: stall %d: non-positive duration %d", i, s.For)
		}
		if in.stalls == nil {
			in.stalls = make(map[arch.NetworkID][]stallRange)
		}
		in.stalls[s.Lane] = append(in.stalls[s.Lane], stallRange{at: s.At, end: s.At + s.For})
	}
	for lane := range in.stalls {
		rs := in.stalls[lane]
		sort.Slice(rs, func(a, b int) bool { return rs[a].at < rs[b].at })
	}
	for i, d := range p.Degrades {
		if d.Node < 0 || d.Node >= m.Nodes {
			return nil, fmt.Errorf("fault: degrade %d: node %d out of range [0,%d)", i, d.Node, m.Nodes)
		}
		if d.InjFactor < 1 && d.DRAMFactor < 1 {
			continue
		}
		if in.injFactor == nil {
			in.injFactor = make([]int64, m.Nodes)
			in.dramFactor = make([]int64, m.Nodes)
			in.degradeFrom = make([]arch.Cycles, m.Nodes)
			for n := 0; n < m.Nodes; n++ {
				in.injFactor[n], in.dramFactor[n] = 1, 1
			}
		}
		if d.InjFactor > in.injFactor[d.Node] {
			in.injFactor[d.Node] = d.InjFactor
		}
		if d.DRAMFactor > in.dramFactor[d.Node] {
			in.dramFactor[d.Node] = d.DRAMFactor
		}
		in.degradeFrom[d.Node] = d.From
	}
	return in, nil
}

func checkNode(m arch.Machine, what string, i, n int) error {
	if n != AnyNode && (n < 0 || n >= m.Nodes) {
		return fmt.Errorf("fault: %s %d: node %d out of range [0,%d)", what, i, n, m.Nodes)
	}
	return nil
}

// Message draws the fault verdict for one message. The draw depends only
// on the injector seed, the message identity (src, seq) and the first
// matching rule, never on host scheduling. extra is the additional
// network delay for VerdictDelay (zero otherwise).
func (in *Injector) Message(kind uint8, src arch.NetworkID, seq uint64, srcNode, dstNode int32, at arch.Cycles) (v Verdict, extra arch.Cycles) {
	if len(in.rules) == 0 {
		return VerdictDeliver, 0
	}
	kbit := uint16(1) << (kind & 15)
	for i := range in.rules {
		r := &in.rules[i]
		if r.kinds&kbit == 0 ||
			(r.srcNode != AnyNode && r.srcNode != srcNode) ||
			(r.dstNode != AnyNode && r.dstNode != dstNode) ||
			at < r.from || at >= r.until {
			continue
		}
		h := prng.Mix64(in.seed ^ r.salt ^ prng.Mix64(uint64(src)*0x9E3779B97F4A7C15^seq))
		u := float64(h>>11) / (1 << 53)
		switch {
		case u < r.dropThresh:
			return VerdictDrop, 0
		case u < r.dupThresh:
			return VerdictDup, 0
		case u < r.delThresh:
			extra = arch.Cycles(1 + prng.Mix64(h)%r.delayMax)
			return VerdictDelay, extra
		}
		// First matching rule decides; a clean draw is a clean delivery.
		return VerdictDeliver, 0
	}
	return VerdictDeliver, 0
}

// NodeDead reports whether node has fail-stopped at or before cycle t.
func (in *Injector) NodeDead(node int32, t arch.Cycles) bool {
	return in.deadAt != nil && t >= in.deadAt[node]
}

// HasFailStops reports whether the plan fail-stops any node, so the
// engine can skip the per-delivery check entirely otherwise.
func (in *Injector) HasFailStops() bool { return in.deadAt != nil }

// StallEnd returns the end of a stall covering lane at cycle t, or zero
// when the lane is not stalled at t.
func (in *Injector) StallEnd(lane arch.NetworkID, t arch.Cycles) arch.Cycles {
	if in.stalls == nil {
		return 0
	}
	for _, r := range in.stalls[lane] {
		if t < r.at {
			return 0
		}
		if t < r.end {
			return r.end
		}
	}
	return 0
}

// HasStalls reports whether the plan stalls any lane.
func (in *Injector) HasStalls() bool { return in.stalls != nil }

// InjFactor returns the injection-port service-time multiplier for node
// at cycle t (≥ 1).
func (in *Injector) InjFactor(node int32, t arch.Cycles) int64 {
	if in.injFactor == nil || t < in.degradeFrom[node] {
		return 1
	}
	return in.injFactor[node]
}

// DRAMFactor returns the DRAM service-time multiplier for node at cycle
// t (≥ 1).
func (in *Injector) DRAMFactor(node int32, t arch.Cycles) int64 {
	if in.dramFactor == nil || t < in.degradeFrom[node] {
		return 1
	}
	return in.dramFactor[node]
}
