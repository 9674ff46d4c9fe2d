// Causal tracing: the "why did the run take this long" half of the
// observability layer. Where the Recorder (metrics.go) aggregates per-node
// counters, the TraceRecorder captures the event DAG itself — every message
// becomes an edge from the event that sent it to the event it triggers,
// carrying the exact decomposition of its delivery latency — plus named
// spans from the udweave/kvmsr runtime and application phase annotations.
//
// From the edge/exec records we derive:
//
//   - the critical path: the longest latency-weighted causal chain from a
//     host post to a final event, under a zero-queueing model (compute
//     before each send + pre-network service + topological network
//     latency). Its length divided by the makespan is the paper's
//     latency-hiding headroom: near 1 the run is dependency/latency-bound
//     and more parallelism cannot help; near 0 it is throughput-bound.
//   - the observed tail chain: the causal chain ending at the
//     latest-finishing event, fully decomposed (compute, DRAM service,
//     injection queueing, network, destination busy-wait) so the
//     components sum exactly to the chain's elapsed time.
//   - log-bucketed latency histograms per message kind and component, and
//   - the node-to-node traffic matrix.
//
// Determinism: the engine's per-node execution order is shard-count
// invariant, so the *set* of records and each per-lane record stream are
// too; only the grouping into per-shard views differs. Every analysis and
// export below therefore merges the views through a canonical sort —
// edges/execs by (Start, Src, Seq), spans by (Pid, Tid, Begin) with
// stable insertion order — making all outputs byte-identical at any shard
// count (see the determinism tests).
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"updown/internal/arch"
)

// ProgramPid is the synthetic trace "process" carrying application phase
// spans (PageRank iteration k, BFS round k) — distinct from any node pid.
const ProgramPid = 1 << 20

// TraceOptions configures a TraceRecorder. The zero value enables full
// tracing; a recorder that records nothing would be a misconfiguration.
type TraceOptions struct {
	// Spans enables named span recording: udweave event executions and
	// thread lifetimes, KVMSR map windows / emits / invocation phases, and
	// application phase annotations.
	Spans bool
	// Causal enables per-message edge and per-event execution records —
	// the inputs of CriticalPath, Flows and Latencies.
	Causal bool
}

// EdgeRec describes one message as a causal edge: the event identified by
// (ParentSrc, ParentSeq) sent the message (Src, Seq) while executing, and
// the message's delivery decomposes exactly as
//
//	Deliver = SendAt + Service + Queue + Net.
type EdgeRec struct {
	// Src and Seq identify the message: Src is the sending actor and Seq
	// its per-sender sequence number (the engine's total-order key).
	Src arch.NetworkID
	Seq uint64
	// ParentSrc and ParentSeq identify the message whose execution sent
	// this one; ParentSrc is -1 for host posts (chain roots).
	ParentSrc arch.NetworkID
	ParentSeq uint64
	// Dst is the destination actor.
	Dst arch.NetworkID
	// SrcNode and DstNode are the endpoints' nodes (traffic matrix).
	SrcNode, DstNode int32
	// Kind is the message kind (arch.Kind*).
	Kind uint8
	// SendAt is the cycle the send issued on the sender.
	SendAt arch.Cycles
	// Service is the pre-network service delay (DRAM access time modeled
	// via SendAfter; zero for plain sends).
	Service arch.Cycles
	// Queue is the injection-port serialization delay (cross-node only).
	Queue arch.Cycles
	// Net is the topological network latency.
	Net arch.Cycles
	// Deliver is the arrival cycle at the destination.
	Deliver arch.Cycles
}

// ExecRec describes one executed event: the message (Src, Seq) began
// executing at Start (its delivery time plus any wait for a busy actor)
// and charged Charged cycles.
type ExecRec struct {
	Src     arch.NetworkID
	Seq     uint64
	Kind    uint8
	Start   arch.Cycles
	Charged arch.Cycles
}

// Span record types.
const (
	// SpanComplete is a closed duration span on one track (B/E pair).
	SpanComplete uint8 = iota
	// SpanInstant is a point event (i).
	SpanInstant
	// SpanAsyncBegin/SpanAsyncEnd bracket overlappable spans (b/e),
	// paired by (Pid, ID, Name).
	SpanAsyncBegin
	SpanAsyncEnd
)

// SpanRec is one recorded span event.
type SpanRec struct {
	// Pid and Tid select the trace track: node and lane-in-node+1, or
	// ProgramPid/1 for application phases.
	Pid, Tid int32
	// Typ is one of the Span* constants.
	Typ uint8
	// ID pairs async begin/end records.
	ID uint64
	// Name labels the span.
	Name string
	// Begin is the span start (or the timestamp, for instants and async
	// ends); End is the close time of complete spans.
	Begin, End arch.Cycles
}

// TraceRecorder accumulates causal records for one engine. Install it via
// sim.Options.Trace (or updown.Config.Trace); like the metrics Recorder it
// accumulates across consecutive Run calls.
type TraceRecorder struct {
	spans, causal bool
	views         []*TraceView
	posts         []EdgeRec
	finalTime     arch.Cycles
}

// NewTrace builds a trace recorder. A zero TraceOptions enables both spans
// and causal records.
func NewTrace(o TraceOptions) *TraceRecorder {
	if !o.Spans && !o.Causal {
		o.Spans, o.Causal = true, true
	}
	return &TraceRecorder{spans: o.Spans, causal: o.Causal}
}

// SpansOn and CausalOn report the enabled record streams.
func (t *TraceRecorder) SpansOn() bool  { return t.spans }
func (t *TraceRecorder) CausalOn() bool { return t.causal }

// Shard returns the view engine shard i writes through; views persist
// across Runs. Like Recorder.Shard, first-time creation is not concurrent —
// the engine materializes views before starting workers.
func (t *TraceRecorder) Shard(i int) *TraceView {
	for len(t.views) <= i {
		t.views = append(t.views, &TraceView{t: t})
	}
	return t.views[i]
}

// ObserveFinalTime records the run's completion time (the engine calls it
// after every Run); it is the makespan denominator of CritPct.
func (t *TraceRecorder) ObserveFinalTime(c arch.Cycles) {
	if c > t.finalTime {
		t.finalTime = c
	}
}

// PostEdge records a host-posted root message. The engine calls it from
// Post, which is single-threaded by contract.
func (t *TraceRecorder) PostEdge(e EdgeRec) {
	if t.causal {
		t.posts = append(t.posts, e)
	}
}

// TraceView is the per-engine-shard write interface. Each shard records
// only events executed by actors it owns, so views need no locks; the
// analysis functions merge them canonically.
type TraceView struct {
	t     *TraceRecorder
	edges []EdgeRec
	execs []ExecRec
	spans []SpanRec
	// One open application phase per view: phases are emitted by a single
	// driver lane, which lives on exactly one shard.
	phaseOpen bool
	phaseName string
	phaseAt   arch.Cycles
}

// SpansOn and CausalOn report the recorder's enabled streams (span calls
// from the runtime guard on SpansOn to skip name construction).
func (v *TraceView) SpansOn() bool  { return v.t.spans }
func (v *TraceView) CausalOn() bool { return v.t.causal }

// Edge records one sent message (engine send path).
func (v *TraceView) Edge(e EdgeRec) {
	if v.t.causal {
		v.edges = append(v.edges, e)
	}
}

// Exec records one executed event (engine execution path).
func (v *TraceView) Exec(x ExecRec) {
	if v.t.causal {
		v.execs = append(v.execs, x)
	}
}

// Span records a closed duration span on a track.
func (v *TraceView) Span(pid, tid int32, name string, begin, end arch.Cycles) {
	if !v.t.spans {
		return
	}
	if end < begin {
		end = begin
	}
	v.spans = append(v.spans, SpanRec{Pid: pid, Tid: tid, Typ: SpanComplete, Name: name, Begin: begin, End: end})
}

// Instant records a point event.
func (v *TraceView) Instant(pid, tid int32, name string, at arch.Cycles) {
	if !v.t.spans {
		return
	}
	v.spans = append(v.spans, SpanRec{Pid: pid, Tid: tid, Typ: SpanInstant, Name: name, Begin: at})
}

// AsyncBegin opens an overlappable span paired by (Pid, ID, Name).
func (v *TraceView) AsyncBegin(pid, tid int32, id uint64, name string, at arch.Cycles) {
	if !v.t.spans {
		return
	}
	v.spans = append(v.spans, SpanRec{Pid: pid, Tid: tid, Typ: SpanAsyncBegin, ID: id, Name: name, Begin: at})
}

// AsyncEnd closes an async span.
func (v *TraceView) AsyncEnd(pid, tid int32, id uint64, name string, at arch.Cycles) {
	if !v.t.spans {
		return
	}
	v.spans = append(v.spans, SpanRec{Pid: pid, Tid: tid, Typ: SpanAsyncEnd, ID: id, Name: name, Begin: at})
}

// Phase opens an application phase on the program track, closing the
// previously open one at the same timestamp. Phases render as back-to-back
// spans labeling what the program was doing (PageRank iteration k map,
// BFS round k).
func (v *TraceView) Phase(name string, at arch.Cycles) {
	if !v.t.spans {
		return
	}
	v.closePhase(at)
	v.phaseOpen, v.phaseName, v.phaseAt = true, name, at
}

// PhaseEnd closes the open phase without opening another. A phase still
// open at export time is closed at the run's final time.
func (v *TraceView) PhaseEnd(at arch.Cycles) {
	if !v.t.spans {
		return
	}
	v.closePhase(at)
}

func (v *TraceView) closePhase(at arch.Cycles) {
	if !v.phaseOpen {
		return
	}
	v.Span(ProgramPid, 1, v.phaseName, v.phaseAt, at)
	v.phaseOpen = false
}

// sortedSpans merges the views' span streams into canonical order. Open
// phases are closed (non-destructively) at the run's final time. All spans
// of one (Pid, Tid) track are recorded by one view in deterministic order,
// so a stable sort by (Pid, Tid, Begin) is shard-count invariant.
func (t *TraceRecorder) sortedSpans() []SpanRec {
	var out []SpanRec
	for _, v := range t.views {
		out = append(out, v.spans...)
		if v.phaseOpen {
			end := t.finalTime
			if end < v.phaseAt {
				end = v.phaseAt
			}
			out = append(out, SpanRec{Pid: ProgramPid, Tid: 1, Typ: SpanComplete,
				Name: v.phaseName, Begin: v.phaseAt, End: end})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Begin < b.Begin
	})
	return out
}

// ---- critical path ----------------------------------------------------

// uid identifies a message (and the event it triggers).
type uid struct {
	src arch.NetworkID
	seq uint64
}

// PathComponents decomposes a causal chain's elapsed time.
type PathComponents struct {
	// Compute is cycles the chain spent executing: what each event charged
	// before issuing the next hop's send, plus the tail event's full work.
	Compute arch.Cycles
	// Service is pre-network service time (DRAM access latency and
	// bandwidth queueing modeled via SendAfter).
	Service arch.Cycles
	// Network is topological network latency.
	Network arch.Cycles
	// Queue is injection-port serialization (observed chain only; the
	// zero-queueing critical path excludes it by construction).
	Queue arch.Cycles
	// Wait is destination busy-wait: delivery to execution start
	// (observed chain only).
	Wait arch.Cycles
}

// Total sums the components.
func (p PathComponents) Total() arch.Cycles {
	return p.Compute + p.Service + p.Network + p.Queue + p.Wait
}

// CritPath is the result of critical-path extraction over the event DAG.
// Every message is sent by exactly one event and triggers exactly one
// event, so the DAG is a forest rooted at host posts and chains are
// well-defined.
type CritPath struct {
	// Makespan is the run's final time.
	Makespan arch.Cycles
	// Length is the zero-queueing critical path: the longest chain under
	// weights compute-before-send + service + network + tail work. It is
	// what the run would cost with infinite bandwidth everywhere, so
	// Length <= Makespan always, and Length/Makespan is the
	// latency-hiding headroom (crit%).
	Length arch.Cycles
	// Events is the number of events on the critical chain.
	Events int
	// Components decomposes Length (Queue and Wait are zero).
	Components PathComponents
	// Kinds counts the critical chain's events and their charged cycles
	// by message kind (occupancy of chain events; charged cycles beyond
	// a hop's send offset overlap with the message flight, so the cycle
	// column exceeds Components.Compute).
	Kinds [nKinds]KindStat
	// ObservedLength is the elapsed time of the causal chain ending at
	// the latest-finishing event: tail finish minus root post time.
	ObservedLength arch.Cycles
	// ObservedEvents is that chain's event count.
	ObservedEvents int
	// Observed decomposes ObservedLength exactly, including injection
	// queueing and destination busy-wait.
	Observed PathComponents
}

// CritPct is Length over Makespan, zero when nothing ran.
func (c *CritPath) CritPct() float64 {
	if c.Makespan <= 0 {
		return 0
	}
	return float64(c.Length) / float64(c.Makespan)
}

// CriticalPath extracts the critical path from the recorded event DAG.
// Deterministic: records are processed in canonical (Start, Src, Seq)
// order and ties keep the earliest event, independent of shard count.
func (t *TraceRecorder) CriticalPath() *CritPath {
	cp := &CritPath{Makespan: t.finalTime}
	edges := make(map[uid]*EdgeRec)
	for i := range t.posts {
		e := &t.posts[i]
		edges[uid{e.Src, e.Seq}] = e
	}
	n := 0
	for _, v := range t.views {
		n += len(v.execs)
		for i := range v.edges {
			e := &v.edges[i]
			edges[uid{e.Src, e.Seq}] = e
		}
	}
	if n == 0 {
		return cp
	}
	execs := make([]*ExecRec, 0, n)
	xm := make(map[uid]*ExecRec, n)
	for _, v := range t.views {
		for i := range v.execs {
			x := &v.execs[i]
			execs = append(execs, x)
			xm[uid{x.Src, x.Seq}] = x
		}
	}
	// Parents execute strictly before children (delivery adds at least one
	// cycle of latency), so (Start, Src, Seq) order is topological.
	sort.Slice(execs, func(i, j int) bool {
		a, b := execs[i], execs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	// DP over the forest: s is the event's zero-queueing start, root its
	// chain root's post/delivery time, start its actual start (send
	// offsets are measured against actual starts).
	type node struct {
		s, root, start arch.Cycles
	}
	st := make(map[uid]node, n)
	bestLen := arch.Cycles(-1)
	tailFin := arch.Cycles(-1)
	var bestUID, tailUID uid
	for _, x := range execs {
		u := uid{x.Src, x.Seq}
		var nd node
		if e := edges[u]; e == nil {
			nd = node{s: x.Start, root: x.Start, start: x.Start}
		} else if p, ok := st[uid{e.ParentSrc, e.ParentSeq}]; e.ParentSrc >= 0 && ok {
			nd = node{s: p.s + (e.SendAt - p.start) + e.Service + e.Net, root: p.root, start: x.Start}
		} else {
			nd = node{s: e.Deliver, root: e.Deliver, start: x.Start}
		}
		st[u] = nd
		if l := nd.s + x.Charged - nd.root; l > bestLen {
			bestLen, bestUID = l, u
		}
		if f := x.Start + x.Charged; f > tailFin {
			tailFin, tailUID = f, u
		}
	}
	if cp.Makespan < tailFin {
		cp.Makespan = tailFin
	}
	cp.Length = bestLen
	cp.Components, cp.Events, cp.Kinds, _ = t.walkChain(bestUID, edges, xm, false)
	var rootBase arch.Cycles
	cp.Observed, cp.ObservedEvents, _, rootBase = t.walkChain(tailUID, edges, xm, true)
	cp.ObservedLength = tailFin - rootBase
	return cp
}

// walkChain backtracks the causal chain ending at u, accumulating latency
// components and per-kind occupancy. With observed=true it includes
// queueing and busy-wait (full decomposition); otherwise only the
// zero-queueing weights. rootBase is the chain root's post/delivery time.
func (t *TraceRecorder) walkChain(u uid, edges map[uid]*EdgeRec, xm map[uid]*ExecRec, observed bool) (PathComponents, int, [nKinds]KindStat, arch.Cycles) {
	var pc PathComponents
	var kinds [nKinds]KindStat
	events := 0
	tail := xm[u]
	if tail == nil {
		return pc, 0, kinds, 0
	}
	pc.Compute += tail.Charged
	rootBase := tail.Start
	for {
		x := xm[u]
		events++
		k := kindIndex(x.Kind)
		kinds[k].Count++
		kinds[k].Cycles += int64(x.Charged)
		e := edges[u]
		if e == nil {
			rootBase = x.Start
			break
		}
		pu := uid{e.ParentSrc, e.ParentSeq}
		p := xm[pu]
		if e.ParentSrc < 0 || p == nil {
			if observed {
				pc.Wait += x.Start - e.Deliver
			}
			rootBase = e.Deliver
			break
		}
		pc.Compute += e.SendAt - p.Start
		pc.Service += e.Service
		pc.Network += e.Net
		if observed {
			pc.Queue += e.Queue
			pc.Wait += x.Start - e.Deliver
		}
		u = pu
	}
	return pc, events, kinds, rootBase
}

// WriteText renders the critical-path report deterministically.
func (c *CritPath) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: length=%d cycles, makespan=%d cycles, crit%%=%.1f, events=%d\n",
		c.Length, c.Makespan, 100*c.CritPct(), c.Events)
	fmt.Fprintf(&b, "  zero-queue components: compute=%d service=%d network=%d\n",
		c.Components.Compute, c.Components.Service, c.Components.Network)
	fmt.Fprintf(&b, "  %-12s %10s %14s\n", "chain kind", "count", "cycles")
	for k := range c.Kinds {
		if c.Kinds[k].Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s %10d %14d\n", KindName(k), c.Kinds[k].Count, c.Kinds[k].Cycles)
	}
	fmt.Fprintf(&b, "observed tail chain: length=%d cycles, events=%d\n", c.ObservedLength, c.ObservedEvents)
	fmt.Fprintf(&b, "  components: compute=%d service=%d network=%d inj-queue=%d dst-wait=%d\n",
		c.Observed.Compute, c.Observed.Service, c.Observed.Network, c.Observed.Queue, c.Observed.Wait)
	_, err := io.WriteString(w, b.String())
	return err
}

// String is WriteText into a string.
func (c *CritPath) String() string {
	var b strings.Builder
	c.WriteText(&b)
	return b.String()
}

// ---- traffic matrix ---------------------------------------------------

// FlowMatrix is the node-to-node message count matrix. Msgs[src][dst]
// counts messages sent from src to dst, including same-node traffic on the
// diagonal; host posts are excluded (they are not network traffic).
type FlowMatrix struct {
	Nodes int
	Msgs  [][]int64
}

// Flows builds the traffic matrix from the recorded edges.
func (t *TraceRecorder) Flows() *FlowMatrix {
	n := 0
	for _, v := range t.views {
		for i := range v.edges {
			e := &v.edges[i]
			if int(e.SrcNode) >= n {
				n = int(e.SrcNode) + 1
			}
			if int(e.DstNode) >= n {
				n = int(e.DstNode) + 1
			}
		}
	}
	f := &FlowMatrix{Nodes: n, Msgs: make([][]int64, n)}
	for i := range f.Msgs {
		f.Msgs[i] = make([]int64, n)
	}
	for _, v := range t.views {
		for i := range v.edges {
			e := &v.edges[i]
			f.Msgs[e.SrcNode][e.DstNode]++
		}
	}
	return f
}

// WriteText renders the matrix as a deterministic sparse listing; machine
// m supplies the per-message byte size.
func (f *FlowMatrix) WriteText(w io.Writer, m arch.Machine) error {
	var total, cross int64
	for s := range f.Msgs {
		for d, c := range f.Msgs[s] {
			total += c
			if s != d {
				cross += c
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix: %d nodes, %d messages (%d cross-node, %d bytes cross-node)\n",
		f.Nodes, total, cross, cross*int64(m.MsgBytes))
	fmt.Fprintf(&b, "%-6s %-6s %12s %14s\n", "src", "dst", "msgs", "bytes")
	for s := range f.Msgs {
		for d, c := range f.Msgs[s] {
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-6d %-6d %12d %14d\n", s, d, c, c*int64(m.MsgBytes))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the matrix with machine m's message size.
func (f *FlowMatrix) String(m arch.Machine) string {
	var b strings.Builder
	f.WriteText(&b, m)
	return b.String()
}

// ---- latency histograms -----------------------------------------------

// Latency components of LatencyReport, in emission order.
const (
	CompQueue = iota
	CompNetwork
	CompService
	CompWait
	nComps
)

var compNames = [nComps]string{"inj-queue", "network", "service", "dst-wait"}

// histBuckets bounds the log2 bucket array (2^47 cycles ≈ a day at 2 GHz).
const histBuckets = 48

// Hist is one log-bucketed latency distribution.
type Hist struct {
	Count, Sum, Max int64
	// Buckets[i] counts observations v with bits.Len64(v) == i: bucket 0
	// holds zeros, bucket i>=1 holds [2^(i-1), 2^i).
	Buckets [histBuckets]int64
}

func (h *Hist) add(v arch.Cycles) {
	x := int64(v)
	if x < 0 {
		x = 0
	}
	h.Count++
	h.Sum += x
	if x > h.Max {
		h.Max = x
	}
	b := bits.Len64(uint64(x))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Buckets[b]++
}

// Mean is Sum/Count, zero when empty.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// LatencyReport holds per-kind, per-component latency histograms over all
// delivered messages.
type LatencyReport struct {
	Kinds [nKinds][nComps]Hist
}

// Latencies joins execution records with their edges and builds the
// histograms. Integer accumulation over an order-independent join keeps
// the result shard-count invariant.
func (t *TraceRecorder) Latencies() *LatencyReport {
	em := make(map[uid]*EdgeRec)
	for i := range t.posts {
		e := &t.posts[i]
		em[uid{e.Src, e.Seq}] = e
	}
	for _, v := range t.views {
		for i := range v.edges {
			e := &v.edges[i]
			em[uid{e.Src, e.Seq}] = e
		}
	}
	r := &LatencyReport{}
	for _, v := range t.views {
		for i := range v.execs {
			x := &v.execs[i]
			e := em[uid{x.Src, x.Seq}]
			if e == nil {
				continue
			}
			k := kindIndex(x.Kind)
			r.Kinds[k][CompQueue].add(e.Queue)
			r.Kinds[k][CompNetwork].add(e.Net)
			r.Kinds[k][CompService].add(e.Service)
			r.Kinds[k][CompWait].add(x.Start - e.Deliver)
		}
	}
	return r
}

// WriteText renders the histograms deterministically: per kind, one line
// per component with count/mean/max and the sparse log2 buckets ("2^i:n"
// counts observations in [2^(i-1), 2^i); "0:n" counts zeros).
func (r *LatencyReport) WriteText(w io.Writer) error {
	var b strings.Builder
	for k := range r.Kinds {
		count := r.Kinds[k][CompNetwork].Count
		if count == 0 {
			continue
		}
		fmt.Fprintf(&b, "latency: kind=%s (%d messages)\n", KindName(k), count)
		for c := 0; c < nComps; c++ {
			h := &r.Kinds[k][c]
			fmt.Fprintf(&b, "  %-10s mean=%.1f max=%d ", compNames[c], h.Mean(), h.Max)
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				if i == 0 {
					fmt.Fprintf(&b, " 0:%d", n)
				} else {
					fmt.Fprintf(&b, " 2^%d:%d", i, n)
				}
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String is WriteText into a string.
func (r *LatencyReport) String() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}
