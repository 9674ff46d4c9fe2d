// Package metrics is the opt-in observability layer of the simulator: it
// declares the run's counter record (Totals, which the engine accumulates
// as sim.Stats) and adds per-node time series and per-message-kind
// breakdowns to it, which is what bottleneck
// attribution needs — the paper's scaling knees are DRAM-bandwidth,
// injection-port and lane-occupancy stories, none of which are visible in
// an end-to-end cycle count.
//
// A Recorder buckets observations into fixed-width cycle intervals. The
// engine reports three observation streams through per-shard views
// (ShardView): executed events (busy cycles, wait-queue depth), network
// sends (injection-port backlog), and DRAM services (bytes, controller
// backlog). Each simulated node is owned by exactly one engine shard and
// every observation is attributed to a node, so shard views write disjoint
// rows of the same table without locks — and because the engine's
// execution order per node is bit-identical at every shard count, the
// recorded series are too. Only the per-kind totals are kept per shard and
// summed at Profile time (integer sums, order-independent), so Profile
// output is byte-identical across shard counts.
//
// When no Recorder is installed the engine hooks are single nil-checks;
// see the acceptance bound in engine_bench_test.go.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"updown/internal/arch"
	"updown/internal/fault"
)

// DefaultInterval is the sampling bucket width used when Options.Interval
// is zero: 8192 cycles = 4.1 us at the 2 GHz default clock, a few hundred
// buckets for the reduced-scale harness runs.
const DefaultInterval arch.Cycles = 8192

// nKinds is the size of the per-message-kind tables: the arch.Kind*
// constants plus one overflow bucket for unknown kinds from custom actors.
const nKinds = int(arch.NumKinds) + 1

// kindOther is the overflow bucket index.
const kindOther = nKinds - 1

// Totals is the run's counter record, declared once: the engine
// accumulates it per shard (sim.Stats is this type), the recorder keeps
// the latest observation for Profile, and the telemetry Snapshot embeds
// it. The JSON names are the /status keys.
type Totals struct {
	// FinalTime is the completion cycle of the last executed message —
	// its start cycle plus the cycles it charged — i.e. the simulated
	// completion time of the program including the tail event's work.
	FinalTime arch.Cycles `json:"-"`
	// Events counts executed messages by kind.
	Events int64 `json:"events"`
	// DRAMReads, DRAMWrites and DRAMBytes count memory traffic.
	DRAMReads  int64 `json:"dram_reads"`
	DRAMWrites int64 `json:"dram_writes"`
	DRAMBytes  int64 `json:"dram_bytes"`
	// Sends counts messages injected into the network.
	Sends int64 `json:"sends"`
	// ShuffleMsgs and ShuffleTuples separate the two meanings "sends"
	// conflates once a shuffle packs tuples: ShuffleMsgs counts shuffle
	// messages that enter the inter-node network (cross-node sends, the
	// ones that pay injection-port serialization — retransmissions
	// included, acks and intra-node deliveries excluded) and
	// ShuffleTuples counts logical emitted tuples. Their ratio is the
	// number of logical tuples each network message carries, comparable
	// across shuffle modes. Runtimes report them through Env.AddShuffle.
	ShuffleMsgs   int64 `json:"shuffle_msgs"`
	ShuffleTuples int64 `json:"shuffle_tuples"`
	// BusyCycles is the sum of actor occupancy, used for utilization.
	BusyCycles int64 `json:"busy_cycles"`
	// LanesTouched is the number of lanes that executed at least one
	// event.
	LanesTouched int64 `json:"-"`
	// Faults counts injected faults; all-zero when fault injection is
	// disabled.
	Faults fault.Counts `json:"faults"`
}

// Add accumulates o into t; FinalTime is the later of the two.
func (t *Totals) Add(o Totals) {
	t.FinalTime = max(t.FinalTime, o.FinalTime)
	t.Events += o.Events
	t.DRAMReads += o.DRAMReads
	t.DRAMWrites += o.DRAMWrites
	t.DRAMBytes += o.DRAMBytes
	t.Sends += o.Sends
	t.ShuffleMsgs += o.ShuffleMsgs
	t.ShuffleTuples += o.ShuffleTuples
	t.BusyCycles += o.BusyCycles
	t.LanesTouched += o.LanesTouched
	t.Faults.Add(o.Faults)
}

// Utilization returns BusyCycles / (FinalTime * lanes touched), a rough
// measure of how well the program filled the hardware it used.
func (t Totals) Utilization() float64 {
	if t.FinalTime <= 0 || t.LanesTouched == 0 {
		return 0
	}
	return float64(t.BusyCycles) / (float64(t.FinalTime) * float64(t.LanesTouched))
}

// Options configures a Recorder.
type Options struct {
	// Interval is the sampling bucket width in cycles; 0 selects
	// DefaultInterval. Small intervals on long runs cost memory:
	// one Sample (64 bytes) per interval per touched node.
	Interval arch.Cycles
}

// Sample is one node's activity within one bucket of Interval cycles.
// Counts are attributed to the bucket containing the observation's start
// cycle (an event charging across a bucket boundary is not split).
type Sample struct {
	// Busy is the sum of cycles charged by events starting in this bucket.
	Busy int64
	// Events is the number of events executed.
	Events int64
	// Sends is the number of messages injected (all destinations).
	Sends int64
	// XSends is the subset of Sends that crossed nodes and therefore
	// serialized through the node's injection port.
	XSends int64
	// DRAMBytes is the memory traffic served by the node's controller.
	DRAMBytes int64
	// DRAMBacklog64 is the maximum bandwidth backlog observed at the
	// node's DRAM controller, in 1/64-cycle units (the controller's
	// busy-until horizon minus current time at each service).
	DRAMBacklog64 int64
	// InjBacklog64 is the maximum injection-port backlog observed, in
	// 1/64-cycle units.
	InjBacklog64 int64
	// MaxWaitq is the deepest actor wait queue observed on the node.
	MaxWaitq int64
}

// NodeSeries is the bucketed time series of one node.
type NodeSeries struct {
	// Node is the node index.
	Node int
	// Samples is indexed by bucket (cycle / Interval). Trailing buckets a
	// node never touched are absent.
	Samples []Sample
}

// Touched reports whether the node recorded any activity.
func (s *NodeSeries) Touched() bool { return len(s.Samples) > 0 }

// Totals sums the series.
func (s *NodeSeries) Totals() Sample {
	var t Sample
	for i := range s.Samples {
		b := &s.Samples[i]
		t.Busy += b.Busy
		t.Events += b.Events
		t.Sends += b.Sends
		t.XSends += b.XSends
		t.DRAMBytes += b.DRAMBytes
		if b.DRAMBacklog64 > t.DRAMBacklog64 {
			t.DRAMBacklog64 = b.DRAMBacklog64
		}
		if b.InjBacklog64 > t.InjBacklog64 {
			t.InjBacklog64 = b.InjBacklog64
		}
		if b.MaxWaitq > t.MaxWaitq {
			t.MaxWaitq = b.MaxWaitq
		}
	}
	return t
}

// KindStat is the cycle/count breakdown for one message kind. Cross is the
// subset of Count delivered from another node: for the DRAM kinds, accesses
// whose issuing lane is not on the memory's node — the locality a
// computation binding buys or wastes.
type KindStat struct {
	Count  int64
	Cycles int64
	Cross  int64
}

// Recorder accumulates observations for one engine. Install it via
// sim.Options.Metrics (or updown.Config.Metrics); it may observe several
// consecutive Run calls and accumulates across them.
type Recorder struct {
	interval arch.Cycles
	nodes    []NodeSeries
	views    []*ShardView
	totals   Totals
	repl     ReplCounts

	// jobOfNode maps each node to the job currently bound to it (-1 =
	// unattributed); nil until the first BindJob, which keeps per-job
	// attribution off the hot path for single-job runs. See jobs.go.
	jobOfNode []int32
}

// New builds a recorder for a machine with the given node count.
func New(nodes int, opts Options) *Recorder {
	iv := opts.Interval
	if iv <= 0 {
		iv = DefaultInterval
	}
	r := &Recorder{interval: iv, nodes: make([]NodeSeries, nodes)}
	for i := range r.nodes {
		r.nodes[i].Node = i
	}
	return r
}

// Interval returns the sampling bucket width.
func (r *Recorder) Interval() arch.Cycles { return r.interval }

// NumNodes returns the node count the recorder was built for.
func (r *Recorder) NumNodes() int { return len(r.nodes) }

// Shard returns the view engine shard i reports through. The engine calls
// it at Run setup; views persist across Runs so multi-phase drivers
// accumulate one profile. Not safe for concurrent first-time creation —
// the engine materializes all views before starting its workers.
func (r *Recorder) Shard(i int) *ShardView {
	for len(r.views) <= i {
		r.views = append(r.views, &ShardView{r: r})
	}
	return r.views[i]
}

// ObserveTotals records the run's cumulative counters; the engine calls
// it after every Run and at telemetry publication points. Later calls
// replace earlier ones, except that FinalTime only grows.
func (r *Recorder) ObserveTotals(t Totals) {
	t.FinalTime = max(t.FinalTime, r.totals.FinalTime)
	r.totals = t
}

// ReplCounts aggregates the replication-layer counters of the k-way
// replicated global memory: reads served by a fallback replica and the
// hinted-handoff queue depth awaiting Backfill. Engine-level failovers
// live in fault.Counts.Failovers (they are injected-fault outcomes).
type ReplCounts struct {
	// FallbackReads counts reads served by a non-primary replica stripe
	// (the controllers' fallback-read counters summed across nodes).
	FallbackReads int64 `json:"fallback_reads"`
	// HintsQueued is the number of hinted-handoff records held for
	// fail-stopped replicas; Machine.Backfill drains them to zero.
	HintsQueued int64 `json:"hints_queued"`
}

// Zero reports whether no replication activity was recorded.
func (c ReplCounts) Zero() bool { return c == ReplCounts{} }

// ObserveRepl records the run's replication counters; the updown layer
// calls it after every Run and RunUntil with the accumulated totals
// (later calls replace earlier ones).
func (r *Recorder) ObserveRepl(c ReplCounts) { r.repl = c }

// ShardView is the per-engine-shard write interface. A view writes only to
// nodes its shard owns, which makes the recorder race-free without locks.
type ShardView struct {
	r     *Recorder
	kinds [nKinds]KindStat
	// jobs accumulates per-job attribution for nodes this shard owns,
	// indexed by job ID; merged by Recorder.JobTotals.
	jobs []JobTotals
	// lanes[i] is the busy total of lane laneLo+i: the contiguous ID range
	// this shard's lanes span (a shard owns a contiguous node range).
	laneLo arch.NetworkID
	lanes  []LaneBusy
}

// LaneBusy is one lane's busy-cycle total.
type LaneBusy struct {
	Lane arch.NetworkID
	Node int32
	Busy int64
}

// lane returns lane id's total, growing the view's range to cover it.
func (v *ShardView) lane(id arch.NetworkID) *LaneBusy {
	if len(v.lanes) == 0 {
		v.laneLo = id
	}
	if id < v.laneLo {
		v.lanes = append(make([]LaneBusy, v.laneLo-id), v.lanes...)
		v.laneLo = id
	}
	for int(id-v.laneLo) >= len(v.lanes) {
		v.lanes = append(v.lanes, LaneBusy{})
	}
	return &v.lanes[id-v.laneLo]
}

// sample returns the bucket for (node, at), growing the node's series.
func (v *ShardView) sample(node int32, at arch.Cycles) *Sample {
	s := &v.r.nodes[node]
	b := int(at / v.r.interval)
	for len(s.Samples) <= b {
		s.Samples = append(s.Samples, Sample{})
	}
	return &s.Samples[b]
}

// Event records one executed message: the executing lane
// (arch.InvalidNetworkID for memory controllers and other actors), kind,
// start cycle, charged cycles, and the destination actor's wait-queue depth
// after execution.
func (v *ShardView) Event(node int32, lane arch.NetworkID, kind uint8, start, charged arch.Cycles, waitq int) {
	k := kindIndex(kind)
	v.kinds[k].Count++
	v.kinds[k].Cycles += int64(charged)
	if lane >= 0 {
		l := v.lane(lane)
		l.Lane, l.Node = lane, node
		l.Busy += int64(charged)
	}
	b := v.sample(node, start)
	b.Events++
	b.Busy += int64(charged)
	if int64(waitq) > b.MaxWaitq {
		b.MaxWaitq = int64(waitq)
	}
	if jn := v.r.jobOfNode; jn != nil {
		if j := jn[node]; j >= 0 {
			jt := v.job(j)
			jt.Events++
			jt.Busy += int64(charged)
		}
	}
}

// Remote marks the message just reported through Event as delivered from
// another node.
func (v *ShardView) Remote(kind uint8) { v.kinds[kindIndex(kind)].Cross++ }

// kindIndex is a message kind's row of the per-kind tables.
func kindIndex(kind uint8) int {
	if int(kind) >= nKinds {
		return kindOther
	}
	return int(kind)
}

// Send records one message injection from a node. backlog64 is the
// injection-port occupancy beyond the current cycle (1/64-cycle units);
// it is zero for intra-node sends, which bypass the port.
func (v *ShardView) Send(node int32, cross bool, backlog64 int64, at arch.Cycles) {
	b := v.sample(node, at)
	b.Sends++
	if cross {
		b.XSends++
		if backlog64 > b.InjBacklog64 {
			b.InjBacklog64 = backlog64
		}
	}
	if jn := v.r.jobOfNode; jn != nil {
		if j := jn[node]; j >= 0 {
			jt := v.job(j)
			jt.Sends++
			if cross {
				jt.XSends++
			}
		}
	}
}

// DRAM records one memory service at a node's controller: bytes moved and
// the controller's bandwidth backlog beyond the current cycle.
func (v *ShardView) DRAM(node int32, bytes, backlog64 int64, at arch.Cycles) {
	b := v.sample(node, at)
	b.DRAMBytes += bytes
	if backlog64 > b.DRAMBacklog64 {
		b.DRAMBacklog64 = backlog64
	}
	if jn := v.r.jobOfNode; jn != nil {
		if j := jn[node]; j >= 0 {
			v.job(j).DRAMBytes += bytes
		}
	}
}

// Profile is the merged, read-only result of a recorded run.
type Profile struct {
	// Totals is the run's counter record as last observed (FinalTime is
	// the simulated completion time).
	Totals
	// Interval is the sampling bucket width in cycles.
	Interval arch.Cycles
	// Nodes holds one series per node, indexed by node.
	Nodes []NodeSeries
	// Kinds is the per-message-kind breakdown, indexed by the arch.Kind*
	// constants; the last index collects unknown kinds.
	Kinds [nKinds]KindStat
	// Repl is the replication-layer counter set (all-zero when the
	// machine used unreplicated placement).
	Repl ReplCounts
	// BusiestLane is the lane with the most busy cycles (the lowest ID on
	// a tie); zero when no lane ran.
	BusiestLane LaneBusy
}

// Profile merges the shard views into a deterministic snapshot. The node
// series are shared with the recorder, not copied; take the profile after
// the run, not during it.
func (r *Recorder) Profile() *Profile {
	p := &Profile{Totals: r.totals, Interval: r.interval, Nodes: r.nodes, Repl: r.repl}
	for _, v := range r.views {
		for k := range v.kinds {
			p.Kinds[k].Count += v.kinds[k].Count
			p.Kinds[k].Cycles += v.kinds[k].Cycles
			p.Kinds[k].Cross += v.kinds[k].Cross
		}
		for _, l := range v.lanes {
			if b := &p.BusiestLane; l.Busy > b.Busy || l.Busy == b.Busy && l.Busy > 0 && l.Lane < b.Lane {
				*b = l
			}
		}
	}
	return p
}

// PartialProfile deep-copies the recorder's current state into an
// immutable mid-run profile: node series, kind tables and run-level
// aggregates are all cloned, so the result can be rendered from another
// goroutine while the run continues. It must be called from a quiesced
// engine context (a window barrier, between Runs, or after Run) — the
// telemetry plane calls it at barrier publication points; it is not safe
// to call concurrently with executing shards.
func (r *Recorder) PartialProfile() *Profile {
	p := r.Profile()
	p.Nodes = make([]NodeSeries, len(r.nodes))
	for i, n := range r.nodes {
		p.Nodes[i] = NodeSeries{Node: n.Node, Samples: append([]Sample(nil), n.Samples...)}
	}
	return p
}

// KindName names a per-kind table row.
func KindName(k int) string {
	switch uint8(k) {
	case arch.KindEvent:
		return "event"
	case arch.KindDRAMRead:
		return "dram-read"
	case arch.KindDRAMWrite:
		return "dram-write"
	case arch.KindDRAMFetchAdd:
		return "dram-fadd"
	case arch.KindDRAMWriteHint:
		return "dram-write-hint"
	case arch.KindDRAMFetchAddHint:
		return "dram-fadd-hint"
	case arch.KindControl:
		return "control"
	case arch.KindEventU:
		return "event-u"
	default:
		return fmt.Sprintf("kind-%d", k)
	}
}

// Summary condenses a profile into the machine-utilization figures the
// harness tables report.
type Summary struct {
	// NodesTouched is the number of nodes with any recorded activity.
	NodesTouched int
	// PeakBusyNode is the node with the most busy cycles.
	PeakBusyNode int
	// Imbalance is peak-node busy cycles over the mean across touched
	// nodes: 1.0 is perfectly balanced, N means one node did N times the
	// average work. Zero when nothing ran.
	Imbalance float64
	// DRAMUtil is the peak per-node DRAM bandwidth utilization over the
	// whole run: bytes served at the busiest controller divided by
	// FinalTime x DRAMBytesPerCycle.
	DRAMUtil float64
	// InjUtil is the peak per-node injection-port utilization: cycles the
	// busiest port spent serializing cross-node messages divided by
	// FinalTime.
	InjUtil float64
}

// Summarize computes the run summary under machine m's bandwidth and
// message parameters. Degenerate profiles — a zero-duration run, an empty
// or untouched node set, a machine description without bandwidth figures —
// yield zero utilizations rather than NaN/Inf: every division below is
// gated on a positive denominator.
func (p *Profile) Summarize(m arch.Machine) Summary {
	var s Summary
	var busySum, peakBusy, peakBytes, peakXSends int64
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if !n.Touched() {
			continue
		}
		t := n.Totals()
		s.NodesTouched++
		busySum += t.Busy
		if t.Busy > peakBusy {
			peakBusy = t.Busy
			s.PeakBusyNode = n.Node
		}
		if t.DRAMBytes > peakBytes {
			peakBytes = t.DRAMBytes
		}
		if t.XSends > peakXSends {
			peakXSends = t.XSends
		}
	}
	if s.NodesTouched > 0 && busySum > 0 {
		s.Imbalance = float64(peakBusy) * float64(s.NodesTouched) / float64(busySum)
	}
	if p.FinalTime <= 0 {
		return s
	}
	ft := float64(p.FinalTime)
	if m.DRAMBytesPerCycle > 0 {
		s.DRAMUtil = float64(peakBytes) / (ft * float64(m.DRAMBytesPerCycle))
	}
	if m.InjectBytesPerCycle > 0 {
		// Injection transfer time per cross-node message in 1/64-cycle
		// units, mirroring the engine's port model (minimum one unit).
		xfer64 := int64(64*m.MsgBytes) / int64(m.InjectBytesPerCycle)
		if xfer64 < 1 {
			xfer64 = 1
		}
		s.InjUtil = float64(peakXSends*xfer64) / (ft * 64)
	}
	return s
}

// WriteText renders the profile as a deterministic human-readable report:
// per-kind breakdown plus a per-node totals table sorted by busy cycles.
// The determinism tests compare this output byte-for-byte across shard
// counts.
func (p *Profile) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: interval=%d cycles, final=%d cycles\n", p.Interval, p.FinalTime)
	fmt.Fprintf(&b, "%-12s %12s %14s %12s\n", "kind", "count", "cycles", "cross-node")
	for k := range p.Kinds {
		ks := p.Kinds[k]
		if ks.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %12d %14d %12d (%.1f%%)\n", KindName(k), ks.Count, ks.Cycles,
			ks.Cross, 100*float64(ks.Cross)/float64(ks.Count))
	}
	if !p.Faults.Zero() {
		fmt.Fprintf(&b, "faults: %s\n", p.Faults)
	}
	if !p.Repl.Zero() {
		fmt.Fprintf(&b, "repl: fallback-reads=%d hints-queued=%d failovers=%d\n",
			p.Repl.FallbackReads, p.Repl.HintsQueued, p.Faults.Failovers)
	}
	if p.ShuffleTuples != 0 || p.ShuffleMsgs != 0 {
		line := fmt.Sprintf("shuffle: tuples=%d network-msgs=%d", p.ShuffleTuples, p.ShuffleMsgs)
		if p.ShuffleMsgs > 0 {
			line += fmt.Sprintf(" tup/msg=%.2f", float64(p.ShuffleTuples)/float64(p.ShuffleMsgs))
		}
		b.WriteString(line + "\n")
	}
	if l := p.BusiestLane; l.Busy > 0 && p.FinalTime > 0 {
		fmt.Fprintf(&b, "busiest lane: %d (node %d) %d cycles = %.1f%% of makespan\n",
			l.Lane, l.Node, l.Busy, 100*float64(l.Busy)/float64(p.FinalTime))
	}
	type row struct {
		node int
		t    Sample
	}
	var rows []row
	for i := range p.Nodes {
		if p.Nodes[i].Touched() {
			rows = append(rows, row{p.Nodes[i].Node, p.Nodes[i].Totals()})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].t.Busy != rows[j].t.Busy {
			return rows[i].t.Busy > rows[j].t.Busy
		}
		return rows[i].node < rows[j].node
	})
	fmt.Fprintf(&b, "%-6s %12s %10s %10s %10s %14s %10s %8s\n",
		"node", "busy", "events", "sends", "xsends", "dram-bytes", "backlog", "waitq")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %12d %10d %10d %10d %14d %10d %8d\n",
			r.node, r.t.Busy, r.t.Events, r.t.Sends, r.t.XSends,
			r.t.DRAMBytes, r.t.DRAMBacklog64/64, r.t.MaxWaitq)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String is WriteText into a string.
func (p *Profile) String() string {
	var b strings.Builder
	p.WriteText(&b)
	return b.String()
}
