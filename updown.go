// Package updown is the public facade of the UpDown simulation stack: it
// assembles a simulated machine (engine, global address space, DRAM
// controllers, UDWeave program) and re-exports the types applications use.
//
// The stack reproduces the system of "KVMSR+UDWeave: Extreme-Scaling with
// Fine-grained Parallelism on the UpDown Graph Supercomputer" (SC Workshops
// '25): a fine-grained event-driven machine programmed through UDWeave
// events and the KVMSR map-shuffle-reduce library.
//
// Quickstart:
//
//	m, _ := updown.New(updown.Config{Nodes: 4})
//	hello := m.Prog.Define("hello", func(c *updown.Ctx) {
//		c.Cycles(10)
//		c.YieldTerminate()
//	})
//	m.Start(updown.EvwNew(m.Arch.LaneID(0, 0, 0), hello))
//	stats, _ := m.Run()
package updown

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/dram"
	"updown/internal/fault"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/sim"
	"updown/internal/telemetry"
	"updown/internal/udweave"
)

// Re-exported core types so applications only import this package.
type (
	// Ctx is the execution context handed to every event handler.
	Ctx = udweave.Ctx
	// Label names a registered event handler.
	Label = udweave.Label
	// NetworkID identifies a computation location.
	NetworkID = arch.NetworkID
	// Cycles is simulated time in lane clock cycles.
	Cycles = arch.Cycles
	// Stats summarizes a simulation run.
	Stats = sim.Stats
	// VA is a virtual address in the global address space.
	VA = gasmem.VA
)

// IGNRCONT is the "no continuation" sentinel.
const IGNRCONT = udweave.IGNRCONT

// Re-exported intrinsics.
var (
	// EvwNew builds an event word for a new thread on a lane.
	EvwNew = udweave.EvwNew
	// EvwExisting builds an event word for an existing thread.
	EvwExisting = udweave.EvwExisting
	// EvwUpdateEvent swaps the label of an event word.
	EvwUpdateEvent = udweave.EvwUpdateEvent
	// FloatBits / BitsFloat convert float64 operands.
	FloatBits = udweave.FloatBits
	BitsFloat = udweave.BitsFloat
)

// Config selects the machine to simulate.
type Config struct {
	// Nodes is the UpDown node count (each node has 32 accelerators x 64
	// lanes). Required.
	Nodes int
	// Shards is the number of partitions the simulator splits the nodes
	// into (see sim.Options.Shards); 0 = GOMAXPROCS, 1 = one shard, the
	// reference every other count is tested against.
	Shards int
	// MaxTime bounds simulated cycles (0 = unbounded); runs exceeding it
	// return sim.ErrTimeout.
	MaxTime Cycles
	// Arch, when non-nil, overrides the full architecture description
	// (used by ablation experiments that sweep latency or bandwidth).
	Arch *arch.Machine
	// Metrics, when non-nil, enables the observability recorder: per-node
	// time series (lane occupancy, sends, DRAM traffic and backlog,
	// injection backlog, wait-queue depth) plus per-message-kind
	// breakdowns, retrievable via Machine.Metrics and exportable as a
	// Perfetto trace. Nil keeps recording disabled and the simulator at
	// full speed.
	Metrics *metrics.Options
	// Fault, when non-nil, installs a deterministic fault-injection plan
	// (message drop/dup/delay on the unreliable event class, lane stalls,
	// bandwidth degradation, node fail-stops). Verdicts depend only on the
	// plan seed and each message's (source, sequence) identity, so runs
	// with the same seed and spec are byte-identical at any shard count.
	// Nil keeps the fabric perfect and the fault paths compiled out of the
	// hot loop (nil-checked hooks).
	Fault *fault.Plan
	// Resilience, when non-nil, is handed to applications (via
	// Machine.Resilience) so they opt their KVMSR invocations into the
	// resilient shuffle: acked, sequence-numbered emits on the unreliable
	// class with timeout retransmission and idempotent apply. Required for
	// correct results under a Fault plan that targets KindEventU.
	Resilience *kvmsr.Resilience
	// Coalesce, when non-nil, is handed to applications (via
	// Machine.Coalesce) so they opt their KVMSR invocations into the
	// coalescing shuffle: per-destination pack buffers that turn several
	// emitted tuples into one multi-tuple network message. Nil keeps one
	// message per tuple.
	Coalesce *kvmsr.Coalesce
	// Replication, when > 1, is the default k-way replicated placement
	// factor for every DRAMmalloc on this machine (clamped per
	// allocation to its node count): each block is stored on k
	// consecutive ring nodes, writes fan out to all copies, reads fall
	// over past fail-stopped nodes, and writes aimed at a dead node are
	// queued as hinted handoff for Machine.Backfill. Composes with a
	// Fault plan containing fail-stops: the run completes with correct
	// output and no data loss as long as fewer than k replicas of any
	// block fail. 0 or 1 keeps classic single-copy placement.
	Replication int
	// Telemetry, when non-nil, attaches the live observation plane: the
	// engine publishes immutable in-run snapshots (progress, throughput,
	// per-node busy/backlog, fault and replication counters) through the
	// publisher at window barriers, observers read them lock-free (HTTP
	// exposition, watchdog, signal-driven dumps), and RequestStop makes
	// Run return sim.ErrInterrupted at the next quiesced point. The
	// published snapshots never touch live sim state, so telemetry
	// cannot perturb determinism; nil keeps the plane disabled at one
	// nil-check per window.
	Telemetry *telemetry.Publisher
	// Trace, when non-nil, enables the causal tracing recorder: named
	// spans (thread lifetimes, event executions, KVMSR phases, program
	// phases) and/or the per-message causal edge stream that feeds
	// critical-path extraction, latency histograms and the node-to-node
	// flow matrix. Retrievable via Machine.Trace; the zero TraceOptions
	// value enables both span and causal recording. Nil keeps tracing
	// disabled and the simulator at full speed.
	Trace *metrics.TraceOptions
}

// Machine is an assembled simulated UpDown system.
type Machine struct {
	Arch   arch.Machine
	Engine *sim.Engine
	GAS    *gasmem.GAS
	Prog   *udweave.Program
	Ctrls  []*dram.Controller
	// Metrics is the observability recorder, nil unless Config.Metrics
	// was set. After Run, Metrics.Profile() yields the merged per-node
	// series; Profile.WriteTrace exports a Perfetto-loadable trace.
	Metrics *metrics.Recorder
	// Trace is the causal tracing recorder, nil unless Config.Trace was
	// set. After Run, Trace.CriticalPath/Latencies/Flows analyze the
	// causal DAG and metrics.WriteTraceFile renders the recorded spans.
	Trace *metrics.TraceRecorder
	// Resilience echoes Config.Resilience for applications to pass into
	// their KVMSR specs; nil means the classic (reliable-fabric) shuffle.
	Resilience *kvmsr.Resilience
	// Coalesce echoes Config.Coalesce for applications to pass into
	// their KVMSR specs; nil means one shuffle message per tuple.
	Coalesce *kvmsr.Coalesce
	// Telemetry echoes Config.Telemetry so layers above the machine (the
	// job scheduler, the query server) can add their own publish hooks
	// after the one New adds; nil when the live plane is disabled.
	Telemetry *telemetry.Publisher
}

// New assembles a machine.
func New(cfg Config) (*Machine, error) {
	var a arch.Machine
	if cfg.Arch != nil {
		a = *cfg.Arch
	} else {
		if cfg.Nodes <= 0 {
			return nil, fmt.Errorf("updown: Config.Nodes must be positive")
		}
		a = arch.DefaultMachine(cfg.Nodes)
	}
	gas := gasmem.New(a.Nodes, a.DRAMBytesPerNode)
	if cfg.Replication > 1 {
		gas.SetReplication(cfg.Replication)
	}
	var failover func(kind uint8, op0 uint64, deadNode int, at arch.Cycles) (uint8, uint64, int, bool)
	if cfg.Fault != nil {
		// Install the engine failover hook that catches DRAM messages
		// already in flight when their destination dies.
		if cfg.Replication > 1 {
			failover = func(kind uint8, op0 uint64, deadNode int, at arch.Cycles) (uint8, uint64, int, bool) {
				switch kind {
				case arch.KindDRAMRead:
					if n, ok := gas.FailoverRead(op0, deadNode); ok {
						return kind, op0, n, true
					}
				case arch.KindDRAMWrite:
					if n, h, ok := gas.HandoffTarget(op0, deadNode); ok {
						return arch.KindDRAMWriteHint, h, n, true
					}
				case arch.KindDRAMFetchAdd:
					if n, h, ok := gas.HandoffTarget(op0, deadNode); ok {
						return arch.KindDRAMFetchAddHint, h, n, true
					}
				case arch.KindDRAMWriteHint, arch.KindDRAMFetchAddHint:
					// A hint whose handoff holder also died: re-handoff,
					// keeping the originally intended node in the header.
					va, intended := gasmem.SplitHintOp(op0)
					if n, h, ok := gas.HandoffTarget(va, intended); ok {
						return kind, h, n, true
					}
				}
				return 0, 0, 0, false
			}
		}
	}
	prog := udweave.NewProgram(a, gas)
	var rec *metrics.Recorder
	if cfg.Metrics != nil {
		rec = metrics.New(a.Nodes, *cfg.Metrics)
	}
	var tr *metrics.TraceRecorder
	if cfg.Trace != nil {
		tr = metrics.NewTrace(*cfg.Trace)
	}
	eng, err := sim.NewEngine(a, sim.Options{
		Shards:       cfg.Shards,
		MaxTime:      cfg.MaxTime,
		LaneFactory:  prog.NewLane,
		Metrics:      rec,
		Trace:        tr,
		Telemetry:    cfg.Telemetry,
		Fault:        cfg.Fault,
		DRAMFailover: failover,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		// The engine has validated the plan. Mirror its fail-stops into the
		// address space so placement decisions (read fall-over, write
		// fan-out, hinted handoff) can consult node liveness.
		for _, fs := range cfg.Fault.FailStops {
			gas.SetFailStop(fs.Node, int64(fs.At))
		}
	}
	m := &Machine{Arch: a, Engine: eng, GAS: gas, Prog: prog, Ctrls: dram.Install(eng, gas),
		Metrics: rec, Trace: tr, Resilience: cfg.Resilience, Coalesce: cfg.Coalesce,
		Telemetry: cfg.Telemetry}
	if cfg.Telemetry != nil {
		// The hook runs in the quiesced engine context at snapshot
		// publication, so reading the controllers is race-free; the fold
		// keeps mid-run partial profiles coherent.
		cfg.Telemetry.OnPublish(func(s *telemetry.Snapshot) { s.Repl = m.foldRepl() })
	}
	return m, nil
}

// foldRepl sums the replication-layer counters across the machine's
// memory controllers — fall-over reads served and hinted-handoff records
// still queued (Backfill drains the latter to zero); all-zero for
// unreplicated machines — and folds them into the metrics recorder. Run,
// RunUntil and the telemetry hook call it, so a profile's repl: line
// does not depend on how the run was driven or observed.
func (m *Machine) foldRepl() metrics.ReplCounts {
	var c metrics.ReplCounts
	for _, ctrl := range m.Ctrls {
		c.FallbackReads += ctrl.FallbackReads
		c.HintsQueued += int64(ctrl.Hints())
	}
	if m.Metrics != nil {
		m.Metrics.ObserveRepl(c)
	}
	return c
}

// LanePeek returns a resolver from lane NetworkID to its simulated actor,
// suitable for kvmsr.Invocation.ResilienceTotals/Outstanding. Valid after
// Run; peeking mid-run would race with the worker pool.
func (m *Machine) LanePeek() func(NetworkID) any {
	return func(id NetworkID) any { return m.Engine.PeekActor(id) }
}

// Start posts an initial event (time 0) triggering evw with the given
// operands; the host is the source.
func (m *Machine) Start(evw uint64, ops ...uint64) {
	m.Engine.Post(0, udweave.EvwNetworkID(evw), arch.KindEvent, evw, udweave.IGNRCONT, ops...)
}

// StartWithCont is Start with an explicit continuation word.
func (m *Machine) StartWithCont(evw, cont uint64, ops ...uint64) {
	m.Engine.Post(0, udweave.EvwNetworkID(evw), arch.KindEvent, evw, cont, ops...)
}

// StartAt posts an initial event for delivery at simulated cycle t. A
// scheduler interleaving host work with RunUntil slices uses it to
// launch a job strictly beyond the already-simulated frontier, so the
// resident machine's event order stays well defined: after RunUntil(t)
// every message at or before t has been processed, and a job posted at
// t+1 is pure future. Host-side only, engine quiesced.
func (m *Machine) StartAt(t Cycles, evw uint64, ops ...uint64) {
	m.Engine.Post(t, udweave.EvwNetworkID(evw), arch.KindEvent, evw, udweave.IGNRCONT, ops...)
}

// Driver is what a batch application embeds to be driven from the host:
// the machine it runs on, the lane and label of its driver event (the
// first event of a run), and its map-shuffle-reduce invocation, whose
// counters it reports. The driver event records Start when it first runs
// and Done when the application finishes.
type Driver struct {
	M       *Machine
	Lane    NetworkID
	Label   Label
	Shuffle *kvmsr.Invocation
	// Start and Done are the simulated cycle bounds of the measured region.
	Start, Done Cycles
}

// Post queues the driver event without entering the simulator, so the
// host can drive execution itself (RunUntil + Checkpoint workflows).
func (d *Driver) Post() { d.PostAt(0) }

// PostAt queues the driver event for delivery at cycle t: a job scheduler
// launching the application on a resident machine posts it just past the
// already-simulated frontier.
func (d *Driver) PostAt(t Cycles) { d.M.StartAt(t, EvwNew(d.Lane, d.Label)) }

// Run posts the driver event and simulates to completion.
func (d *Driver) Run() (Stats, error) {
	d.Post()
	return d.M.Run()
}

// Elapsed returns the simulated cycles of the measured region.
func (d *Driver) Elapsed() Cycles { return d.Done - d.Start }

// Finished returns the completion cycle and whether the application has
// finished.
func (d *Driver) Finished() (Cycles, bool) { return d.Done, d.Done > 0 }

// ResilienceTotals aggregates the resilient-shuffle counters across the
// application's lanes (zero when Machine.Resilience is nil). Call after Run.
func (d *Driver) ResilienceTotals() kvmsr.ResilienceTotals {
	return d.Shuffle.ResilienceTotals(d.M.LanePeek())
}

// TerminationTotals reads the shuffle's termination-protocol counters
// (launches, master probes, node drains, pushed deltas). Call after Run.
func (d *Driver) TerminationTotals() kvmsr.TerminationTotals {
	return d.Shuffle.TerminationTotals(d.M.LanePeek())
}

// Outstanding reports unacked resilient emits left after a run (always
// zero for a healthy run; leak detection for the chaos harness).
func (d *Driver) Outstanding() int { return d.Shuffle.Outstanding(d.M.LanePeek()) }

// Run simulates to quiescence, then folds the replication-layer
// counters into the metrics recorder (Profile.Repl, the "repl:" line).
func (m *Machine) Run() (Stats, error) {
	stats, err := m.Engine.Run()
	m.foldRepl()
	return stats, err
}

// BackfillStats reports what Machine.Backfill did.
type BackfillStats struct {
	// Hints is the number of hinted-handoff records drained into the
	// backfilled node; HintWords the data words they carried.
	Hints     int
	HintWords int
	// RepairedWords counts words the anti-entropy pass had to change
	// after the hint drain — zero when hinted handoff alone restored the
	// node byte-exactly.
	RepairedWords uint64
}

// Backfill restores a fail-stopped node's replica stripes between runs.
// With spare >= 0 the spare takes over every ring position the dead node
// occupied (Dynamo-style permanent handoff: fresh stripes on the spare);
// with spare < 0 the dead node recovers in place, keeping the stripe
// contents it held at fail-stop. Either way the queued hinted-handoff
// records for the dead node are drained, in deterministic controller
// order, into the backfill target, and an anti-entropy pass copies any
// remaining divergence from surviving peer replicas. The target then
// serves reads again for host-side access and subsequent machines warm-
// started from this GAS.
//
// Backfill is a host-side operation: call it between runs. It cannot
// resurrect the node within the simulated run that killed it — the fault
// plan is immutable for a run — but a checkpoint taken afterwards carries
// the healed, byte-canonical stores.
func (m *Machine) Backfill(dead, spare int) (BackfillStats, error) {
	var st BackfillStats
	target := dead
	if spare >= 0 {
		if err := m.GAS.Reassign(dead, spare); err != nil {
			return st, err
		}
		target = spare
	}
	for _, c := range m.Ctrls {
		st.Hints += c.DrainHints(dead, func(h dram.Hint) {
			switch h.Kind {
			case arch.KindDRAMWriteHint:
				for i := 0; i < int(h.NOps); i++ {
					m.GAS.NodeWriteU64(target, h.VA+uint64(i)*gasmem.WordBytes, h.Ops[i])
				}
				st.HintWords += int(h.NOps)
			case arch.KindDRAMFetchAddHint:
				old := m.GAS.NodeReadU64(target, h.VA)
				m.GAS.NodeWriteU64(target, h.VA, old+h.Ops[0])
				st.HintWords++
			}
		})
	}
	st.RepairedWords = m.GAS.Repair(target)
	if spare < 0 {
		m.GAS.Recover(dead)
	}
	return st, nil
}

// Seconds converts simulated cycles to seconds at the machine clock.
func (m *Machine) Seconds(c Cycles) float64 { return m.Arch.Seconds(c) }
