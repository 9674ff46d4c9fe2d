// Package telemetry is the live observation plane of the simulator: while
// post-mortem observability (internal/metrics profiles and traces) only
// materializes after Run returns, the telemetry Publisher exposes the
// run's state *while it executes* — progress, throughput, imbalance,
// fault and replication counters — without perturbing the deterministic
// simulation.
//
// The consistency model is barrier-quiescence: the engine only touches
// the Publisher's engine-side API (BeginRun, Beat, Publish, FinishRun)
// from points where every shard is quiesced — the window reduction
// (between rounds on one goroutine, inside the barrier under the worker
// pool) and the end of Run. At such a point the engine owns all
// simulation state, so it can read shard statistics, heaps and the
// metrics recorder race-free, assemble an immutable Snapshot, and hand it
// over through a lock-free pointer swap.
// Readers (HTTP handlers, the watchdog, signal handlers) only ever load
// that pointer — they never touch sim state, so a scrape or a dump
// cannot change the simulated execution, and final outputs stay
// byte-identical to a telemetry-free run at every shard count.
//
// Zero cost when disabled: like the metrics and fault hooks, the engine
// guards every telemetry call with a single nil-check, and the hooks sit
// on the per-window path (one barrier per window), never the per-event
// path.
package telemetry

import (
	"sync/atomic"
	"time"

	"updown/internal/metrics"
)

// DefaultMinPeriod is the wall-clock publication throttle used when
// Publisher.MinPeriod is zero: snapshots are assembled at most four times
// a second no matter how many windows the engine retires.
const DefaultMinPeriod = 250 * time.Millisecond

// NodeStat is the per-node slice of a Snapshot.
type NodeStat struct {
	// Node is the node index.
	Node int `json:"node"`
	// Busy is the cumulative busy cycles charged to actors on the node.
	Busy int64 `json:"busy"`
	// InjBacklog is the node's injection-port backlog at snapshot time,
	// in cycles: how far the port's busy-until horizon runs past the
	// current window start. Zero for an idle port.
	InjBacklog int64 `json:"inj_backlog"`
}

// JobStat is one scheduler job's row in a Snapshot, filled by the
// scheduler's publish hook when a job scheduler is driving the machine.
type JobStat struct {
	// ID is the scheduler-assigned job number.
	ID int `json:"id"`
	// Name, Tenant and Class echo the job spec.
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	// State is the reconcile-loop state name (pending, admitted, placed,
	// running, done, failed).
	State string `json:"state"`
	// FirstLane and Lanes describe the placed partition (zero while the
	// job is queued).
	FirstLane int `json:"first_lane"`
	Lanes     int `json:"lanes"`
	// SubmitCycle, StartCycle and DoneCycle are simulated-time marks;
	// Start/Done are -1 until the transition happens.
	SubmitCycle int64 `json:"submit_cycle"`
	StartCycle  int64 `json:"start_cycle"`
	DoneCycle   int64 `json:"done_cycle"`
	// JobTotals are the job's attribution counters at the snapshot
	// barrier.
	metrics.JobTotals
	// AllocBytes is the DRAM footprint the job's build phase allocated
	// (gasmem owner tagging; replicas included).
	AllocBytes int64 `json:"alloc_bytes"`
}

// Snapshot is one immutable observation of a running simulation,
// published at a window barrier. All counters are cumulative since the
// engine was built (they accumulate across multi-phase Runs).
type Snapshot struct {
	// Seq increments with every published snapshot.
	Seq int64 `json:"seq"`
	// Done is true for the final snapshot published when Run returns.
	Done bool `json:"done"`
	// SimTime is the window-start cycle the snapshot was taken at (the
	// run's final time once Done).
	SimTime int64 `json:"sim_time"`
	// MaxTime is the configured simulated-time bound.
	MaxTime int64 `json:"max_time"`
	// WallNanos is wall time elapsed since BeginRun.
	WallNanos int64 `json:"wall_nanos"`
	// Windows counts engine beats (window barriers / scheduler rounds).
	Windows int64 `json:"windows"`
	// CyclesPerSec is the window-advance rate: simulated cycles per wall
	// second between the previous published snapshot and this one. Zero
	// on the first snapshot.
	CyclesPerSec float64 `json:"cycles_per_sec"`

	// Totals is the engine's counter record at the snapshot point.
	metrics.Totals

	// Pending is the number of messages queued in the engine at the
	// snapshot point, including messages parked behind busy actors.
	Pending int `json:"pending"`

	// Repl is the replication-layer counter set, filled by the updown
	// layer's publish hook when the machine uses replicated placement.
	Repl metrics.ReplCounts `json:"repl"`

	// Nodes holds one entry per machine node, indexed by node.
	Nodes []NodeStat `json:"nodes"`

	// Jobs holds one row per scheduler job (submitted so far), filled by
	// the scheduler's publish hook; empty for single-job runs.
	Jobs []JobStat `json:"jobs,omitempty"`

	// Queries holds one row per point-query kind, filled by the serving
	// layer's publish hook; empty when no query server drives the machine.
	Queries []QueryStat `json:"queries,omitempty"`
}

// QueryStat is one query kind's serving-state row in a Snapshot, filled
// by the serve package's publish hook.
type QueryStat struct {
	// Kind is the point-engine kind ("bfs", "ppr").
	Kind string `json:"kind"`
	// Served and Shed count resolved and admission-dropped queries.
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
	// Queued and Inflight are the instantaneous waiting-room depth and
	// in-engine query count.
	Queued   int `json:"queued"`
	Inflight int `json:"inflight"`
	// SlotsBusy of the engine's Slots are running a query at this
	// instant; Inflight above it are finished queries waiting for the next
	// harvest boundary.
	SlotsBusy int `json:"slots_busy"`
	Slots     int `json:"slots"`
	// Batches counts launch groups (boundaries at which the kind posted
	// queries); FusedPerBatch is the mean number of queries per group.
	Batches       int64   `json:"batches"`
	FusedPerBatch float64 `json:"fused_per_batch"`
	// P50Ms / P99Ms are sojourn-latency percentiles over all resolved
	// queries, in simulated milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// ETASeconds estimates the wall seconds remaining until SimTime reaches
// bound (typically MaxTime or a known target) at the current
// window-advance rate. It returns -1 when no rate is available.
func (s *Snapshot) ETASeconds(bound int64) float64 {
	if s.Done || bound <= s.SimTime {
		return 0
	}
	if s.CyclesPerSec <= 0 {
		return -1
	}
	return float64(bound-s.SimTime) / s.CyclesPerSec
}

// Publisher is the handoff point between one engine and any number of
// concurrent observers. Engine-side methods (BeginRun, Beat, Touch,
// Publish, FinishRun) must only be called from quiesced engine contexts
// — the engine guarantees this; see the package comment. Observer-side
// methods (Latest, Profile, LastBeat, RequestDump, RequestStop) are safe
// from any goroutine at any time.
//
// The zero value is usable; fields must be set before the run starts.
type Publisher struct {
	// MinPeriod throttles snapshot assembly to at most one per period of
	// wall time; zero selects DefaultMinPeriod. Dump requests bypass the
	// throttle (the next beat publishes immediately).
	MinPeriod time.Duration
	// Dump, when non-nil, is invoked in the quiesced engine context when
	// a dump has been requested (RequestDump, typically from a SIGUSR1
	// handler): it may read the live metrics/trace recorders and write
	// partial artifacts to disk without stopping the run.
	Dump func(*Snapshot) error
	// Logf, when non-nil, receives diagnostics (dump errors).
	Logf func(format string, args ...any)

	// hooks enrich every snapshot before publication (OnPublish).
	hooks []func(*Snapshot)

	snap atomic.Pointer[Snapshot]
	prof atomic.Pointer[metrics.Profile]

	// beatWall/beatSim are stamped on every engine beat; the watchdog
	// watches beatWall to detect a wedged engine.
	beatWall atomic.Int64
	beatSim  atomic.Int64

	dumpReq  atomic.Int64
	dumpDone atomic.Int64
	stopReq  atomic.Bool

	// The fields below are only touched from quiesced engine contexts.
	start    time.Time
	lastPub  time.Time
	prevSim  int64
	prevWall time.Time
	seq      int64
	windows  int64
}

// OnPublish adds a hook that enriches every snapshot just before
// publication; hooks run in the order they were added. The updown layer
// adds one filling Snapshot.Repl from the memory controllers, the job
// scheduler and the query server one each for their rows. Hooks run in
// the quiesced engine context, so they may read simulation state the
// engine owns. Add them before the run starts.
func (p *Publisher) OnPublish(fn func(*Snapshot)) { p.hooks = append(p.hooks, fn) }

// BeginRun marks the start (or continuation) of a Run. The first call
// anchors the wall clock for WallNanos.
func (p *Publisher) BeginRun() {
	now := time.Now()
	if p.start.IsZero() {
		p.start = now
	}
	p.beatWall.Store(now.UnixNano())
}

// Beat records one engine heartbeat at simTime and reports whether the
// engine should assemble and Publish a snapshot now: true when the
// publication throttle has elapsed or a dump is pending. Called once per
// window barrier / scheduler round.
func (p *Publisher) Beat(simTime int64) bool {
	now := time.Now()
	p.beatWall.Store(now.UnixNano())
	p.beatSim.Store(simTime)
	p.windows++
	if p.dumpReq.Load() > p.dumpDone.Load() {
		return true
	}
	per := p.MinPeriod
	if per <= 0 {
		per = DefaultMinPeriod
	}
	return now.Sub(p.lastPub) >= per
}

// Touch stamps the heartbeat wall clock without a full beat. The worker
// pool's lock-free extension phase calls it (concurrently, from several
// shards) so a long barrier-free span does not look like a stall to the
// watchdog.
func (p *Publisher) Touch() {
	p.beatWall.Store(time.Now().UnixNano())
}

// BarrierWanted reports whether an observer has requested something that
// needs a quiesced point (a dump or a stop). The extension phase polls
// it and falls back to the barrier protocol when set.
func (p *Publisher) BarrierWanted() bool {
	return p.stopReq.Load() || p.dumpReq.Load() > p.dumpDone.Load()
}

// Publish completes a snapshot (hook enrichment, sequence number, rate)
// and exposes it via pointer swap. If a dump is pending it runs the Dump
// callback before returning. Quiesced engine context only.
func (p *Publisher) Publish(s *Snapshot) {
	now := time.Now()
	if !p.start.IsZero() {
		s.WallNanos = now.Sub(p.start).Nanoseconds()
	}
	s.Windows = p.windows
	for _, fn := range p.hooks {
		fn(s)
	}
	if !p.prevWall.IsZero() {
		if dt := now.Sub(p.prevWall).Seconds(); dt > 0 && s.SimTime > p.prevSim {
			s.CyclesPerSec = float64(s.SimTime-p.prevSim) / dt
		}
	}
	p.prevWall, p.prevSim = now, s.SimTime
	p.lastPub = now
	s.Seq = p.seq
	p.seq++
	p.snap.Store(s)
	if req := p.dumpReq.Load(); req > p.dumpDone.Load() {
		if p.Dump != nil {
			if err := p.Dump(s); err != nil && p.Logf != nil {
				p.Logf("telemetry: dump failed: %v", err)
			}
		}
		p.dumpDone.Store(req)
	}
}

// SetProfile exposes a cloned partial profile (metrics.Recorder.
// PartialProfile) for the /profile endpoint and the watchdog. The clone
// is immutable once stored; observers render it without touching the
// live recorder. Quiesced engine context only.
func (p *Publisher) SetProfile(prof *metrics.Profile) {
	p.prof.Store(prof)
}

// FinishRun stamps a final heartbeat after the engine published its Done
// snapshot, so observers never see a stale beat from a finished run.
func (p *Publisher) FinishRun() {
	p.beatWall.Store(time.Now().UnixNano())
}

// Latest returns the most recently published snapshot, or nil before the
// first publication. The snapshot is immutable; callers must not modify
// it. Safe from any goroutine.
func (p *Publisher) Latest() *Snapshot {
	return p.snap.Load()
}

// Profile returns the most recently exposed partial profile clone, or
// nil. Safe from any goroutine.
func (p *Publisher) Profile() *metrics.Profile {
	return p.prof.Load()
}

// LastBeat returns the wall time and sim time of the engine's most
// recent heartbeat (zero values before the run starts). Safe from any
// goroutine.
func (p *Publisher) LastBeat() (time.Time, int64) {
	w := p.beatWall.Load()
	if w == 0 {
		return time.Time{}, 0
	}
	return time.Unix(0, w), p.beatSim.Load()
}

// RequestDump asks the engine to flush partial artifacts at its next
// quiesced point (via the Dump callback). Multiple requests before the
// next beat coalesce into one dump. Safe from any goroutine.
func (p *Publisher) RequestDump() {
	p.dumpReq.Add(1)
}

// RequestStop asks the engine to stop at its next quiesced point; Run
// then returns sim.ErrInterrupted with all in-flight messages parked in
// the engine, exactly like a timeout. Safe from any goroutine.
func (p *Publisher) RequestStop() {
	p.stopReq.Store(true)
}

// StopRequested reports whether RequestStop has been called.
func (p *Publisher) StopRequested() bool {
	return p.stopReq.Load()
}
