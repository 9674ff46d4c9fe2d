// Package sched is a multi-tenant job scheduler for a resident simulated
// UpDown machine: it accepts a stream of job submissions (application,
// graph, priority class, tenant, lane request), carves the machine into
// disjoint node-granular partitions, and executes many KVMSR jobs
// concurrently in one simulation run, each confined to its own lanes and
// memory controllers.
//
// The core is a reconcile loop in the style of declarative cluster
// managers: between bounded simulation slices (Machine.RunUntil quanta)
// the scheduler observes job state and drives every job toward its goal
// state through the chain
//
//	Pending → Admitted → Placed → Running → Done | Failed
//
// Admission controls the queue bound and the lane request; placement
// does first-fit over whole-node runs in strict priority order;
// completion is detected per job (the workload records its exact finish
// cycle in-simulation) instead of waiting for global quiescence, so a
// finished job's partition is released and re-coalesced while other jobs
// keep running.
//
// Determinism: every scheduling decision is a pure function of the
// submitted specs and the quantum boundaries. Job completion cycles are
// recorded in-simulation (shard-invariant), quantum boundaries are fixed
// host-side, and partitions are node-disjoint, so the whole multi-job
// timeline — including each job's measured latency and its output bytes
// — is identical at any shard count, and each job's output and in-sim
// duration are bit-identical to a solo run pinned to the same nodes.
package sched

import (
	"fmt"
	"sort"

	"updown"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/telemetry"
	"updown/internal/udweave"
)

// State is a job's position in the reconcile chain.
type State int

const (
	// Pending: submitted, arrival time not yet reached (or not yet
	// examined by the reconcile loop).
	Pending State = iota
	// Admitted: past admission control, queued for lanes.
	Admitted
	// Placed: partition assigned, program unit built, start event posted.
	Placed
	// Running: the start cycle has passed.
	Running
	// Done: the workload reported completion; partition released.
	Done
	// Failed: rejected at admission, build error, or stalled without
	// completing.
	Failed
)

var stateNames = [...]string{"pending", "admitted", "placed", "running", "done", "failed"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Class is a job priority class. Higher values place first; an arriving
// higher-class job may also displace a queued lower-class job when the
// admission queue is full.
type Class int

const (
	// Batch is the lowest class: capacity filler.
	Batch Class = iota
	// Production is the default class.
	Production
	// Interactive is the highest class: latency-sensitive work.
	Interactive
	numClasses
)

var classNames = [...]string{"batch", "production", "interactive"}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Partition is the machine share a placed job owns: a whole-node run and
// its lane range. Node granularity means no lanes, injection ports or
// DRAM controllers are shared with any concurrent job.
type Partition struct {
	FirstNode, NumNodes int
	Lanes               kvmsr.LaneSet
}

// Workload is the running face of a job, built by JobSpec.Build against
// the job's partition. Post queues the start event(s); Finished reports
// the exact in-simulation completion cycle once the workload's driver
// recorded it; Output returns the result words used for determinism
// digests (host-side, post-completion).
type Workload interface {
	Post(at updown.Cycles)
	Finished() (updown.Cycles, bool)
	Output() []uint64
}

// JobSpec describes one submission.
type JobSpec struct {
	Name   string
	Tenant string
	Class  Class
	// Lanes is the requested lane count; it is rounded up to whole nodes.
	Lanes int
	// Arrive is the simulated cycle the job arrives at the scheduler
	// (open-loop arrivals); 0 means immediately.
	Arrive updown.Cycles
	// Pin, when true, demands the exact node run starting at PinFirstNode
	// instead of first-fit — the solo-replay verification hook.
	Pin          bool
	PinFirstNode int
	// Build constructs the job's program unit (graph load, app, KVMSR
	// invocations) confined to the partition. It runs inside a udweave
	// scope so every label and slot it registers is recycled when the job
	// completes.
	Build func(m *updown.Machine, part Partition) (Workload, error)
}

// Job is the scheduler's record of one submission.
type Job struct {
	ID    int
	Spec  JobSpec
	State State
	Part  Partition
	Work  Workload
	// out is the workload's result snapshot, captured at completion —
	// before the job's DRAM regions are reclaimed, after which the
	// workload can no longer read them.
	out []uint64
	// PostedAt is the cycle the start event was posted for (-1 until
	// placed); DoneAt the exact in-sim completion cycle (-1 until done).
	PostedAt updown.Cycles
	DoneAt   updown.Cycles
	// Err holds the admission, build or stall error for Failed jobs.
	Err error
	// Totals is the job's attributed activity, filled at completion when
	// the machine has metrics enabled.
	Totals metrics.JobTotals
	// AllocBytes is the physical DRAM footprint the job's Build phase
	// allocated (replicas included), from gasmem owner tagging. It is
	// captured at build time; the regions themselves are reclaimed when
	// the job finishes, so the machine's live footprint tracks live jobs.
	AllocBytes uint64

	scope *udweave.Scope
}

// Output returns the result words the workload reported at completion
// (nil until Done). The snapshot is taken in finish, just before the
// job's DRAM regions are reclaimed, so it stays valid for determinism
// digests and solo-replay comparison after the memory is reused.
func (j *Job) Output() []uint64 { return j.out }

// Latency returns the job's sojourn time (arrival to completion) in
// simulated cycles, or -1 if not done.
func (j *Job) Latency() updown.Cycles {
	if j.State != Done {
		return -1
	}
	return j.DoneAt - j.Spec.Arrive
}

// Config tunes the scheduler.
type Config struct {
	// Quantum is the reconcile interval in simulated cycles (default
	// 4096): the loop alternates RunUntil(now+Quantum) with a reconcile
	// step. Smaller quanta tighten scheduling latency; results are
	// deterministic for any fixed value.
	Quantum updown.Cycles
	// MaxQueue bounds the admitted-but-unplaced queue (default 64).
	MaxQueue int
}

// labelHeadroom defers placement while the program's free label count is
// below it, so a job's Build can never exhaust the 12-bit label space
// mid-construction.
const labelHeadroom = 64

// TenantUsage is the per-tenant accounting row.
type TenantUsage struct {
	Tenant    string `json:"tenant"`
	Submitted int    `json:"submitted"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	// LaneCycles integrates lanes held × cycles held over completed jobs.
	LaneCycles int64 `json:"lane_cycles"`
	// AllocBytes sums the DRAM the tenant's placed jobs allocated.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Totals sums the attributed activity of the tenant's completed jobs
	// (zero when metrics are disabled).
	Totals metrics.JobTotals `json:"totals"`
}

// Scheduler executes jobs on one resident machine. Host-side, not
// goroutine-safe: Submit before or between Run calls, never during.
type Scheduler struct {
	m   *updown.Machine
	cfg Config

	jobs    []*Job // all submissions, by ID
	pending []*Job // future arrivals, sorted by (Arrive, ID)
	queue   []*Job // admitted, sorted by (Class desc, Arrive, ID)
	active  []*Job // placed/running, in placement order
	alloc   *nodeAlloc
	pace    *Pacer
	now     updown.Cycles
}

// New builds a scheduler for the machine. When the machine has a
// telemetry publisher, the scheduler adds a publish hook so every
// published snapshot carries a per-job row (state, tenant, lanes,
// progress counters).
func New(m *updown.Machine, cfg Config) *Scheduler {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4096
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	s := &Scheduler{m: m, cfg: cfg, alloc: newNodeAlloc(m.Arch.Nodes), pace: NewPacer(cfg.Quantum)}
	if m.Telemetry != nil {
		m.Telemetry.OnPublish(func(snap *telemetry.Snapshot) { snap.Jobs = s.JobStats() })
	}
	return s
}

// Now returns the scheduler's simulated frontier.
func (s *Scheduler) Now() updown.Cycles { return s.now }

// Jobs returns every submission, by ID.
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// nodesFor rounds a lane request up to whole nodes.
func (s *Scheduler) nodesFor(lanes int) int {
	lpn := s.m.Arch.LanesPerNode()
	return (lanes + lpn - 1) / lpn
}

// Submit validates a spec and enters it into the arrival stream. Specs
// that can never run are rejected immediately (ErrBadSpec,
// ErrLanesExhausted); queue-full rejections happen at arrival time and
// surface on the returned Job's Err.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	reject := func(reason error, detail string) error {
		return &AdmissionError{Job: spec.Name, Tenant: spec.Tenant, Reason: reason, Detail: detail}
	}
	if spec.Build == nil {
		return nil, reject(ErrBadSpec, "no Build function")
	}
	if spec.Lanes <= 0 {
		return nil, reject(ErrBadSpec, fmt.Sprintf("lane request %d must be positive", spec.Lanes))
	}
	if spec.Class < 0 || spec.Class >= numClasses {
		return nil, reject(ErrBadSpec, fmt.Sprintf("unknown class %d", int(spec.Class)))
	}
	if spec.Arrive < 0 {
		return nil, reject(ErrBadSpec, fmt.Sprintf("negative arrival %d", spec.Arrive))
	}
	nodes := s.nodesFor(spec.Lanes)
	if nodes > s.m.Arch.Nodes {
		return nil, reject(ErrLanesExhausted, fmt.Sprintf(
			"request %d lanes = %d nodes, machine has %d nodes", spec.Lanes, nodes, s.m.Arch.Nodes))
	}
	if spec.Pin && (spec.PinFirstNode < 0 || spec.PinFirstNode+nodes > s.m.Arch.Nodes) {
		return nil, reject(ErrBadSpec, fmt.Sprintf(
			"pinned nodes [%d,%d) outside machine of %d nodes", spec.PinFirstNode, spec.PinFirstNode+nodes, s.m.Arch.Nodes))
	}
	j := &Job{ID: len(s.jobs), Spec: spec, State: Pending, PostedAt: -1, DoneAt: -1}
	s.jobs = append(s.jobs, j)
	s.pending = append(s.pending, j)
	sort.SliceStable(s.pending, func(a, b int) bool {
		if s.pending[a].Spec.Arrive != s.pending[b].Spec.Arrive {
			return s.pending[a].Spec.Arrive < s.pending[b].Spec.Arrive
		}
		return s.pending[a].ID < s.pending[b].ID
	})
	return j, nil
}

// Run drives the reconcile loop until every submitted job is Done or
// Failed. It may be called again after further Submits; the simulated
// frontier only moves forward. Pacing — quantum grid, idle-gap jumps —
// lives in the shared Pacer, which the query-serving layer reuses.
func (s *Scheduler) Run() error {
	return s.pace.Drive(s.m, func(now updown.Cycles) (updown.Cycles, bool) {
		s.now = now
		s.reconcile()
		if len(s.pending) == 0 && len(s.queue) == 0 && len(s.active) == 0 {
			return 0, true
		}
		if len(s.active) == 0 && len(s.queue) == 0 && len(s.pending) > 0 {
			// Nothing running, nothing placeable: report the next arrival
			// so the pacer jumps the idle gap instead of pacing through
			// empty slices. The jump lands on the same quantum grid, so
			// it cannot change any scheduling decision.
			return s.pending[0].Spec.Arrive, false
		}
		return 0, false
	})
}

// reconcile is one host-side state-machine step at a quiesced point.
func (s *Scheduler) reconcile() {
	s.completions()
	s.arrivals()
	s.place()
}

// completions retires every active job whose workload recorded its
// finish cycle at or before the frontier.
func (s *Scheduler) completions() {
	kept := s.active[:0]
	for _, j := range s.active {
		if j.State == Placed && s.now >= j.PostedAt {
			j.State = Running
		}
		done, ok := j.Work.Finished()
		if ok && done <= s.now {
			s.finish(j, done)
			continue
		}
		kept = append(kept, j)
	}
	s.active = kept
	// A quiescent engine can execute nothing further. An active job that
	// recorded its finish cycle is then complete even though that cycle
	// lies past the frontier — its last event started inside the quantum
	// and its charged cycles end a little beyond the boundary — and no
	// later quantum is guaranteed to come and harvest it, so it is
	// harvested here, at the cycle it recorded. Running jobs without a
	// finish cycle stalled: nothing in the simulation can ever wake them
	// (jobs are partition-disjoint, and future arrivals only post events
	// to their own partitions). Fail them so the loop terminates instead
	// of spinning on empty quanta.
	if len(s.active) > 0 && s.now > 0 && s.m.Engine.Pending() == 0 {
		kept := s.active[:0]
		for _, j := range s.active {
			switch done, ok := j.Work.Finished(); {
			case ok:
				s.finish(j, done)
			case j.State == Running:
				s.fail(j, fmt.Errorf("sched: job %d (%s) went quiescent at cycle %d without completing", j.ID, j.Spec.Name, s.now))
			default:
				kept = append(kept, j)
			}
		}
		s.active = kept
	}
}

// finish moves a job to Done: collect attribution, retire its program
// unit, release its partition, and reclaim its DRAM regions so a
// long-lived machine's footprint tracks live jobs, not lifetime jobs
// (j.AllocBytes keeps the build-time figure for accounting).
func (s *Scheduler) finish(j *Job, done updown.Cycles) {
	j.DoneAt = done
	j.State = Done
	if s.m.Metrics != nil {
		j.Totals = s.m.Metrics.JobTotals(j.ID)
		s.m.Metrics.UnbindNodes(j.Part.FirstNode, j.Part.NumNodes)
	}
	j.out = j.Work.Output()
	s.m.Prog.Retire(j.scope)
	s.m.GAS.FreeOwner(ownerTag(j.ID))
	s.alloc.release(j.Part.FirstNode, j.Part.NumNodes)
}

// fail moves a placed job to Failed, releasing whatever it held.
func (s *Scheduler) fail(j *Job, err error) {
	j.Err = err
	j.State = Failed
	if j.scope != nil {
		s.m.Prog.Retire(j.scope)
		j.scope = nil
	}
	s.m.GAS.FreeOwner(ownerTag(j.ID))
	if j.Part.NumNodes > 0 {
		if s.m.Metrics != nil {
			s.m.Metrics.UnbindNodes(j.Part.FirstNode, j.Part.NumNodes)
		}
		s.alloc.release(j.Part.FirstNode, j.Part.NumNodes)
		j.Part = Partition{}
	}
}

// ownerTag maps a job ID to its gasmem owner tag. Job IDs start at 0 but
// tag 0 means "untagged" to the allocator, so jobs tag with ID+1 — that
// keeps job 0's footprint distinct from host-side machine state (resident
// graphs, scratch) and makes every job's regions reclaimable.
func ownerTag(jobID int) int { return jobID + 1 }

// arrivals admits every pending job whose arrival cycle has been
// reached, enforcing the queue bound with priority displacement: a full
// queue rejects the lowest-priority job among {queued ∪ arrival}.
func (s *Scheduler) arrivals() {
	for len(s.pending) > 0 && s.pending[0].Spec.Arrive <= s.now {
		j := s.pending[0]
		s.pending = s.pending[1:]
		if len(s.queue) >= s.cfg.MaxQueue {
			// Find the queue's worst job (lowest class, then latest
			// arrival, then highest ID — the inverse of placement order).
			w := s.queue[len(s.queue)-1]
			if w.Spec.Class < j.Spec.Class {
				s.queue = s.queue[:len(s.queue)-1]
				w.State = Failed
				w.Err = &AdmissionError{Job: w.Spec.Name, Tenant: w.Spec.Tenant, Reason: ErrQueueFull,
					Detail: fmt.Sprintf("displaced from full queue (%d) by higher-class job %d at cycle %d", s.cfg.MaxQueue, j.ID, s.now)}
			} else {
				j.State = Failed
				j.Err = &AdmissionError{Job: j.Spec.Name, Tenant: j.Spec.Tenant, Reason: ErrQueueFull,
					Detail: fmt.Sprintf("queue at bound %d at cycle %d", s.cfg.MaxQueue, s.now)}
				continue
			}
		}
		j.State = Admitted
		s.queue = append(s.queue, j)
		sort.SliceStable(s.queue, func(a, b int) bool {
			if s.queue[a].Spec.Class != s.queue[b].Spec.Class {
				return s.queue[a].Spec.Class > s.queue[b].Spec.Class
			}
			if s.queue[a].Spec.Arrive != s.queue[b].Spec.Arrive {
				return s.queue[a].Spec.Arrive < s.queue[b].Spec.Arrive
			}
			return s.queue[a].ID < s.queue[b].ID
		})
	}
}

// place assigns partitions in strict priority order. The head of the
// queue blocks lower-priority work: no backfilling, so a high-class job
// can never be starved by a stream of small low-class ones.
func (s *Scheduler) place() {
	for len(s.queue) > 0 {
		j := s.queue[0]
		if s.m.Prog.FreeLabels() < labelHeadroom {
			return // wait for a completion to recycle label space
		}
		nodes := s.nodesFor(j.Spec.Lanes)
		var first int
		if j.Spec.Pin {
			if !s.alloc.allocAt(j.Spec.PinFirstNode, nodes) {
				return
			}
			first = j.Spec.PinFirstNode
		} else {
			var ok bool
			if first, ok = s.alloc.alloc(nodes); !ok {
				return
			}
		}
		s.queue = s.queue[1:]
		lpn := s.m.Arch.LanesPerNode()
		part := Partition{FirstNode: first, NumNodes: nodes,
			Lanes: kvmsr.LaneSet{First: updown.NetworkID(first * lpn), Count: nodes * lpn}}
		sc := s.m.Prog.Begin(fmt.Sprintf("job-%d:%s", j.ID, j.Spec.Name))
		prevOwner := s.m.GAS.SetOwner(ownerTag(j.ID))
		w, err := j.Spec.Build(s.m, part)
		s.m.GAS.SetOwner(prevOwner)
		s.m.Prog.End()
		j.AllocBytes = s.m.GAS.OwnerBytes(ownerTag(j.ID))
		if err != nil {
			j.scope = sc
			j.Part = part
			s.fail(j, fmt.Errorf("sched: job %d (%s) build: %w", j.ID, j.Spec.Name, err))
			continue
		}
		j.scope, j.Part, j.Work = sc, part, w
		if s.m.Metrics != nil {
			s.m.Metrics.BindJob(j.ID, first, nodes)
		}
		// Post strictly past the simulated frontier: after RunUntil(now)
		// every message at or before now has been processed, so now+1 is
		// pure future and the multi-job event order stays well defined.
		j.PostedAt = s.now + 1
		w.Post(j.PostedAt)
		j.State = Placed
		s.active = append(s.active, j)
	}
}

// TenantReport aggregates per-tenant accounting over all submissions,
// sorted by tenant name.
func (s *Scheduler) TenantReport() []TenantUsage {
	by := map[string]*TenantUsage{}
	order := []string{}
	get := func(name string) *TenantUsage {
		u := by[name]
		if u == nil {
			u = &TenantUsage{Tenant: name}
			by[name] = u
			order = append(order, name)
		}
		return u
	}
	for _, j := range s.jobs {
		u := get(j.Spec.Tenant)
		u.Submitted++
		switch j.State {
		case Done:
			u.Done++
			u.AllocBytes += j.AllocBytes
			u.LaneCycles += int64(j.Part.Lanes.Count) * int64(j.DoneAt-j.PostedAt)
			u.Totals.Add(j.Totals)
		case Failed:
			u.Failed++
		}
	}
	sort.Strings(order)
	out := make([]TenantUsage, len(order))
	for i, name := range order {
		out[i] = *by[name]
	}
	return out
}

// JobStats renders every submission as a telemetry row. It runs either
// host-side between runs or inside the telemetry publish hook (quiesced
// engine context), where reading the metrics recorder is race-free.
func (s *Scheduler) JobStats() []telemetry.JobStat {
	out := make([]telemetry.JobStat, len(s.jobs))
	for i, j := range s.jobs {
		st := telemetry.JobStat{
			ID: j.ID, Name: j.Spec.Name, Tenant: j.Spec.Tenant,
			Class: j.Spec.Class.String(), State: j.State.String(),
			SubmitCycle: int64(j.Spec.Arrive), StartCycle: int64(j.PostedAt), DoneCycle: int64(j.DoneAt),
		}
		if j.Part.NumNodes > 0 {
			st.FirstLane = int(j.Part.Lanes.First)
			st.Lanes = j.Part.Lanes.Count
		}
		st.AllocBytes = int64(j.AllocBytes)
		switch {
		case j.State == Done || j.State == Failed:
			st.JobTotals = j.Totals
		case (j.State == Running || j.State == Placed) && s.m.Metrics != nil:
			st.JobTotals = s.m.Metrics.JobTotals(j.ID)
		}
		out[i] = st
	}
	return out
}
