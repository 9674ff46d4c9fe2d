package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"updown"
	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/prng"
	"updown/internal/sched"
)

// FigSchedOptions configures the multi-tenant scheduler sweep: an
// open-loop Poisson arrival process of mixed jobs (application, tenant,
// priority class, lane request) against one resident machine, swept over
// offered load.
type FigSchedOptions struct {
	// Nodes is the machine size (default 8).
	Nodes int
	// AccelsPerNode/LanesPerAccel shrink the per-node geometry from the
	// paper's 32x64 so multi-job sweeps finish at workstation scale
	// (defaults 4 and 16: 64 lanes per node). Zero keeps the default.
	AccelsPerNode, LanesPerAccel int
	// Scale is log2 of each tenant graph's vertex count (default 9).
	Scale int
	// Jobs is the number of submissions per load point (default 24).
	Jobs int
	// Loads are the offered loads as mean interarrival gaps in cycles
	// (default {24000, 12000, 6000, 3000}: sparse to saturating).
	Loads []int64
	// Seed drives arrivals and the job mix.
	Seed uint64
	// Quantum is the scheduler reconcile interval (default 4096 cycles).
	Quantum arch.Cycles
	// MaxQueue bounds the admission queue (default 64).
	MaxQueue int
	// Verify replays every completed job solo — fresh machine, pinned to
	// the same partition, posted at the same cycle — and fails the sweep
	// unless outputs, completion cycles and attributed counters are
	// bit-identical to the concurrent run.
	Verify bool
	// Shards and Progress are the shared sweep options (see sweep).
	// Every reported number is simulated-time only, so results are
	// byte-identical at any shard count; progress is one line per load
	// point.
	Shards   int
	Progress io.Writer
}

// SchedRow is one load point of the sweep. All values are pure functions
// of the simulated timeline.
type SchedRow struct {
	// MeanGapCycles is the offered load knob: mean Poisson interarrival.
	MeanGapCycles int64 `json:"mean_gap_cycles"`
	// OfferedJobsPerSec is the arrival rate in simulated jobs/second.
	OfferedJobsPerSec float64 `json:"offered_jobs_per_sec"`
	Jobs              int     `json:"jobs"`
	DoneJobs          int     `json:"done_jobs"`
	RejectedJobs      int     `json:"rejected_jobs"`
	// JobsPerSec is the completion throughput over the makespan.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// P50Ms / P99Ms are sojourn-latency percentiles (arrival to exact
	// in-sim completion) in simulated milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// LaneUtilPct integrates lanes-held over the makespan against the
	// whole machine's lane-time.
	LaneUtilPct float64 `json:"lane_util_pct"`
	// MakespanCycles spans the first arrival to the last completion;
	// makespanMs is the same span in simulated milliseconds.
	MakespanCycles int64 `json:"makespan_cycles"`
	makespanMs     float64
	// MaxConcurrent is the peak number of jobs simultaneously placed.
	MaxConcurrent int `json:"max_concurrent"`
	// Tenants is the per-tenant accounting at this load point.
	Tenants []sched.TenantUsage `json:"tenants"`
}

// FigSchedResult is the sweep output (cmd/fig/testdata/sched.json).
type FigSchedResult struct {
	Nodes         int        `json:"nodes"`
	LanesPerNode  int        `json:"lanes_per_node"`
	Scale         int        `json:"scale"`
	Jobs          int        `json:"jobs"`
	Seed          uint64     `json:"seed"`
	QuantumCycles int64      `json:"quantum_cycles"`
	Rows          []SchedRow `json:"rows"`
	// Verified is the number of solo-replayed jobs that matched the
	// concurrent run bit-for-bit (only set when Verify was requested).
	Verified int `json:"verified,omitempty"`
}

// Format renders the sweep as the aligned text table cmd/fig prints.
func (r *FigSchedResult) Format() string {
	return render(false, fmt.Sprintf("figsched: %d nodes x %d lanes, %d jobs/load, scale %d, seed %d",
		r.Nodes, r.LanesPerNode, r.Jobs, r.Scale, r.Seed), r.Rows, []column[SchedRow]{
		{"gap(cyc)", "", 10, "d", func(r *SchedRow) any { return r.MeanGapCycles }},
		{"offered/s", "", 10, ".1f", func(r *SchedRow) any { return r.OfferedJobsPerSec }},
		{"jobs/s", "", 8, ".1f", func(r *SchedRow) any { return r.JobsPerSec }},
		{"done", "", 5, "d", func(r *SchedRow) any { return r.DoneJobs }},
		{"rej", "", 5, "d", func(r *SchedRow) any { return r.RejectedJobs }},
		{"p50(ms)", "", 10, ".4f", func(r *SchedRow) any { return r.P50Ms }},
		{"p99(ms)", "", 10, ".4f", func(r *SchedRow) any { return r.P99Ms }},
		{"util%", "", 10, ".2f", func(r *SchedRow) any { return r.LaneUtilPct }},
		{"maxconc", "", 7, "d", func(r *SchedRow) any { return r.MaxConcurrent }},
		{"mkspan", "", 6, ".2fms", func(r *SchedRow) any { return r.makespanMs }},
	}, nil)
}

// schedApps are the applications the job mix draws from.
var schedApps = []*GraphApp{bfsApp, prApp}

// schedProto is one generated submission, reusable across load points
// and solo replays (the Build closure is derived from it per machine).
type schedProto struct {
	spec  sched.JobSpec
	app   *GraphApp
	graph int
	root  uint32
}

func (p *schedProto) build(splits []*graph.SplitGraph) func(*updown.Machine, sched.Partition) (sched.Workload, error) {
	split := splits[p.graph]
	return func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
		dg, err := graph.LoadToGAS(m.GAS, split, schedPlacement(part))
		if err != nil {
			return nil, err
		}
		j, err := p.app.Start(m, dg, AppConfig{Lanes: part.Lanes, Root: p.root % uint32(split.OrigN), Iters: 1})
		if err != nil {
			return nil, err // not j: a nil *GraphJob is a non-nil Workload
		}
		return j, nil
	}
}

// poissonGap draws one exponential interarrival with the given mean,
// quantized to cycles: the open-loop arrival process of the scheduler and
// serving sweeps.
func poissonGap(rng *prng.Stream, mean int64) updown.Cycles {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return updown.Cycles(-math.Log(u) * float64(mean))
}

// latencyMs sorts lat and returns its quantile picker: the num/den order
// statistic in simulated milliseconds (0 when nothing completed).
func latencyMs(m *updown.Machine, lat []updown.Cycles) func(num, den int) float64 {
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return func(num, den int) float64 {
		if len(lat) == 0 {
			return 0
		}
		return m.Seconds(lat[min(len(lat)*num/den, len(lat)-1)]) * 1e3
	}
}

// schedPlacement stripes a job's arrays over its own partition only.
func schedPlacement(part sched.Partition) graph.Placement {
	return graph.Placement{FirstNode: part.FirstNode,
		NRNodes: gasmem.FloorPow2(part.NumNodes), BlockBytes: 32 << 10}
}

// FigSched runs the scheduler sweep: for each offered load, one resident
// machine executes the whole Poisson-arriving job mix concurrently under
// the multi-tenant scheduler.
func FigSched(opt FigSchedOptions) (*FigSchedResult, error) {
	orDefault(&opt.Nodes, 8)
	orDefault(&opt.AccelsPerNode, 4)
	orDefault(&opt.LanesPerAccel, 16)
	orDefault(&opt.Scale, 9)
	orDefault(&opt.Jobs, 24)
	orDefaultList(&opt.Loads, 24000, 12000, 6000, 3000)
	orDefault(&opt.Seed, 42)
	orDefault(&opt.Quantum, 4096)
	orDefault(&opt.MaxQueue, 64)
	ar := arch.DefaultMachine(opt.Nodes)
	ar.AccelsPerNode = opt.AccelsPerNode
	ar.LanesPerAccel = opt.LanesPerAccel
	if err := Validate(opt.Scale, 0, Positive("nodes", opt.Nodes), Positive("accels", opt.AccelsPerNode),
		Positive("lanes", opt.LanesPerAccel), Addressable(ar, opt.Nodes), Positive("jobs", opt.Jobs), Positive("loads", opt.Loads...)); err != nil {
		return nil, err
	}
	lpn := ar.LanesPerNode()

	// One graph per tenant, shared read-only across all load points.
	tenants := []string{"acme", "globex", "initech"}
	splits := make([]*graph.SplitGraph, len(tenants))
	for i := range tenants {
		g := graph.FromEdges(1<<opt.Scale, graph.DefaultRMAT(opt.Scale, opt.Seed+uint64(i)), graph.BuildOptions{
			Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
		splits[i] = graph.Split(g, 64)
	}

	res := &FigSchedResult{Nodes: opt.Nodes, LanesPerNode: lpn, Scale: opt.Scale,
		Jobs: opt.Jobs, Seed: opt.Seed, QuantumCycles: int64(opt.Quantum)}
	newMachine := func() (*updown.Machine, error) {
		return updown.New(sweep{Shards: opt.Shards, Profile: true}.config(updown.Config{Arch: &ar}))
	}

	maxJobNodes := max(opt.Nodes/2, 1)
	for _, gap := range opt.Loads {
		// The job mix is a deterministic function of (seed, gap): the
		// arrival process changes with load, the per-job identity mix
		// does not need to.
		rng := prng.NewStream(opt.Seed ^ uint64(gap))
		protos := make([]*schedProto, opt.Jobs)
		arrive := updown.Cycles(0)
		for i := range protos {
			t := rng.Intn(len(tenants))
			p := &schedProto{app: schedApps[rng.Intn(2)], graph: t, root: uint32(rng.Next() >> 40)}
			p.spec = sched.JobSpec{
				Name:   fmt.Sprintf("j%02d", i),
				Tenant: tenants[t],
				Class:  sched.Class(rng.Intn(3)),
				Lanes:  (1 + rng.Intn(maxJobNodes)) * lpn,
				Arrive: arrive,
			}
			arrive += poissonGap(rng, gap)
			protos[i] = p
		}

		m, err := newMachine()
		if err != nil {
			return nil, err
		}
		s := sched.New(m, sched.Config{Quantum: opt.Quantum, MaxQueue: opt.MaxQueue})
		for _, p := range protos {
			spec := p.spec
			spec.Build = p.build(splits)
			if _, err := s.Submit(spec); err != nil {
				return nil, fmt.Errorf("figsched gap=%d submit %s: %w", gap, spec.Name, err)
			}
		}
		progressf(opt.Progress, "figsched gap=%d: running %d jobs", gap, opt.Jobs)
		if err := s.Run(); err != nil {
			return nil, fmt.Errorf("figsched gap=%d: %w", gap, err)
		}

		row := buildSchedRow(m, s, gap)
		res.Rows = append(res.Rows, row)
		progressf(opt.Progress, "figsched gap=%d: %d done, %.1f jobs/s, p99 %.3f ms",
			gap, row.DoneJobs, row.JobsPerSec, row.P99Ms)

		if opt.Verify {
			n, err := verifySolo(s, protos, splits, newMachine, opt.Quantum, opt.MaxQueue)
			if err != nil {
				return nil, fmt.Errorf("figsched gap=%d: %w", gap, err)
			}
			res.Verified += n
		}
	}
	return res, nil
}

// buildSchedRow derives the load point's row from the finished timeline.
func buildSchedRow(m *updown.Machine, s *sched.Scheduler, gap int64) SchedRow {
	row := SchedRow{MeanGapCycles: gap,
		OfferedJobsPerSec: 1 / m.Seconds(updown.Cycles(gap)),
		Jobs:              len(s.Jobs()),
		Tenants:           s.TenantReport()}
	var latencies []updown.Cycles
	var firstArrive, lastDone updown.Cycles
	var laneCycles int64
	type edge struct {
		at    updown.Cycles
		delta int
	}
	var edges []edge
	first := true
	for _, j := range s.Jobs() {
		if first || j.Spec.Arrive < firstArrive {
			firstArrive = j.Spec.Arrive
			first = false
		}
		switch j.State {
		case sched.Done:
			row.DoneJobs++
			latencies = append(latencies, j.Latency())
			if j.DoneAt > lastDone {
				lastDone = j.DoneAt
			}
			laneCycles += int64(j.Part.Lanes.Count) * int64(j.DoneAt-j.PostedAt)
			edges = append(edges, edge{j.PostedAt, 1}, edge{j.DoneAt, -1})
		case sched.Failed:
			row.RejectedJobs++
		}
	}
	if lastDone > firstArrive {
		row.MakespanCycles = int64(lastDone - firstArrive)
		sec := m.Seconds(lastDone - firstArrive)
		row.makespanMs = sec * 1e3
		row.JobsPerSec = float64(row.DoneJobs) / sec
		row.LaneUtilPct = 100 * float64(laneCycles) /
			(float64(row.MakespanCycles) * float64(m.Arch.TotalLanes()))
	}
	pick := latencyMs(m, latencies)
	row.P50Ms, row.P99Ms = pick(50, 100), pick(99, 100)
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].delta < edges[b].delta
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		if cur > row.MaxConcurrent {
			row.MaxConcurrent = cur
		}
	}
	return row
}

// verifySolo replays each completed job alone — fresh machine, pinned
// partition, same post cycle — and demands a bit-identical fingerprint.
func verifySolo(s *sched.Scheduler, protos []*schedProto, splits []*graph.SplitGraph,
	newMachine func() (*updown.Machine, error), quantum arch.Cycles, maxQueue int) (int, error) {
	verified := 0
	for i, j := range s.Jobs() {
		if j.State != sched.Done {
			continue
		}
		spec := protos[i].spec
		spec.Build = protos[i].build(splits)
		spec.Pin = true
		spec.PinFirstNode = j.Part.FirstNode
		spec.Arrive = j.PostedAt - 1
		m2, err := newMachine()
		if err != nil {
			return verified, err
		}
		s2 := sched.New(m2, sched.Config{Quantum: quantum, MaxQueue: maxQueue})
		j2, err := s2.Submit(spec)
		if err != nil {
			return verified, err
		}
		if err := s2.Run(); err != nil {
			return verified, err
		}
		if j2.State != sched.Done {
			return verified, fmt.Errorf("solo replay of job %d (%s) failed: %v", j.ID, spec.Name, j2.Err)
		}
		if j2.PostedAt != j.PostedAt || j2.DoneAt != j.DoneAt || j2.Totals != j.Totals {
			return verified, fmt.Errorf("solo replay of job %d (%s) diverged: posted %d/%d done %d/%d totals %+v vs %+v",
				j.ID, spec.Name, j2.PostedAt, j.PostedAt, j2.DoneAt, j.DoneAt, j2.Totals, j.Totals)
		}
		if j2.AllocBytes != j.AllocBytes {
			return verified, fmt.Errorf("solo replay of job %d (%s): alloc %d bytes vs %d",
				j.ID, spec.Name, j2.AllocBytes, j.AllocBytes)
		}
		a, b := j.Output(), j2.Output()
		if len(a) != len(b) {
			return verified, fmt.Errorf("solo replay of job %d (%s): output length %d vs %d", j.ID, spec.Name, len(b), len(a))
		}
		for k := range a {
			if a[k] != b[k] {
				return verified, fmt.Errorf("solo replay of job %d (%s): output word %d differs: %#x vs %#x",
					j.ID, spec.Name, k, b[k], a[k])
			}
		}
		verified++
	}
	return verified, nil
}
