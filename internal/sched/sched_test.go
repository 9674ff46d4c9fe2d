package sched_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/prng"
	"updown/internal/sched"
	"updown/internal/telemetry"
	"updown/internal/udweave"
)

// testMachine builds a shrunken machine (2 accels x 8 lanes per node) so
// multi-job scheduling tests stay fast.
func testMachine(t *testing.T, nodes, shards int, withMetrics bool) *updown.Machine {
	t.Helper()
	ar := arch.DefaultMachine(nodes)
	ar.AccelsPerNode = 2
	ar.LanesPerAccel = 8
	cfg := updown.Config{Arch: &ar, Shards: shards, MaxTime: 1 << 42}
	if withMetrics {
		cfg.Metrics = &metrics.Options{}
	}
	m, err := updown.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// --- partition allocator ---

func TestNodeAllocator(t *testing.T) {
	// (The allocator is unexported; exercise it through the scheduler's
	// placement below, and through the dedicated hooks here.)
	m := testMachine(t, 8, 1, false)
	s := sched.New(m, sched.Config{Quantum: 1024})

	// Three 2-node jobs and one 2-node pinned job fill the machine
	// first-fit: [0,2) [2,4) [4,6), pin at [6,8).
	var parts []sched.Partition
	mk := func(name string, pin bool, pinAt int) {
		j, err := s.Submit(sched.JobSpec{
			Name: name, Tenant: "t", Lanes: 2 * m.Arch.LanesPerNode(),
			Pin: pin, PinFirstNode: pinAt,
			Build: func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
				parts = append(parts, part)
				return newTinyWork(m, part, 100), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = j
	}
	mk("a", false, 0)
	mk("b", false, 0)
	mk("c", false, 0)
	mk("d", true, 6)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wantFirst := []int{0, 2, 4, 6}
	if len(parts) != 4 {
		t.Fatalf("built %d partitions, want 4", len(parts))
	}
	for i, p := range parts {
		if p.FirstNode != wantFirst[i] || p.NumNodes != 2 {
			t.Errorf("partition %d = [%d,%d), want [%d,%d)", i, p.FirstNode, p.FirstNode+p.NumNodes, wantFirst[i], wantFirst[i]+2)
		}
		if int(p.Lanes.First) != p.FirstNode*m.Arch.LanesPerNode() || p.Lanes.Count != 2*m.Arch.LanesPerNode() {
			t.Errorf("partition %d lane set %+v inconsistent with nodes", i, p.Lanes)
		}
	}
	for _, j := range s.Jobs() {
		if j.State != sched.Done {
			t.Errorf("job %d state %v, want done: %v", j.ID, j.State, j.Err)
		}
	}

	// After completion every partition was released and re-coalesced: a
	// full-machine job must now fit in one piece.
	full, err := s.Submit(sched.JobSpec{
		Name: "full", Tenant: "t", Lanes: 8 * m.Arch.LanesPerNode(),
		Build: func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
			if part.FirstNode != 0 || part.NumNodes != 8 {
				t.Errorf("full job got [%d,%d), want the whole machine", part.FirstNode, part.FirstNode+part.NumNodes)
			}
			return newTinyWork(m, part, 100), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if full.State != sched.Done {
		t.Fatalf("full job state %v: %v", full.State, full.Err)
	}
}

// tinyWork is a minimal workload: one event that burns some cycles on
// the partition's first lane and records its completion cycle.
type tinyWork struct {
	m     *updown.Machine
	lanes kvmsr.LaneSet
	label udweave.Label
	done  updown.Cycles
	out   []uint64
}

func newTinyWork(m *updown.Machine, part sched.Partition, cost updown.Cycles) *tinyWork {
	w := &tinyWork{m: m, lanes: part.Lanes, out: []uint64{uint64(part.FirstNode)}}
	w.label = m.Prog.Define("tiny.run", func(c *updown.Ctx) {
		c.Cycles(int(cost))
		w.done = c.Now()
		c.YieldTerminate()
	})
	return w
}

func (w *tinyWork) Post(at updown.Cycles) {
	w.m.StartAt(at, updown.EvwNew(w.lanes.First, w.label))
}
func (w *tinyWork) Finished() (updown.Cycles, bool) { return w.done, w.done > 0 }
func (w *tinyWork) Output() []uint64                { return w.out }

// A job whose last event starts inside a quantum and ends one cycle past
// the boundary, with nothing else left in the engine, used to be failed
// as "went quiescent without completing": the frontier stood at the
// boundary, the recorded finish cycle one past it, and the engine was
// empty. It must be harvested at the cycle it recorded.
func TestCompletionJustPastQuantumBoundary(t *testing.T) {
	const quantum = 1024
	m := testMachine(t, 2, 1, false)
	s := sched.New(m, sched.Config{Quantum: quantum})
	var started updown.Cycles
	j, err := s.Submit(sched.JobSpec{Name: "edge", Tenant: "t", Lanes: m.Arch.LanesPerNode(),
		Build: func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
			w := &tinyWork{m: m, lanes: part.Lanes, out: []uint64{7}}
			w.label = m.Prog.Define("edge.run", func(c *updown.Ctx) {
				started = c.Now()
				c.Cycles(int(quantum + 1 - c.Now())) // ends at boundary+1
				w.done = c.Now()
				c.YieldTerminate()
			})
			return w, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if started >= quantum {
		t.Fatalf("event started at %d, not inside the first quantum", started)
	}
	if j.State != sched.Done {
		t.Fatalf("job state %v: %v", j.State, j.Err)
	}
	if j.DoneAt != quantum+1 {
		t.Fatalf("DoneAt = %d, want %d (the cycle the job recorded)", j.DoneAt, quantum+1)
	}
	if out := j.Output(); len(out) != 1 || out[0] != 7 {
		t.Fatalf("output %v", out)
	}
	if m.Engine.Pending() != 0 {
		t.Fatalf("%d messages pending after the last job", m.Engine.Pending())
	}
}

// --- admission error family ---

func TestAdmissionErrors(t *testing.T) {
	m := testMachine(t, 2, 1, false)
	s := sched.New(m, sched.Config{Quantum: 1024, MaxQueue: 1})
	okBuild := func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
		return newTinyWork(m, part, 200), nil
	}

	cases := []struct {
		name   string
		spec   sched.JobSpec
		reason error
	}{
		{"nil build", sched.JobSpec{Name: "x", Lanes: 8}, sched.ErrBadSpec},
		{"zero lanes", sched.JobSpec{Name: "x", Lanes: 0, Build: okBuild}, sched.ErrBadSpec},
		{"negative lanes", sched.JobSpec{Name: "x", Lanes: -3, Build: okBuild}, sched.ErrBadSpec},
		{"unknown class", sched.JobSpec{Name: "x", Lanes: 8, Class: sched.Class(9), Build: okBuild}, sched.ErrBadSpec},
		{"negative arrival", sched.JobSpec{Name: "x", Lanes: 8, Arrive: -1, Build: okBuild}, sched.ErrBadSpec},
		{"pin outside machine", sched.JobSpec{Name: "x", Lanes: 8, Pin: true, PinFirstNode: 7, Build: okBuild}, sched.ErrBadSpec},
		{"too many lanes", sched.JobSpec{Name: "x", Lanes: 3 * m.Arch.LanesPerNode(), Build: okBuild}, sched.ErrLanesExhausted},
	}
	for _, tc := range cases {
		_, err := s.Submit(tc.spec)
		if err == nil {
			t.Errorf("%s: Submit succeeded, want %v", tc.name, tc.reason)
			continue
		}
		if !errors.Is(err, sched.ErrAdmission) {
			t.Errorf("%s: error %v does not wrap ErrAdmission", tc.name, err)
		}
		if !errors.Is(err, tc.reason) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.reason)
		}
		var ae *sched.AdmissionError
		if !errors.As(err, &ae) {
			t.Errorf("%s: error %T is not *AdmissionError", tc.name, err)
		}
	}

	// Queue-full and priority displacement. MaxQueue is 1:
	//   A (production) arrives and queues;
	//   B (batch) arrives into the full queue, cannot displace -> rejected;
	//   C (interactive) arrives into the full queue, displaces A.
	lanes := 1 * m.Arch.LanesPerNode()
	a, err := s.Submit(sched.JobSpec{Name: "a", Tenant: "t1", Class: sched.Production, Lanes: lanes, Build: okBuild})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(sched.JobSpec{Name: "b", Tenant: "t2", Class: sched.Batch, Lanes: lanes, Build: okBuild})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Submit(sched.JobSpec{Name: "c", Tenant: "t3", Class: sched.Interactive, Lanes: lanes, Build: okBuild})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.State != sched.Failed || !errors.Is(a.Err, sched.ErrQueueFull) {
		t.Errorf("displaced job a: state %v err %v, want failed/queue-full", a.State, a.Err)
	}
	if b.State != sched.Failed || !errors.Is(b.Err, sched.ErrQueueFull) {
		t.Errorf("rejected job b: state %v err %v, want failed/queue-full", b.State, b.Err)
	}
	if c.State != sched.Done {
		t.Errorf("job c: state %v err %v, want done", c.State, c.Err)
	}

	// Build failures surface on the job, release the partition, and do
	// not poison later jobs.
	boom, err := s.Submit(sched.JobSpec{Name: "boom", Lanes: lanes,
		Build: func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
			return nil, fmt.Errorf("synthetic build failure")
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if boom.State != sched.Failed || boom.Err == nil {
		t.Errorf("boom: state %v err %v, want failed", boom.State, boom.Err)
	}
	after, err := s.Submit(sched.JobSpec{Name: "after", Lanes: 2 * lanes, Build: okBuild})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if after.State != sched.Done {
		t.Errorf("after: state %v err %v, want done (whole machine free again)", after.State, after.Err)
	}
}

// --- real applications under the scheduler ---

// bfsWork adapts a BFS app to the Workload interface.
type bfsWork struct{ app *bfs.App }

func (w bfsWork) Post(at updown.Cycles)           { w.app.PostAt(at) }
func (w bfsWork) Finished() (updown.Cycles, bool) { return w.app.Finished() }
func (w bfsWork) Output() []uint64 {
	return append(w.app.Distances(), w.app.Parents()...)
}

// prWork adapts a PageRank app.
type prWork struct{ app *pagerank.App }

func (w prWork) Post(at updown.Cycles)           { w.app.PostAt(at) }
func (w prWork) Finished() (updown.Cycles, bool) { return w.app.Finished() }
func (w prWork) Output() []uint64 {
	vals := w.app.Values()
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// partPlacement stripes a job's arrays over its own nodes only.
func partPlacement(part sched.Partition) graph.Placement {
	return graph.Placement{FirstNode: part.FirstNode,
		NRNodes: gasmem.FloorPow2(part.NumNodes), BlockBytes: 32 << 10}
}

func bfsBuild(split *graph.SplitGraph, root uint32) func(*updown.Machine, sched.Partition) (sched.Workload, error) {
	return func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
		dg, err := graph.LoadToGAS(m.GAS, split, partPlacement(part))
		if err != nil {
			return nil, err
		}
		app, err := bfs.New(m, dg, bfs.Config{Lanes: part.Lanes, Root: root})
		if err != nil {
			return nil, err
		}
		app.InitValues()
		return bfsWork{app}, nil
	}
}

func prBuild(split *graph.SplitGraph, iters int) func(*updown.Machine, sched.Partition) (sched.Workload, error) {
	return func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
		dg, err := graph.LoadToGAS(m.GAS, split, partPlacement(part))
		if err != nil {
			return nil, err
		}
		app, err := pagerank.New(m, dg, pagerank.Config{Lanes: part.Lanes, Iterations: iters})
		if err != nil {
			return nil, err
		}
		app.InitValues()
		return prWork{app}, nil
	}
}

func testSplit(scale int, seed uint64, maxDeg int) *graph.SplitGraph {
	n := 1 << scale
	g := graph.FromEdges(n, graph.DefaultRMAT(scale, seed), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	return graph.Split(g, maxDeg)
}

func digest(words []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		for i := 0; i < 8; i++ {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// jobFingerprint captures everything that must be invariant.
type jobFingerprint struct {
	firstNode  int
	postedAt   updown.Cycles
	doneAt     updown.Cycles
	totals     metrics.JobTotals
	allocBytes uint64
	outDigest  uint64
}

func fingerprint(j *sched.Job) jobFingerprint {
	return jobFingerprint{
		firstNode:  j.Part.FirstNode,
		postedAt:   j.PostedAt,
		doneAt:     j.DoneAt,
		totals:     j.Totals,
		allocBytes: j.AllocBytes,
		outDigest:  digest(j.Output()),
	}
}

// TestConcurrentMatchesSolo runs three jobs of different tenants and
// priority classes concurrently on one machine, then replays each job
// alone on a fresh machine, pinned to the same partition and posted at
// the same cycle. Output bytes, exact completion cycles and attributed
// counters must be bit-identical: node-disjoint partitions share
// nothing, so co-residents cannot perturb each other.
func TestConcurrentMatchesSolo(t *testing.T) {
	splitA := testSplit(7, 15, 8)
	splitB := testSplit(6, 99, 8)
	lpn := 16 // 2 accels x 8 lanes in testMachine

	specs := []sched.JobSpec{
		{Name: "bfs-a", Tenant: "acme", Class: sched.Interactive, Lanes: 2 * lpn, Build: bfsBuild(splitA, 3)},
		{Name: "pr-b", Tenant: "globex", Class: sched.Batch, Lanes: 1 * lpn, Build: prBuild(splitB, 1)},
		{Name: "bfs-c", Tenant: "acme", Class: sched.Production, Lanes: 1 * lpn, Arrive: 3000, Build: bfsBuild(splitB, 0)},
	}

	m := testMachine(t, 4, 2, true)
	s := sched.New(m, sched.Config{Quantum: 2048})
	for _, spec := range specs {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	concurrent := make([]jobFingerprint, len(specs))
	for i, j := range s.Jobs() {
		if j.State != sched.Done {
			t.Fatalf("job %d (%s) state %v: %v", j.ID, j.Spec.Name, j.State, j.Err)
		}
		concurrent[i] = fingerprint(j)
	}

	// The two arrive-at-0 jobs must have overlapped in simulated time.
	if concurrent[0].doneAt <= 0 || concurrent[1].postedAt >= concurrent[0].doneAt && concurrent[0].postedAt >= concurrent[1].doneAt {
		t.Fatalf("jobs did not overlap: %+v %+v", concurrent[0], concurrent[1])
	}

	// Solo replays: same partition (pinned), same post cycle (arrival at
	// the placement boundary reproduces PostedAt on the quantum grid).
	for i, spec := range specs {
		solo := spec
		solo.Pin = true
		solo.PinFirstNode = concurrent[i].firstNode
		solo.Arrive = concurrent[i].postedAt - 1
		m2 := testMachine(t, 4, 2, true)
		s2 := sched.New(m2, sched.Config{Quantum: 2048})
		j2, err := s2.Submit(solo)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Run(); err != nil {
			t.Fatal(err)
		}
		if j2.State != sched.Done {
			t.Fatalf("solo %s state %v: %v", spec.Name, j2.State, j2.Err)
		}
		if got := fingerprint(j2); got != concurrent[i] {
			t.Errorf("job %s solo run diverged:\n  solo       %+v\n  concurrent %+v", spec.Name, got, concurrent[i])
		}
	}

	// Tenant accounting: acme ran two jobs, globex one; attributed work
	// must be non-zero and lane-cycles consistent.
	rep := s.TenantReport()
	if len(rep) != 2 || rep[0].Tenant != "acme" || rep[1].Tenant != "globex" {
		t.Fatalf("tenant report %+v", rep)
	}
	if rep[0].Done != 2 || rep[1].Done != 1 {
		t.Errorf("tenant done counts %d/%d, want 2/1", rep[0].Done, rep[1].Done)
	}
	for _, u := range rep {
		if u.Totals.Busy <= 0 || u.Totals.Events <= 0 || u.LaneCycles <= 0 {
			t.Errorf("tenant %s has empty accounting: %+v", u.Tenant, u)
		}
	}
}

// TestSchedTelemetryJobs runs a concurrent mix observed by a telemetry
// publisher at every window: every submission has a row in the last
// snapshot, every Done row carries the job's attributed totals, and
// observing changes no job's post or completion cycle or output.
func TestSchedTelemetryJobs(t *testing.T) {
	splitA, splitB := testSplit(7, 15, 8), testSplit(6, 99, 8)
	lpn := 16 // 2 accels x 8 lanes, as testMachine
	run := func(pub *telemetry.Publisher) (*sched.Scheduler, []telemetry.JobStat) {
		ar := arch.DefaultMachine(4)
		ar.AccelsPerNode, ar.LanesPerAccel = 2, 8
		m, err := updown.New(updown.Config{Arch: &ar, Shards: 2, MaxTime: 1 << 42,
			Metrics: &metrics.Options{}, Telemetry: pub})
		if err != nil {
			t.Fatal(err)
		}
		s := sched.New(m, sched.Config{Quantum: 2048})
		var rows []telemetry.JobStat
		if pub != nil {
			pub.OnPublish(func(snap *telemetry.Snapshot) { rows = append(rows, snap.Jobs...) })
		}
		for _, spec := range []sched.JobSpec{
			{Name: "bfs-a", Tenant: "acme", Lanes: 2 * lpn, Build: bfsBuild(splitA, 3)},
			{Name: "pr-b", Tenant: "globex", Class: sched.Batch, Lanes: lpn, Build: prBuild(splitB, 1)},
			{Name: "bfs-c", Tenant: "acme", Lanes: lpn, Arrive: 9000, Build: bfsBuild(splitB, 0)},
		} {
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s, rows
	}
	pub := &telemetry.Publisher{MinPeriod: time.Nanosecond}
	observed, rows := run(pub)
	plain, _ := run(nil)
	if got := len(pub.Latest().Jobs); got != len(observed.Jobs()) {
		t.Errorf("last snapshot has %d job rows, want %d", got, len(observed.Jobs()))
	}
	done := 0
	for _, r := range append(rows, observed.JobStats()...) {
		if r.State != sched.Done.String() {
			continue
		}
		done++
		if j := observed.Jobs()[r.ID]; r.JobTotals != j.Totals {
			t.Errorf("job %d done row totals %+v, job totals %+v", r.ID, r.JobTotals, j.Totals)
		}
	}
	if done <= len(observed.Jobs()) {
		t.Errorf("%d done rows, want some published before the run ended", done)
	}
	for i, j := range observed.Jobs() {
		p := plain.Jobs()[i]
		if j.State != sched.Done || j.PostedAt != p.PostedAt || j.DoneAt != p.DoneAt || digest(j.Output()) != digest(p.Output()) {
			t.Errorf("job %s: observed %v posted %d done %d, unobserved %v posted %d done %d (or outputs differ)",
				j.Spec.Name, j.State, j.PostedAt, j.DoneAt, p.State, p.PostedAt, p.DoneAt)
		}
	}
}

// TestSchedulerShardDeterminism submits a prng-generated mix of jobs
// (apps, tenants, priority classes, staggered arrivals) and requires the
// complete per-job fingerprint set — placements, post cycles, exact
// completion cycles, attributed counters, output digests — to be
// byte-identical at shard counts 1, 2, 7 and GOMAXPROCS.
func TestSchedulerShardDeterminism(t *testing.T) {
	splits := []*graph.SplitGraph{testSplit(6, 7, 8), testSplit(6, 21, 8)}
	lpn := 16

	type protoJob struct {
		spec  sched.JobSpec
		app   int // 0 = bfs, 1 = pr
		graph int
		root  uint32
	}
	rng := prng.NewStream(0xfeed)
	tenants := []string{"acme", "globex", "initech"}
	protos := make([]protoJob, 6)
	arrive := updown.Cycles(0)
	for i := range protos {
		p := protoJob{app: rng.Intn(2), graph: rng.Intn(len(splits)), root: uint32(rng.Intn(32))}
		p.spec = sched.JobSpec{
			Name:   fmt.Sprintf("j%d", i),
			Tenant: tenants[rng.Intn(len(tenants))],
			Class:  sched.Class(rng.Intn(3)),
			Lanes:  (1 + rng.Intn(2)) * lpn,
			Arrive: arrive,
		}
		arrive += updown.Cycles(rng.Intn(8000))
		protos[i] = p
	}

	shardCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	var ref []jobFingerprint
	for _, shards := range shardCounts {
		m := testMachine(t, 3, shards, true)
		s := sched.New(m, sched.Config{Quantum: 2048})
		for _, p := range protos {
			spec := p.spec
			if p.app == 0 {
				spec.Build = bfsBuild(splits[p.graph], p.root%uint32(1<<6))
			} else {
				spec.Build = prBuild(splits[p.graph], 1)
			}
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := make([]jobFingerprint, len(protos))
		for i, j := range s.Jobs() {
			if j.State != sched.Done {
				t.Fatalf("shards=%d: job %d (%s) state %v: %v", shards, j.ID, j.Spec.Name, j.State, j.Err)
			}
			got[i] = fingerprint(j)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Errorf("shards=%d: job %d fingerprint diverged:\n  got %+v\n  ref %+v", shards, i, got[i], ref[i])
			}
		}
	}
}

// A long-lived machine serving a stream of jobs must not leak DRAM: every
// finished job's owner-tagged regions return to the gasmem free list, so
// per-node footprint is flat from the first job onward even though each
// build phase allocates fresh regions.
func TestFinishedJobsReclaimDRAM(t *testing.T) {
	m := testMachine(t, 2, 1, false)
	s := sched.New(m, sched.Config{Quantum: 1024})
	var highWater uint64
	for q := 0; q < 16; q++ {
		j, err := s.Submit(sched.JobSpec{
			Name: fmt.Sprintf("q%d", q), Tenant: "t", Lanes: m.Arch.LanesPerNode(),
			Build: func(m *updown.Machine, part sched.Partition) (sched.Workload, error) {
				n := gasmem.FloorPow2(part.NumNodes)
				if _, err := m.GAS.DRAMmalloc(1<<16, part.FirstNode, n, 1024); err != nil {
					return nil, err
				}
				return newTinyWork(m, part, 100), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if j.State != sched.Done {
			t.Fatalf("job %d state %v: %v", q, j.State, j.Err)
		}
		if j.AllocBytes == 0 {
			t.Fatalf("job %d: AllocBytes not captured at build time", q)
		}
		got := m.GAS.UsedBytes(0) + m.GAS.FreeBytes(0)
		if q == 0 {
			highWater = got
		} else if got != highWater {
			t.Fatalf("job %d: node 0 footprint %d, want flat %d", q, got, highWater)
		}
	}
}
