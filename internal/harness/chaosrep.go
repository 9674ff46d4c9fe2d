package harness

import (
	"fmt"
	"io"
	"math"

	"updown"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// ChaosRepOptions configures the replicated-memory chaos run: each
// workload runs once fault-free and once with a data-carrying node
// fail-stopped mid-run, on a machine whose global memory uses k-way
// replicated placement. The faulted run must complete with output
// matching the fault-free run — the replicas absorb the loss — and the
// sweep reports what the failover and backfill cost.
//
// Topology: four data nodes carry every allocation (the largest
// power-of-two span), application lanes run on the first two, node 3 is
// the victim — it serves DRAM but hosts no application lane, so killing
// it strands replicated data and nothing else — and node 4 is a spare
// that holds no data until backfill.
type ChaosRepOptions struct {
	// Scale is log2 of the vertex count.
	Scale int
	// Rep is the replication factor k (>= 2).
	Rep int
	// Seed drives the graph generator.
	Seed uint64
	// Spare backfills the victim's data onto the spare node instead of
	// healing the victim in place.
	Spare bool
	// Apps selects workloads from bfs, pagerank, tc (default all three).
	Apps []string
	// Shards, MaxTime and Progress are the shared sweep options (see
	// sweep); each workload runs, and reports progress, twice: clean,
	// then faulted.
	Shards   int
	MaxTime  arch.Cycles
	Progress io.Writer
}

// Fixed topology of the replicated chaos run (see ChaosRepOptions).
const (
	chaosRepDataNodes = 4
	chaosRepAppNodes  = 2
	chaosRepVictim    = 3
	chaosRepSpare     = 4
	chaosRepMachNodes = 5
)

// ChaosRepRow is one workload's clean-versus-faulted measurement.
type ChaosRepRow struct {
	App string
	// CleanCycles and FaultCycles are the two runs' makespans; TaxPct is
	// the relative slowdown the failover imposed.
	CleanCycles, FaultCycles arch.Cycles
	TaxPct                   float64
	// FailStopAt is when the victim died (half the clean makespan).
	FailStopAt arch.Cycles
	// Failovers counts in-flight DRAM messages rerouted by the engine
	// after the victim died; FallbackReads counts read words served by a
	// non-primary replica; DeadLetters must be zero (no message, and so
	// no data, was lost).
	Failovers, FallbackReads, DeadLetters int64
	// Hints and HintWords are the missed writes queued for the victim;
	// RepairedWords is what anti-entropy still had to copy after the
	// hints drained (zero for write-once or integer data healed in
	// place).
	Hints, HintWords int
	RepairedWords    uint64
	// Repl is the faulted run's replication summary as read back from the
	// metrics profile (fo=failovers fb=fallback-reads hq=hints-queued) —
	// the same counters the direct columns carry, but routed through
	// Profile/Summarize, so the table doubles as a cross-check of that
	// plumbing.
	Repl string
	// Match describes how the faulted output compared to fault-free.
	Match string
}

// ChaosRepTable is the replicated chaos run's result.
type ChaosRepTable struct {
	Workload string
	Rows     []ChaosRepRow
	Notes    []string
}

func (t *ChaosRepTable) render(markdown bool) string {
	cols := []column[ChaosRepRow]{
		{"app", "", -10, "s", func(r *ChaosRepRow) any { return r.App }},
		{"clean-cyc", "clean cyc", 12, "d", func(r *ChaosRepRow) any { return r.CleanCycles }},
		{"fault-cyc", "fault cyc", 12, "d", func(r *ChaosRepRow) any { return r.FaultCycles }},
		{"tax%", "", 8, ".2f", func(r *ChaosRepRow) any { return r.TaxPct }},
		{"failstop@", "", 12, "d", func(r *ChaosRepRow) any { return r.FailStopAt }},
		{"failover", "failovers", 9, "d", func(r *ChaosRepRow) any { return r.Failovers }},
		{"fallback", "fallback reads", 10, "d", func(r *ChaosRepRow) any { return r.FallbackReads }},
		{"deadltr", "dead letters", 8, "d", func(r *ChaosRepRow) any { return r.DeadLetters }},
		{"hints", "", 7, "d", func(r *ChaosRepRow) any { return r.Hints }},
		{"hint-words", "hint words", 10, "d", func(r *ChaosRepRow) any { return r.HintWords }},
		{"repaired", "", 9, "d", func(r *ChaosRepRow) any { return r.RepairedWords }},
		{"repl", "", -22, "s", func(r *ChaosRepRow) any { return r.Repl }},
		{"match", "", 0, "s", func(r *ChaosRepRow) any { return r.Match }},
	}
	return render(markdown, "Replicated-memory chaos: mid-run fail-stop of a data node — "+t.Workload, t.Rows, cols, t.Notes)
}

// Format renders the table as aligned text.
func (t *ChaosRepTable) Format() string { return t.render(false) }

// Markdown renders the table as a GitHub table (EXPERIMENTS.md).
func (t *ChaosRepTable) Markdown() string { return t.render(true) }

// chaosRepOutcome is what one run of one workload produced.
type chaosRepOutcome struct {
	m      *updown.Machine
	cycles arch.Cycles
	stats  updown.Stats
	out    appOutput
}

// chaosRepRun builds a machine and runs one workload on the fixed
// replicated chaos topology. failAt == 0 means a fault-free run.
func chaosRepRun(opt ChaosRepOptions, w *workload, failAt arch.Cycles) (*chaosRepOutcome, error) {
	ar := arch.DefaultMachine(chaosRepMachNodes)
	var plan *fault.Plan
	if failAt > 0 {
		plan = &fault.Plan{Seed: 1, FailStops: []fault.FailStop{{Node: chaosRepVictim, At: failAt}}}
	}
	// The metrics recorder rides along so the run's profile carries the
	// replication counters (Profile.Repl, the repl: line) the table's repl
	// column is read from.
	s := sweep{Shards: opt.Shards, MaxTime: opt.MaxTime, Profile: true}
	m, err := updown.New(s.config(updown.Config{Arch: &ar, Fault: plan, Replication: opt.Rep, Resilience: &kvmsr.Resilience{}}))
	if err != nil {
		return nil, err
	}
	// 4 KiB blocks (not the 32 KiB default) so chaos-scale graphs still
	// stripe across all four data nodes — the victim must carry data.
	j, err := w.start(m, graph.Placement{FirstNode: 0, NRNodes: chaosRepDataNodes, BlockBytes: 4 << 10})
	if err != nil {
		return nil, err
	}
	stats, err := j.Run()
	if err != nil {
		return nil, err
	}
	return &chaosRepOutcome{m: m, cycles: j.Elapsed(), stats: stats, out: j.output()}, nil
}

// chaosRepMatch compares a faulted run's output against the fault-free
// golden, returning a human-readable verdict or an error on mismatch.
// BFS distances and TC totals must be bit-identical (idempotent-min and
// integer-sum state is insensitive to delivery order); PageRank's float
// sums depend on arrival order, which the failover's extra hop shifts,
// so ranks are compared to a tight relative epsilon and reported
// bit-exact when they happen to agree.
func chaosRepMatch(clean, faulted appOutput) (string, error) {
	for v, c := range clean.dist {
		if faulted.dist[v] != c {
			return "", fmt.Errorf("bfs: distance[%d] = %d, fault-free %d", v, faulted.dist[v], c)
		}
	}
	if faulted.total != clean.total {
		return "", fmt.Errorf("tc: total = %d, fault-free %d", faulted.total, clean.total)
	}
	const eps = 1e-9
	verdict := "bit-exact"
	for v, c := range clean.ranks {
		if f := faulted.ranks[v]; c != f {
			verdict = fmt.Sprintf("rel<=%.0e", eps)
			if d := math.Abs(c - f); d > eps*math.Max(math.Abs(c), 1) {
				return "", fmt.Errorf("pagerank: rank[%d] = %g, fault-free %g (rel %g)", v, f, c, d/math.Max(math.Abs(c), 1))
			}
		}
	}
	return verdict, nil
}

// ChaosReplicated runs each selected workload fault-free and with the
// victim node fail-stopped halfway through, asserting correct output and
// zero data loss, then backfills the victim (in place, or onto the spare
// node) and verifies the replicas converge.
func ChaosReplicated(opt ChaosRepOptions) (*ChaosRepTable, error) {
	orDefault(&opt.Scale, 10)
	orDefault(&opt.Rep, 2)
	orDefault(&opt.Seed, 42)
	orDefaultList(&opt.Apps, "bfs", "pagerank", "tc")
	if opt.Rep < 2 {
		return nil, fmt.Errorf("chaosrep: replication factor %d, need >= 2 to survive a fail-stop", opt.Rep)
	}
	if err := Validate(opt.Scale, paperRoot); err != nil {
		return nil, err
	}
	g, err := graph.BuildPreset("rmat", opt.Scale, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	lanes := chaosRepAppNodes * arch.DefaultMachine(chaosRepMachNodes).LanesPerNode()
	cfg := AppConfig{Lanes: kvmsr.LaneSet{First: 0, Count: lanes}, Root: paperRoot, Iters: 1}
	// spare is Backfill's destination (-1 = heal the victim in place);
	// target is whichever node then holds the victim's stripes.
	heal, spare, target := "in place", -1, chaosRepVictim
	if opt.Spare {
		heal, spare, target = fmt.Sprintf("onto spare node %d", chaosRepSpare), chaosRepSpare, chaosRepSpare
	}
	tb := &ChaosRepTable{
		Workload: fmt.Sprintf("rmat s%d, k=%d, %d data nodes, lanes on %d, victim node %d, healed %s",
			opt.Scale, opt.Rep, chaosRepDataNodes, chaosRepAppNodes, chaosRepVictim, heal),
	}
	for _, app := range opt.Apps {
		a := LookupApp(app)
		if a == nil {
			return nil, fmt.Errorf("chaosrep: unknown app %q", app)
		}
		split := a.Split
		if a == prApp {
			// This run keeps PageRank on the plain 256 cap rather than the
			// Fig. 9 spread split; its recorded cycle counts depend on it.
			split = bfsApp.Split
		}
		w := &workload{app: a, split: split(g, prMaxDeg), cfg: cfg}
		progressf(opt.Progress, "chaosrep %s: clean run", app)
		clean, err := chaosRepRun(opt, w, 0)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s clean: %w", app, err)
		}
		failAt := clean.cycles / 2
		progressf(opt.Progress, "chaosrep %s: faulted run (fail-stop node %d at cycle %d)", app, chaosRepVictim, failAt)
		faulted, err := chaosRepRun(opt, w, failAt)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s failstop@%d: %w", app, failAt, err)
		}
		match, err := chaosRepMatch(clean.out, faulted.out)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s failstop@%d: %w", app, failAt, err)
		}
		if dl := faulted.stats.Faults.DeadLetters; dl != 0 {
			return nil, fmt.Errorf("chaosrep %s: %d dead-lettered messages — data was lost", app, dl)
		}
		var fallback int64
		for _, c := range faulted.m.Ctrls {
			fallback += c.FallbackReads
		}
		// The same counters, read back through the metrics profile: the
		// recorder observed them when Machine.Run finished, so the profile
		// must agree with the direct controller sums above.
		p := faulted.m.Metrics.Profile()
		if p.Repl.FallbackReads != fallback {
			return nil, fmt.Errorf("chaosrep %s: profile fallback-reads %d != controller sum %d", app, p.Repl.FallbackReads, fallback)
		}
		repl := fmt.Sprintf("fo=%d fb=%d hq=%d", p.Faults.Failovers, p.Repl.FallbackReads, p.Repl.HintsQueued)
		bf, err := faulted.m.Backfill(chaosRepVictim, spare)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s backfill: %w", app, err)
		}
		// Whichever node now holds the victim's stripes, a second
		// anti-entropy pass must find nothing left to fix.
		if w := faulted.m.GAS.Repair(target); w != 0 {
			return nil, fmt.Errorf("chaosrep %s: %d words still divergent after backfill", app, w)
		}
		row := ChaosRepRow{
			App: app, CleanCycles: clean.cycles, FaultCycles: faulted.cycles,
			TaxPct:      100 * (float64(faulted.cycles)/float64(clean.cycles) - 1),
			FailStopAt:  failAt,
			Failovers:   faulted.stats.Faults.Failovers,
			DeadLetters: faulted.stats.Faults.DeadLetters, FallbackReads: fallback,
			Hints: bf.Hints, HintWords: bf.HintWords, RepairedWords: bf.RepairedWords,
			Repl:  repl,
			Match: match,
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"faulted outputs validated against the fault-free run; dead-letters asserted zero (no data loss)",
		"repaired = words anti-entropy copied after hint drain; a second pass always finds zero")
	return tb, nil
}
