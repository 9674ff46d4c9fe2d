package harness

import (
	"fmt"
	"io"
	"time"

	"updown"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// ChaosOptions configures the fault-injection resilience sweep: one BFS
// workload run at increasing message-drop rates with the resilient
// shuffle, validating that application results never change and measuring
// what the recovery protocol costs.
type ChaosOptions struct {
	// Scale is log2 of the vertex count.
	Scale int
	// Nodes is the application node count. When FailStop is set, one
	// extra spare node is added to the machine and fail-stopped mid-run —
	// the application's lanes and data stay on the first Nodes nodes, so
	// losing the spare must not change results.
	Nodes int
	// DropRates is the sweep axis; a leading 0 row is forced so every
	// faulted row validates against the fault-free result.
	DropRates []float64
	// DupProb and DelayProb/DelayCycles apply on every faulted row.
	DupProb     float64
	DelayProb   float64
	DelayCycles arch.Cycles
	// Seed drives the graph generator, FaultSeed the fault verdicts.
	Seed      uint64
	FaultSeed uint64
	// FailStop adds a spare node and kills it mid-run on faulted rows.
	FailStop bool
	// Shards, CritPath, MaxTime and Progress are the shared sweep options
	// (see sweep).
	Shards   int
	CritPath bool
	MaxTime  arch.Cycles
	Progress io.Writer
}

// ChaosRow is one fault rate's measurement.
type ChaosRow struct {
	// DropRate is the per-message drop probability of this row.
	DropRate float64
	// Cycles is the simulated duration of the measured region.
	Cycles arch.Cycles
	// Goodput is useful work per simulated second: first-delivery
	// traversed edges over elapsed time (GTEPS). Retransmissions and
	// duplicates consume fabric bandwidth but never count.
	Goodput float64
	// Recovery is the extra makespan versus the fault-free row — the
	// latency cost of detecting and repairing the injected faults.
	Recovery arch.Cycles
	// Fault-injection counters for the row.
	Dropped, Dupped, DeadLetters int64
	// Protocol counters: retransmissions, tuples rejected by the dedup
	// window, straggler re-kick rounds.
	Retries, DupDrops, Rekicks int64
	// CritPct is the causal critical-path fraction (0 when not traced).
	CritPct float64
}

// ChaosTable is the chaos sweep's result: goodput and recovery latency
// versus fault rate, every row validated bit-exact against row zero.
type ChaosTable struct {
	Workload string
	Rows     []ChaosRow
	Notes    []string
}

func (t *ChaosTable) render(markdown bool) string {
	cols := []column[ChaosRow]{
		{"drop", "", -10, ".3f", func(r *ChaosRow) any { return r.DropRate }},
		{"cycles", "", 14, "d", func(r *ChaosRow) any { return r.Cycles }},
		{"goodput-GTEPS", "goodput GTEPS", 14, ".4f", func(r *ChaosRow) any { return r.Goodput }},
		{"recovery", "", 12, "d", func(r *ChaosRow) any { return r.Recovery }},
		{"dropped", "", 10, "d", func(r *ChaosRow) any { return r.Dropped }},
		{"dupped", "", 10, "d", func(r *ChaosRow) any { return r.Dupped }},
		{"retries", "", 10, "d", func(r *ChaosRow) any { return r.Retries }},
		{"dup-drops", "", 10, "d", func(r *ChaosRow) any { return r.DupDrops }},
		{"rekicks", "", 10, "d", func(r *ChaosRow) any { return r.Rekicks }},
	}
	if anyRow(t.Rows, func(r *ChaosRow) bool { return r.CritPct != 0 }) {
		cols = append(cols, critColumn(func(r *ChaosRow) float64 { return r.CritPct }))
	}
	return render(markdown, "Chaos sweep: resilient BFS under message faults — "+t.Workload, t.Rows, cols, t.Notes)
}

// Format renders the table as aligned text.
func (t *ChaosTable) Format() string { return t.render(false) }

// Markdown renders the table as a GitHub table (EXPERIMENTS.md).
func (t *ChaosTable) Markdown() string { return t.render(true) }

// ChaosBFS runs the chaos sweep: BFS with the resilient shuffle at every
// requested drop rate (plus a mandatory fault-free row), asserting that
// distances, round count and traversed-edge count are identical to the
// fault-free run at every rate, and reporting goodput, recovery latency
// and protocol-counter columns.
func ChaosBFS(opt ChaosOptions) (*ChaosTable, error) {
	orDefault(&opt.Scale, 12)
	orDefault(&opt.Nodes, 2)
	orDefaultList(&opt.DropRates, 0.01, 0.02, 0.05, 0.10)
	orDefault(&opt.DupProb, 0.02)
	orDefault(&opt.Seed, 42)
	orDefault(&opt.FaultSeed, 1)
	const root = paperRoot
	if err := Validate(opt.Scale, root, Positive("nodes", opt.Nodes), Addressable(arch.DefaultMachine(0), opt.Nodes)); err != nil {
		return nil, err
	}
	s := sweep{Shards: opt.Shards, CritPath: opt.CritPath, MaxTime: opt.MaxTime, Progress: opt.Progress}
	g, err := graph.BuildPreset("rmat", opt.Scale, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	machNodes := opt.Nodes
	if opt.FailStop {
		machNodes++ // the spare that dies
	}
	ar := arch.DefaultMachine(machNodes)
	w := bfsApp.workload(g, AppConfig{Lanes: kvmsr.LaneSet{First: 0, Count: opt.Nodes * ar.LanesPerNode()}, Root: root}, false)

	tb := &ChaosTable{
		Workload: fmt.Sprintf("rmat s%d (%d vertices, %d edges, root %d), %d nodes, dup=%.3g",
			opt.Scale, g.N, g.NumEdges(), root, opt.Nodes, opt.DupProb),
	}

	var golden *appOutput // the fault-free row's distances, rounds and traversed edges

	rates := append([]float64{0}, opt.DropRates...)
	for _, rate := range rates {
		var plan *fault.Plan
		if rate > 0 {
			plan = &fault.Plan{Seed: opt.FaultSeed, Rules: []fault.MsgRule{{
				DropProb: rate, DupProb: opt.DupProb,
				DelayProb: opt.DelayProb, DelayCycles: opt.DelayCycles,
				SrcNode: fault.AnyNode, DstNode: fault.AnyNode,
			}}}
			if opt.FailStop {
				// Kill the spare once the fault-free run would be halfway
				// done: protocol traffic is in full flight at that point.
				plan.FailStops = []fault.FailStop{{Node: machNodes - 1, At: tb.Rows[0].Cycles / 2}}
			}
		}
		m, err := updown.New(s.config(updown.Config{Arch: &ar, Fault: plan, Resilience: &kvmsr.Resilience{}}))
		if err != nil {
			return nil, err
		}
		j, err := w.start(m, graph.DefaultPlacement(opt.Nodes))
		if err != nil {
			return nil, err
		}
		progressf(s.Progress, "chaos-bfs drop=%.3g: running", rate)
		wall := time.Now()
		stats, err := j.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos bfs drop=%.3g: %w", rate, err)
		}
		progressf(s.Progress, "chaos-bfs drop=%.3g: done in %.1fs", rate, time.Since(wall).Seconds())
		res := j.output()
		if golden == nil {
			golden = &res
		} else if res.rounds != golden.rounds || res.work != golden.work {
			return nil, fmt.Errorf("chaos bfs drop=%.3g: rounds/traversed %d/%.0f, fault-free %d/%.0f",
				rate, res.rounds, res.work, golden.rounds, golden.work)
		} else if err := golden.diff(res); err != nil {
			return nil, fmt.Errorf("chaos bfs drop=%.3g vs fault-free: %w", rate, err)
		}
		if out := j.Outstanding(); out != 0 {
			return nil, fmt.Errorf("chaos bfs drop=%.3g: %d emits unacked after quiescence", rate, out)
		}
		rt := j.ResilienceTotals()
		row := ChaosRow{
			DropRate:    rate,
			Cycles:      j.Elapsed(),
			Goodput:     res.work / m.Seconds(j.Elapsed()) / 1e9,
			Dropped:     stats.Faults.Dropped,
			Dupped:      stats.Faults.Dupped,
			DeadLetters: stats.Faults.DeadLetters,
			Retries:     rt.Retries,
			DupDrops:    rt.DupDrops,
			Rekicks:     rt.Rekicks,
			CritPct:     critPct(m),
		}
		if len(tb.Rows) > 0 {
			row.Recovery = row.Cycles - tb.Rows[0].Cycles
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"distances, rounds and traversed edges bit-identical to the fault-free row at every rate")
	if opt.FailStop {
		tb.Notes = append(tb.Notes,
			fmt.Sprintf("faulted rows also fail-stop spare node %d mid-run", machNodes-1))
	}
	return tb, nil
}
