package harness

import (
	"fmt"
	"io"

	"updown"
	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/graph"
)

// Fig12Options configures the data-placement sweep.
type Fig12Options struct {
	// ComputeNodes is the fixed machine size (the paper fixes 64).
	ComputeNodes int
	// MemNodes sweeps the DRAMmalloc NRnodes parameter.
	MemNodes []int
	// Scale is the PR/BFS graph scale.
	Scale int
	// DRAMBytesPerCycle overrides the per-node memory bandwidth. The
	// default reduces it so the reduced-scale graph sits in the same
	// memory-bound operating regime as the paper's scale-28 runs; pass
	// 4700 with a large Scale for the true parameter.
	DRAMBytesPerCycle int
	Seed              uint64
	// Reps, when non-empty, appends the replication extension: with the
	// memory-node count fixed at the largest swept value, every DRAMmalloc
	// is repeated at each listed replication factor and the tables gain
	// the tax% (makespan increase over k=1) and dramx (DRAM service-byte
	// multiple over k=1) columns — the price of the self-healing placement
	// when nothing fails. A leading 1 is implied; it is the baseline row.
	Reps []int
	// Shards, Profile, CritPath, MaxTime and Progress are the shared sweep
	// options (see sweep) — on this sweep the dram% column Profile adds is
	// the direct readout of the bandwidth knee the figure is about.
	Shards            int
	Profile, CritPath bool
	MaxTime           arch.Cycles
	Progress          io.Writer
}

// Fig12Placement regenerates Figure 12: the performance impact of the
// DRAMmalloc NRnodes parameter on PR (graph placement) and BFS (frontier
// and graph placement), holding compute fixed. Only the placement argument
// changes between rows — "only a single number was changed in a
// DRAMmalloc() call".
func Fig12Placement(opt Fig12Options) ([]*Table, error) {
	orDefault(&opt.ComputeNodes, 16)
	orDefaultList(&opt.MemNodes, 1, 2, 4, 8, 16)
	orDefault(&opt.Scale, 14)
	orDefault(&opt.DRAMBytesPerCycle, 100)
	orDefault(&opt.Seed, 42)
	if err := Validate(opt.Scale, paperRoot, Positive("compute", opt.ComputeNodes), Positive("mem", opt.MemNodes...),
		Positive("dram-bw", opt.DRAMBytesPerCycle), Positive("reps", opt.Reps...),
		Addressable(arch.DefaultMachine(0), opt.ComputeNodes)); err != nil {
		return nil, err
	}
	s := sweep{Shards: opt.Shards, Profile: opt.Profile, CritPath: opt.CritPath, MaxTime: opt.MaxTime, Progress: opt.Progress}
	g, err := graph.BuildPreset("rmat", opt.Scale, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	ar := arch.DefaultMachine(opt.ComputeNodes)
	ar.DRAMBytesPerCycle = opt.DRAMBytesPerCycle
	place := func(mem int) graph.Placement {
		return graph.Placement{FirstNode: 0, NRNodes: mem, BlockBytes: 32 << 10}
	}
	workloads := []*workload{
		prApp.workload(g, AppConfig{Iters: 1}, false),
		bfsApp.workload(g, AppConfig{Root: paperRoot}, false),
	}

	var tables []*Table
	for _, w := range workloads {
		tb := &Table{
			Title:      fmt.Sprintf("Figure 12: DRAMmalloc NRnodes sweep (%s, graph placement)", w.app.long),
			Workload:   fmt.Sprintf("rmat s%d, %d compute nodes, DRAM %dB/cycle/node", opt.Scale, opt.ComputeNodes, opt.DRAMBytesPerCycle),
			MetricName: w.app.metric,
		}
		for _, mem := range opt.MemNodes {
			point := fmt.Sprintf("mem=%d", mem)
			if _, err := s.graphPoint(tb, w, "fig12-"+w.app.name, point, point, updown.Config{Arch: &ar}, place(mem)); err != nil {
				return nil, err
			}
		}
		tb.FillSpeedups()
		tb.Notes = append(tb.Notes,
			"per-node bandwidth reduced to keep the reduced-scale graph memory-bound, matching the paper's s28 operating point")
		tables = append(tables, tb)
	}
	if len(opt.Reps) == 0 {
		return tables, nil
	}

	// The replication extension: the memory-node count is pinned at the
	// largest swept value and only the machine's replication factor changes
	// between rows, so the cycle and DRAM-byte deltas are the pure cost of
	// fanning every global write out to k replicas. Metrics are forced on —
	// the dramx column is the point of the table.
	s.Profile = true
	mem := opt.MemNodes[len(opt.MemNodes)-1]
	reps := []int{1}
	for _, k := range opt.Reps {
		if k > reps[len(reps)-1] {
			reps = append(reps, k)
		}
	}
	if mx := gasmem.FloorPow2(mem); reps[len(reps)-1] > mx {
		return nil, fmt.Errorf("fig12: replication factor %d exceeds the %d-node placement", reps[len(reps)-1], mx)
	}
	for _, w := range workloads {
		tb := &Table{
			Title:      fmt.Sprintf("Figure 12 extension: replication tax (%s, k-way replicated placement)", w.app.long),
			Workload:   fmt.Sprintf("rmat s%d, %d compute nodes, mem=%d, DRAM %dB/cycle/node", opt.Scale, opt.ComputeNodes, mem, opt.DRAMBytesPerCycle),
			MetricName: w.app.metric,
		}
		var dramBytes []float64
		for _, k := range reps {
			point := fmt.Sprintf("k=%d", k)
			m, err := s.graphPoint(tb, w, "fig12-rep "+w.app.name, point, point, updown.Config{Arch: &ar, Replication: k}, place(mem))
			if err != nil {
				return nil, err
			}
			if m == nil { // every row is relative to k=1, so a skipped one voids the table
				return nil, fmt.Errorf("fig12-rep %s %s: %s", w.app.name, point, tb.Notes[len(tb.Notes)-1])
			}
			var bytes int64
			prof := m.Metrics.Profile()
			for n := range prof.Nodes {
				bytes += prof.Nodes[n].Totals().DRAMBytes
			}
			dramBytes = append(dramBytes, float64(bytes))
		}
		tb.FillSpeedups()
		for i := range tb.Rows {
			tb.Rows[i].TaxPct = 100 * (float64(tb.Rows[i].Cycles)/float64(tb.Rows[0].Cycles) - 1)
			if dramBytes[0] > 0 {
				tb.Rows[i].DRAMx = dramBytes[i] / dramBytes[0]
			}
		}
		tb.Notes = append(tb.Notes,
			"tax% is the makespan increase and dramx the DRAM service-byte multiple, both over the k=1 row; writes fan out to k replicas, reads are served by one stripe")
		tables = append(tables, tb)
	}
	return tables, nil
}
