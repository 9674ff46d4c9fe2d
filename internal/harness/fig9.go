package harness

import (
	"fmt"
	"io"
	"strconv"

	"updown"
	"updown/internal/arch"
	"updown/internal/graph"
)

// Fig9Options configures the strong-scaling sweeps of Figure 9.
type Fig9Options struct {
	// Scale is log2 of the vertex count (paper: 25-29; default here is
	// laptop-scale).
	Scale int
	// Nodes is the machine-size sweep.
	Nodes []int
	// Presets selects workloads by name (see graph.Presets).
	Presets []string
	// Seed drives the generators.
	Seed uint64
	// Iterations for PageRank.
	Iterations int
	// Validate cross-checks every run against the host baseline.
	Validate bool
	// Shards, Profile, CritPath, Coalesce, MaxTime and Progress are the
	// shared sweep options (see sweep); Coalesce also shows in the msgs
	// and tup/msg columns.
	Shards                      int
	Profile, CritPath, Coalesce bool
	MaxTime                     arch.Cycles
	Progress                    io.Writer
}

// Fig9PageRank regenerates Figure 9 (left) / Table 8: PageRank strong
// scaling. The metric is simulated giga-updates per second (one update
// per edge per iteration).
func Fig9PageRank(opt Fig9Options) ([]*Table, error) {
	return fig9(opt, prApp, "Figure 9 (left) / Table 8", 16, []string{"rmat", "erdos-renyi", "forest-fire", "twitter"})
}

// Fig9BFS regenerates Figure 9 (center) / Table 9: BFS strong scaling.
// The metric is simulated giga-traversed-edges per second.
func Fig9BFS(opt Fig9Options) ([]*Table, error) {
	return fig9(opt, bfsApp, "Figure 9 (center) / Table 9", 16, []string{"rmat", "com-orkut", "soc-livej"})
}

// Fig9TC regenerates Figure 9 (right) / Table 10: triangle counting strong
// scaling. The metric is mega-intersection-operations per second.
func Fig9TC(opt Fig9Options) ([]*Table, error) {
	return fig9(opt, tcApp, "Figure 9 (right) / Table 10", 11, []string{"friendster", "com-orkut", "soc-livej", "rmat"})
}

// fig9 sweeps the machine size for app a, one table per preset graph.
func fig9(opt Fig9Options, a *GraphApp, figure string, scale int, presets []string) ([]*Table, error) {
	orDefault(&opt.Scale, scale)
	orDefaultList(&opt.Nodes, 1, 2, 4, 8, 16)
	orDefaultList(&opt.Presets, presets...)
	orDefault(&opt.Seed, 42)
	orDefault(&opt.Iterations, 1)
	cfg := func(preset string) AppConfig {
		c := AppConfig{Iters: opt.Iterations}
		if a == bfsApp && preset != "erdos-renyi" { // the paper roots ER graphs at 0
			c.Root = paperRoot
		}
		return c
	}
	for _, name := range opt.Presets {
		if err := Validate(opt.Scale, cfg(name).Root, Positive("nodes", opt.Nodes...), Positive("iters", opt.Iterations),
			Addressable(arch.DefaultMachine(0), opt.Nodes...)); err != nil {
			return nil, err
		}
	}
	s := sweep{Shards: opt.Shards, Profile: opt.Profile, CritPath: opt.CritPath, Coalesce: opt.Coalesce,
		MaxTime: opt.MaxTime, Progress: opt.Progress, shuffle: true}
	var tables []*Table
	for _, name := range opt.Presets {
		g, err := graph.BuildPreset(name, opt.Scale, opt.Seed, a.symmetrize)
		if err != nil {
			return nil, err
		}
		w := a.workload(g, cfg(name), opt.Validate)
		tb := &Table{
			Title:      fmt.Sprintf("%s: %s strong scaling", figure, a.long),
			Workload:   fmt.Sprintf("%s s%d (%d vertices, %d edges%s)", name, opt.Scale, g.N, g.NumEdges(), a.detail(w.cfg)),
			MetricName: a.metric,
		}
		for _, nodes := range opt.Nodes {
			if _, err := s.graphPoint(tb, w, "fig9-"+a.name+" "+name, fmt.Sprintf("nodes=%d", nodes), strconv.Itoa(nodes),
				updown.Config{Nodes: nodes}, graph.DefaultPlacement(nodes)); err != nil {
				return nil, err
			}
		}
		tb.FillSpeedups()
		if opt.Validate {
			tb.Notes = append(tb.Notes, a.validated(*w.want))
		}
		tables = append(tables, tb)
	}
	return tables, nil
}
