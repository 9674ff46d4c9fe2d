package harness

import (
	"fmt"
	"math"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/tc"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// appConfig is the per-run application knobs the sweeps vary.
type appConfig struct {
	lanes   kvmsr.LaneSet // zero = the whole machine
	root    uint32        // bfs
	iters   int           // pr
	combine bool          // pr, tc: install the app's combiner (needs Coalesce)
}

// appOutput is a graph application's result in the form its host oracle
// produces, plus work, the numerator of its throughput metric (edge
// updates, traversed edges, intersection operations).
type appOutput struct {
	ranks []float64 // pr
	dist  []uint64  // bfs, bfs.Unvisited where unreached
	total uint64    // tc wedge-closure total (3x the triangles)
	work  float64
}

// graphRun is a constructed, initialized graph application.
type graphRun struct {
	run     func() (updown.Stats, error)
	elapsed func() arch.Cycles
	output  func() appOutput
}

// graphApp is one KVMSR graph application as every sweep sees it: Fig. 9,
// both Fig. 12 sweeps, the replication-tax extension and the replicated
// chaos run all go through this table.
type graphApp struct {
	name, long string
	// metric names the throughput column; unit scales work/second into it.
	metric string
	unit   float64
	// symmetrize: Fig. 9 builds the preset undirected (the paper's
	// preprocessing default, which PR and TC use).
	symmetrize bool
	// split is the scale-matched degree cap of the paper's preprocessing.
	split  func(g *graph.Graph) *graph.SplitGraph
	start  func(m *updown.Machine, dg *graph.DeviceGraph, g *graph.Graph, c appConfig) (graphRun, error)
	oracle func(g *graph.Graph, c appConfig) appOutput
	// detail and validated word Fig. 9's workload line and validation note.
	detail    func(c appConfig) string
	validated func(want appOutput) string
}

var prApp = &graphApp{
	name: "pr", long: "PageRank", metric: "GUPS", unit: 1e9, symmetrize: true,
	// The paper splits PR inputs to max degree 512 at scale 28, where a
	// hub's member run spans several lanes' Block ranges; the scale-matched
	// cap keeps that property (cap ~= max degree x lanes / vertices). With
	// symmetrized input the cap bounds in-degree too, so both directions
	// are spread.
	split: func(g *graph.Graph) *graph.SplitGraph {
		return graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	},
	start: func(m *updown.Machine, dg *graph.DeviceGraph, g *graph.Graph, c appConfig) (graphRun, error) {
		a, err := pagerank.New(m, dg, pagerank.Config{Lanes: c.lanes, Iterations: c.iters, Combine: c.combine})
		if err != nil {
			return graphRun{}, err
		}
		a.InitValues()
		return graphRun{a.Run, a.Elapsed, func() appOutput {
			// One update per edge per iteration.
			return appOutput{ranks: a.Values(), work: float64(g.NumEdges()) * float64(c.iters)}
		}}, nil
	},
	oracle: func(g *graph.Graph, c appConfig) appOutput {
		return appOutput{ranks: baseline.PageRank(g, c.iters)}
	},
	detail:    func(appConfig) string { return ", split to 64" },
	validated: func(appOutput) string { return "values validated against host baseline at every configuration" },
}

var bfsApp = &graphApp{
	name: "bfs", long: "BFS", metric: "GTEPS", unit: 1e9,
	// Scale-matched from the paper's 4096-at-s28 BFS cap: a hub frontier
	// entry must not serialize one lane for a whole round.
	split: func(g *graph.Graph) *graph.SplitGraph { return graph.Split(g, 256) },
	start: func(m *updown.Machine, dg *graph.DeviceGraph, _ *graph.Graph, c appConfig) (graphRun, error) {
		a, err := bfs.New(m, dg, bfs.Config{Lanes: c.lanes, Root: c.root})
		if err != nil {
			return graphRun{}, err
		}
		a.InitValues()
		return graphRun{a.Run, a.Elapsed, func() appOutput {
			return appOutput{dist: a.Distances(), work: float64(a.Traversed)}
		}}, nil
	},
	oracle: func(g *graph.Graph, c appConfig) appOutput {
		want := baseline.BFS(g, c.root)
		dist := make([]uint64, len(want))
		for v, d := range want {
			dist[v] = uint64(d)
			if d == baseline.Unreached {
				dist[v] = bfs.Unvisited
			}
		}
		return appOutput{dist: dist}
	},
	detail:    func(c appConfig) string { return fmt.Sprintf(", root %d", c.root) },
	validated: func(appOutput) string { return "distances validated against host baseline at every configuration" },
}

var tcApp = &graphApp{
	name: "tc", long: "TC", metric: "Mops/s", unit: 1e6, symmetrize: true,
	split: func(g *graph.Graph) *graph.SplitGraph { return graph.Split(g, 0) },
	start: func(m *updown.Machine, dg *graph.DeviceGraph, _ *graph.Graph, c appConfig) (graphRun, error) {
		a, err := tc.New(m, dg, tc.Config{Lanes: c.lanes, Combine: c.combine})
		if err != nil {
			return graphRun{}, err
		}
		return graphRun{a.Run, a.Elapsed, func() appOutput {
			return appOutput{total: a.Total(), work: float64(a.Total())}
		}}, nil
	},
	oracle: func(g *graph.Graph, _ appConfig) appOutput {
		return appOutput{total: baseline.TriangleCount(g)}
	},
	detail: func(appConfig) string { return "" },
	validated: func(want appOutput) string {
		return fmt.Sprintf("triangle totals validated against host baseline (%d triangles)", want.total/3)
	},
}

// graphApps resolves the names the replicated chaos run selects apps by.
var graphApps = map[string]*graphApp{"bfs": bfsApp, "pagerank": prApp, "tc": tcApp}

// diff reports the first place got departs from the oracle's output:
// ranks to a relative 1e-9, distances and totals exactly.
func (want appOutput) diff(got appOutput) error {
	for v, w := range want.ranks {
		if math.Abs(got.ranks[v]-w) > 1e-9*math.Abs(w)+1e-13 {
			return fmt.Errorf("pagerank mismatch at vertex %d: %v vs %v", v, got.ranks[v], w)
		}
	}
	for v, w := range want.dist {
		if got.dist[v] != w {
			return fmt.Errorf("bfs mismatch at vertex %d: %d vs %d", v, got.dist[v], w)
		}
	}
	if got.total != want.total {
		return fmt.Errorf("total %d, baseline %d", got.total, want.total)
	}
	return nil
}

// workload is one graph under one application: what a graph sweep holds
// fixed while its x-axis varies.
type workload struct {
	app   *graphApp
	g     *graph.Graph
	split *graph.SplitGraph
	cfg   appConfig
	// want, when non-nil, is the oracle output every point must reproduce.
	want *appOutput
}

func (a *graphApp) workload(g *graph.Graph, cfg appConfig, validate bool) *workload {
	w := &workload{app: a, g: g, split: a.split(g), cfg: cfg}
	if validate {
		want := a.oracle(g, cfg)
		w.want = &want
	}
	return w
}

// start loads the workload into m's global memory under pl and constructs
// the application over it.
func (w *workload) start(m *updown.Machine, pl graph.Placement) (graphRun, error) {
	dg, err := graph.LoadToGAS(m.GAS, w.split, pl)
	if err != nil {
		return graphRun{}, err
	}
	return w.app.start(m, dg, w.g, w.cfg)
}

// graphPoint runs w as one sweep row (see runPoint): the machine is cfg,
// the graph is placed by pl, and the row is the app's rate under label.
func (s sweep) graphPoint(tb *Table, w *workload, prefix, point, label string, cfg updown.Config, pl graph.Placement) (*updown.Machine, error) {
	return s.runPoint(tb, prefix, point, cfg, func(m *updown.Machine) (func() (updown.Stats, error), func() (Row, error), error) {
		r, err := w.start(m, pl)
		return r.run, func() (Row, error) {
			out := r.output()
			if w.want != nil {
				if err := w.want.diff(out); err != nil {
					return Row{}, err
				}
			}
			return rateRow(m, label, r.elapsed(), out.work, w.app.unit), nil
		}, err
	})
}

// buildPreset generates a named preset graph at scale, optionally forcing
// it undirected.
func buildPreset(name string, scale int, seed uint64, forceUndirected bool) (*graph.Graph, error) {
	p, err := graph.PresetByName(name)
	if err != nil {
		return nil, err
	}
	edges := p.Build(scale, seed)
	return graph.FromEdges(1<<scale, edges, graph.BuildOptions{
		Undirected:    p.Undirected || forceUndirected,
		Dedup:         true,
		DropSelfLoops: true,
		SortNeighbors: true,
	}), nil
}
