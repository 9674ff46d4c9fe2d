package harness

import (
	"fmt"
	"math"
	"strings"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/tc"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// AppConfig is the per-run application knobs the drivers vary.
type AppConfig struct {
	Lanes kvmsr.LaneSet // zero = the whole machine
	Root  uint32        // bfs
	Iters int           // pr
}

// appOutput is a graph application's result in the form its host oracle
// produces, plus work, the numerator of its throughput metric (edge
// updates, traversed edges, intersection operations).
type appOutput struct {
	ranks   []float64 // pr
	dist    []uint64  // bfs, bfs.Unvisited where unreached
	parents []uint64  // bfs tree as split-vertex IDs (no oracle compares it)
	rounds  int       // bfs
	total   uint64    // tc wedge-closure total (3x the triangles)
	work    float64
}

// words is the output word for word: rank bits, distances then parents,
// or the total.
func (o appOutput) words() []uint64 {
	switch {
	case o.ranks != nil:
		w := make([]uint64, len(o.ranks))
		for i, r := range o.ranks {
			w[i] = math.Float64bits(r)
		}
		return w
	case o.dist != nil:
		return append(o.dist, o.parents...)
	}
	return []uint64{o.total}
}

// GraphJob is a constructed, initialized graph application: what the
// sweeps, updown-sim, the scheduler sweep and the chaos runs drive and
// read. It is a sched.Workload.
type GraphJob struct {
	*updown.Driver
	// Summary is updown-sim's result line; Profile, when set, the lines
	// its -profile adds: PageRank's map+reduce cycles per iteration, and
	// BFS's rounds.
	Summary func() string
	Profile func() []string
	output  func() appOutput
}

// Post posts the driver event at cycle at: sched.Workload's Post, which
// shadows the Driver's cycle-0 one.
func (j *GraphJob) Post(at updown.Cycles) { j.PostAt(at) }

// Output is the result word for word; fig sched -verify compares it with
// the job's solo replay.
func (j *GraphJob) Output() []uint64 { return j.output().words() }

// Checksum is the word list updown-sim -checksum digests: Output, except
// that BFS puts its rounds and traversed edges where its parents were.
func (j *GraphJob) Checksum() []uint64 {
	out := j.output()
	if out.dist == nil {
		return out.words()
	}
	return append([]uint64{uint64(out.rounds), uint64(out.work)}, out.dist...)
}

// GraphApp is one KVMSR graph application as every driver sees it: Fig. 9,
// both Fig. 12 sweeps, the replication-tax extension, both chaos runs, the
// scheduler sweep and updown-sim all build and run pr, bfs and tc through
// this table.
type GraphApp struct {
	name, long string
	// metric names the throughput column; unit scales work/second into it.
	metric string
	unit   float64
	// symmetrize: Fig. 9 builds the preset undirected (the paper's
	// preprocessing default, which PR and TC use).
	symmetrize bool
	// Split is the app's vertex splitting at its scale-matched degree cap.
	// PageRank's cap is the argument (prMaxDeg in the sweeps, updown-sim's
	// -m) and it spreads in-edges over the members; BFS and TC fix theirs.
	Split func(g *graph.Graph, prMaxDeg int) *graph.SplitGraph
	// Start constructs the app over dg and initializes it.
	Start  func(m *updown.Machine, dg *graph.DeviceGraph, c AppConfig) (*GraphJob, error)
	oracle func(g *graph.Graph, c AppConfig) appOutput
	// detail and validated word Fig. 9's workload line and validation note.
	detail    func(c AppConfig) string
	validated func(want appOutput) string
}

// prMaxDeg is PageRank's degree cap in every sweep. The paper splits PR
// inputs to max degree 512 at scale 28, where a hub's member run spans
// several lanes' Block ranges; the scale-matched cap keeps that property
// (cap ~= max degree x lanes / vertices). With symmetrized input the cap
// bounds in-degree too, so both directions are spread.
const prMaxDeg = 64

var prApp = &GraphApp{
	name: "pr", long: "PageRank", metric: "GUPS", unit: 1e9, symmetrize: true,
	Split: func(g *graph.Graph, maxDeg int) *graph.SplitGraph {
		return graph.SplitWith(g, graph.SplitOptions{MaxDeg: maxDeg, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	},
	Start: func(m *updown.Machine, dg *graph.DeviceGraph, c AppConfig) (*GraphJob, error) {
		a, err := pagerank.New(m, dg, pagerank.Config{Lanes: c.Lanes, Iterations: c.Iters})
		if err != nil {
			return nil, err
		}
		a.InitValues()
		// One update per edge per iteration; splitting keeps every edge.
		updates := dg.G.NumEdges() * uint64(c.Iters)
		return &GraphJob{Driver: &a.Driver,
			Profile: func() (lines []string) {
				for i, d := range a.PhaseDurations() {
					lines = append(lines, fmt.Sprintf("phases: iter %d map+reduce=%d cycles", i+1, d))
				}
				return lines
			},
			Summary: func() string {
				return fmt.Sprintf("updates: %d (%.4f GUPS)", updates, float64(updates)/m.Seconds(a.Elapsed())/1e9)
			},
			output: func() appOutput { return appOutput{ranks: a.Values(), work: float64(updates)} },
		}, nil
	},
	oracle: func(g *graph.Graph, c AppConfig) appOutput {
		return appOutput{ranks: baseline.PageRank(g, c.Iters)}
	},
	detail:    func(AppConfig) string { return ", split to 64" },
	validated: func(appOutput) string { return "values validated against host baseline at every configuration" },
}

var bfsApp = &GraphApp{
	name: "bfs", long: "BFS", metric: "GTEPS", unit: 1e9,
	// Scale-matched from the paper's 4096-at-s28 BFS cap: a hub frontier
	// entry must not serialize one lane for a whole round.
	Split: func(g *graph.Graph, _ int) *graph.SplitGraph { return graph.Split(g, 256) },
	Start: func(m *updown.Machine, dg *graph.DeviceGraph, c AppConfig) (*GraphJob, error) {
		a, err := bfs.New(m, dg, bfs.Config{Lanes: c.Lanes, Root: c.Root})
		if err != nil {
			return nil, err
		}
		a.InitValues()
		return &GraphJob{Driver: &a.Driver,
			Summary: func() string {
				return fmt.Sprintf("rounds: %d, traversed edges: %d (%.4f GTEPS)",
					a.Rounds, a.Traversed, float64(a.Traversed)/m.Seconds(a.Elapsed())/1e9)
			},
			Profile: func() []string {
				line := "rounds: cycles/tuples/new"
				for _, r := range a.RoundLog {
					line += fmt.Sprintf(" %d/%d/%d", r.Done-r.Launch, r.Tuples, r.New)
				}
				return []string{line}
			},
			output: func() appOutput {
				return appOutput{dist: a.Distances(), parents: a.Parents(), rounds: a.Rounds, work: float64(a.Traversed)}
			},
		}, nil
	},
	oracle: func(g *graph.Graph, c AppConfig) appOutput {
		want := baseline.BFS(g, c.Root)
		dist := make([]uint64, len(want))
		for v, d := range want {
			dist[v] = uint64(d)
			if d == baseline.Unreached {
				dist[v] = bfs.Unvisited
			}
		}
		return appOutput{dist: dist}
	},
	detail:    func(c AppConfig) string { return fmt.Sprintf(", root %d", c.Root) },
	validated: func(appOutput) string { return "distances validated against host baseline at every configuration" },
}

var tcApp = &GraphApp{
	name: "tc", long: "TC", metric: "Mops/s", unit: 1e6, symmetrize: true,
	Split: func(g *graph.Graph, _ int) *graph.SplitGraph { return graph.Split(g, 0) },
	Start: func(m *updown.Machine, dg *graph.DeviceGraph, c AppConfig) (*GraphJob, error) {
		a, err := tc.New(m, dg, tc.Config{Lanes: c.Lanes})
		if err != nil {
			return nil, err
		}
		return &GraphJob{Driver: &a.Driver,
			Summary: func() string { return fmt.Sprintf("intersection total: %d (%d triangles)", a.Total(), a.Triangles()) },
			output:  func() appOutput { return appOutput{total: a.Total(), work: float64(a.Total())} },
		}, nil
	},
	oracle: func(g *graph.Graph, _ AppConfig) appOutput {
		return appOutput{total: baseline.TriangleCount(g)}
	},
	detail: func(AppConfig) string { return "" },
	validated: func(want appOutput) string {
		return fmt.Sprintf("triangle totals validated against host baseline (%d triangles)", want.total/3)
	},
}

// LookupApp finds a graph application by its short name (pr, bfs, tc) or
// its long one in lower case (pagerank); nil when there is none.
func LookupApp(name string) *GraphApp {
	for _, a := range []*GraphApp{prApp, bfsApp, tcApp} {
		if a.name == name || strings.ToLower(a.long) == name {
			return a
		}
	}
	return nil
}

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
	app   *GraphApp
	split *graph.SplitGraph
	cfg   AppConfig
	// want, when non-nil, is the oracle output every point must reproduce.
	want *appOutput
}

func (a *GraphApp) workload(g *graph.Graph, cfg AppConfig, validate bool) *workload {
	w := &workload{app: a, split: a.Split(g, prMaxDeg), cfg: cfg}
	if validate {
		want := a.oracle(g, cfg)
		w.want = &want
	}
	return w
}

// start loads the workload into m's global memory under pl and constructs
// the application over it.
func (w *workload) start(m *updown.Machine, pl graph.Placement) (*GraphJob, error) {
	dg, err := graph.LoadToGAS(m.GAS, w.split, pl)
	if err != nil {
		return nil, err
	}
	return w.app.Start(m, dg, w.cfg)
}

// graphPoint runs w as one sweep row (see runPoint): the machine is cfg,
// the graph is placed by pl, and the row is the app's rate under label.
func (s sweep) graphPoint(tb *Table, w *workload, prefix, point, label string, cfg updown.Config, pl graph.Placement) (*updown.Machine, error) {
	return s.runPoint(tb, prefix, point, cfg, func(m *updown.Machine) (func() (updown.Stats, error), func() (Row, error), error) {
		j, err := w.start(m, pl)
		if err != nil {
			return nil, nil, err
		}
		return j.Run, func() (Row, error) {
			out := j.output()
			if w.want != nil {
				if err := w.want.diff(out); err != nil {
					return Row{}, err
				}
			}
			return rateRow(m, label, j.Elapsed(), out.work, w.app.unit), nil
		}, nil
	})
}
