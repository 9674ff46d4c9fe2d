package pagerank_test

import (
	"fmt"
	"testing"

	"updown"
	"updown/internal/apps/pagerank"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/fault"
	"updown/internal/graph"
)

// finishCheck runs one PageRank job and checks the finish protocol: a
// vertex's reduce lane counts its expected arrivals (in-edges plus, at a
// base, its sub-vertices' reports) and finishes it on the last one, with no
// launch but the iteration's. After the run the values match the host
// baseline, every base's value was written exactly once per iteration
// (nothing else writes DRAM), the expected arrivals add up to the tuples
// emitted plus
// the reports the members sent, no lane's combining cache holds an entry
// and the launch counts and the kvmsr counters balance. Owner binds the
// tasks on 2 nodes, where the graph is on the lanes' nodes, not on 3.
func finishCheck(t *testing.T, name string, cfg updown.Config, g *graph.Graph, split *graph.SplitGraph, iters int) updown.Stats {
	t.Helper()
	cfg.MaxTime = 1 << 42
	m, dg := loadPlaced(t, cfg, split, graph.DefaultPlacement(cfg.Nodes))
	app, err := pagerank.New(m, dg, pagerank.Config{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	if ownerBound(app) != (cfg.Nodes == 2) {
		t.Fatalf("%s: Owner bindings taken: %v", name, cfg.Nodes != 2)
	}
	app.InitValues()
	var expected, reports uint64
	for v := uint32(0); int(v) < split.N; v++ {
		e := m.GAS.ReadU64(dg.FieldVA(v, graph.VAux))
		expected += e
		if e > 0 && !split.IsBase(v) {
			reports++
		}
	}
	if expected != split.NumEdges()+reports {
		t.Fatalf("%s: %d arrivals expected, %d tuples and %d reports sent", name, expected, split.NumEdges(), reports)
	}
	stats, err := app.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	comparePR(t, app.Values(), baseline.PageRank(g, iters))
	if want := int64(split.OrigN) * int64(iters); stats.DRAMWrites != want {
		t.Errorf("%s: %d DRAM writes, want %d per iteration: %d", name, stats.DRAMWrites, split.OrigN, want)
	}
	if stats.ShuffleTuples != int64(split.NumEdges())*int64(iters) {
		t.Errorf("%s: %d tuples emitted, want %d", name, stats.ShuffleTuples, split.NumEdges()*uint64(iters))
	}
	if n := app.CachedForTest(); n != 0 {
		t.Errorf("%s: %d combining-cache entries left after the run", name, n)
	}
	if l := app.TerminationTotals().Launches; l != uint64(iters) || len(app.PhaseDurations()) != iters {
		t.Errorf("%s: %d launches, %d phases for %d iterations", name, l, len(app.PhaseDurations()), iters)
	}
	if s := app.Shuffle.TerminationState(m.LanePeek()); s.R != s.E || s.Reduced != s.E || s.Armed != 0 || s.Pending != 0 {
		t.Errorf("%s: termination counters do not balance: %+v", name, s)
	}
	return stats
}

// protocolGraphs are the inputs the finish protocol must handle: member
// runs inside a block (Owner on 2 nodes) and across a block (the 600-member
// hub), spread and base-only splits, and a directed graph whose split
// source vertex no edge reaches (its base expects nothing, so its own map
// task writes its value, and its sub-vertices report nothing).
func protocolGraphs() []struct {
	name  string
	g     *graph.Graph
	split *graph.SplitGraph
} {
	rmat := graph.FromEdges(1<<10, graph.DefaultRMAT(10, 5), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	var edges []graph.Edge
	for v := uint32(1); v < 200; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v}, graph.Edge{Src: v, Dst: v%199 + 1})
	}
	source := graph.FromEdges(200, edges, graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	hub := hubGraph(600)
	spread := func(g *graph.Graph, maxDeg int) *graph.SplitGraph {
		return graph.SplitWith(g, graph.SplitOptions{MaxDeg: maxDeg, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	}
	return []struct {
		name  string
		g     *graph.Graph
		split *graph.SplitGraph
	}{
		{"rmat-spread", rmat, spread(rmat, 16)},
		{"rmat-base-only", rmat, graph.Split(rmat, 8)},
		{"directed-source", source, spread(source, 16)},
		{"hub600", hub, graph.SplitWith(hub, graph.SplitOptions{MaxDeg: hubMaxDeg, SpreadInEdges: true})},
	}
}

// TestFinishUnderReordering delays 30% of messages by up to 2,000 cycles
// (a delay-only fault plan: nothing is lost), so expect words, tuples and
// reports reach a lane in any order; every vertex must still finish once.
func TestFinishUnderReordering(t *testing.T) {
	for _, in := range protocolGraphs() {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := updown.Config{Nodes: 2, Shards: 1, Fault: &fault.Plan{Seed: seed,
				Rules: []fault.MsgRule{{Kinds: 1<<arch.KindEvent | 1<<arch.KindEventU,
					SrcNode: fault.AnyNode, DstNode: fault.AnyNode, DelayProb: 0.3, DelayCycles: 2000}}}}
			name := fmt.Sprintf("%s/seed=%d", in.name, seed)
			if finishCheck(t, name, cfg, in.g, in.split, 1+int(seed)%2).Faults.Delayed == 0 {
				t.Fatalf("%s: no message was delayed", name)
			}
		}
	}
}

// TestProgramLabels pins the event labels a PageRank program defines: the
// main invocation's and PageRank's own. Its combining cache defines none
// (no flush launch, no take), and there is no apply launch: 64 labels
// while apply took the sums, 28 once a vertex finished in its reduce, 26
// since the memory-side fetch-add path (pr.added, pr.acc_read) went.
func TestProgramLabels(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(64, graph.DefaultRMAT(6, 1), graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 8), graph.DefaultPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Prog.NumHandlers()
	if _, err := pagerank.New(m, dg, pagerank.Config{}); err != nil {
		t.Fatal(err)
	}
	if n := m.Prog.NumHandlers() - before; n != 26 {
		t.Fatalf("a PageRank program defines %d labels, want 26", n)
	}
}
