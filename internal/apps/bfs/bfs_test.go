package bfs_test

import (
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
)

func runBFS(t *testing.T, g *graph.Graph, maxDeg, nodes int, cfg bfs.Config) *bfs.App {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: nodes, Shards: 1, MaxTime: 1 << 42})
	if err != nil {
		t.Fatal(err)
	}
	s := graph.Split(g, maxDeg)
	if err := s.ValidateSplit(g); err != nil {
		t.Fatal(err)
	}
	dg, err := graph.LoadToGAS(m.GAS, s, graph.DefaultPlacement(nodes))
	if err != nil {
		t.Fatal(err)
	}
	app, err := bfs.New(m, dg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.InitValues()
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	return app
}

// checkRounds asserts that the search ran one round per level of the
// baseline's BFS tree and stopped on the first round that visited nothing:
// Rounds is 1 + the deepest finite distance, every round but the last
// visited a vertex, and round 0 launched at Start (no seed phase).
func checkRounds(t *testing.T, app *bfs.App, want []uint32) {
	t.Helper()
	depth := 0
	for _, d := range want {
		if d != baseline.Unreached {
			depth = max(depth, int(d))
		}
	}
	if app.Rounds != depth+1 || len(app.RoundLog) != app.Rounds {
		t.Fatalf("%d rounds (%d logged) for depth %d, want %d", app.Rounds, len(app.RoundLog), depth, depth+1)
	}
	if app.RoundLog[0].Launch != app.Start {
		t.Fatalf("round 0 launched at %d, the run started at %d", app.RoundLog[0].Launch, app.Start)
	}
	for i, r := range app.RoundLog {
		if (r.New == 0) != (i == len(app.RoundLog)-1) {
			t.Fatalf("round %d of %d visited %d new vertices: %+v", i, len(app.RoundLog), r.New, app.RoundLog)
		}
	}
}

func compareDistances(t *testing.T, got []uint64, want []uint32) {
	t.Helper()
	for v := range want {
		w := uint64(want[v])
		if want[v] == baseline.Unreached {
			w = bfs.Unvisited
		}
		if got[v] != w {
			t.Fatalf("vertex %d: simulated dist %d, baseline %d", v, got[v], w)
		}
	}
}

func TestBFSMatchesBaseline(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	app := runBFS(t, g, 16, 2, bfs.Config{Root: 28})
	compareDistances(t, app.Distances(), baseline.BFS(g, 28))
	if app.Elapsed() <= 0 || app.Rounds < 2 {
		t.Fatalf("elapsed %d, rounds %d", app.Elapsed(), app.Rounds)
	}
}

// An undirected search's deepest level sends tuples back to visited
// vertices, so only its reduce-side sum says it found nothing: the search
// must end there, one round per level, on 1, 2 and 4 nodes and on a lane
// set in the middle of the machine, crossing a node boundary.
func TestBFSRoundsMatchDepth(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	want := baseline.BFS(g, 28)
	for _, tc := range []struct {
		nodes int
		lanes kvmsr.LaneSet
	}{{nodes: 1}, {nodes: 2}, {nodes: 4}, {nodes: 2, lanes: kvmsr.LaneSet{First: 1024, Count: 2048}}} {
		app := runBFS(t, g, 16, tc.nodes, bfs.Config{Root: 28, Lanes: tc.lanes})
		compareDistances(t, app.Distances(), want)
		checkRounds(t, app, want)
	}
}

func TestBFSDirectedGraph(t *testing.T) {
	g := graph.FromEdges(128, graph.DefaultRMAT(7, 8), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	app := runBFS(t, g, 8, 1, bfs.Config{})
	compareDistances(t, app.Distances(), baseline.BFS(g, 0))
}

func TestBFSPathGraph(t *testing.T) {
	// A 10-vertex path: distances 0..9 in ten rounds, the last of which
	// expands vertex 9 and finds nothing.
	var e []graph.Edge
	for i := uint32(0); i < 9; i++ {
		e = append(e, graph.Edge{Src: i, Dst: i + 1})
	}
	g := graph.FromEdges(10, e, graph.BuildOptions{})
	app := runBFS(t, g, 0, 1, bfs.Config{})
	d := app.Distances()
	for v := 0; v < 10; v++ {
		if d[v] != uint64(v) {
			t.Fatalf("dist[%d] = %d", v, d[v])
		}
	}
	checkRounds(t, app, baseline.BFS(g, 0))
}

func TestBFSIsolatedRoot(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{})
	app := runBFS(t, g, 0, 1, bfs.Config{})
	d := app.Distances()
	if d[0] != 0 || d[1] != bfs.Unvisited || d[2] != bfs.Unvisited {
		t.Fatalf("distances %v", d)
	}
	checkRounds(t, app, baseline.BFS(g, 0))
}

// The BFS tree must be consistent: every reached non-root vertex has a
// parent whose original vertex sits one hop closer.
func TestBFSTreeConsistency(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 44), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	app := runBFS(t, g, 16, 1, bfs.Config{Root: 5})
	dist := app.Distances()
	parents := app.Parents()
	s := graph.Split(g, 16)
	for v := range dist {
		if uint32(v) == 5 || dist[v] == bfs.Unvisited {
			continue
		}
		p := parents[v]
		if p == bfs.Unvisited {
			t.Fatalf("reached vertex %d has no parent", v)
		}
		orig := s.OrigID[uint32(p)]
		if dist[orig] != dist[v]-1 {
			t.Fatalf("vertex %d at dist %d has parent %d (orig %d) at dist %d",
				v, dist[v], p, orig, dist[orig])
		}
	}
}

// The windowed-parallel simulator must produce bit-identical BFS runs
// regardless of shard count (the whole-app determinism check). The run is
// owner-bound on four nodes, so every DRAM write — the visited mark and the
// frontier append — stays on the writing lane's node.
func TestBFSShardDeterminism(t *testing.T) {
	g := graph.FromEdges(512, graph.DefaultRMAT(9, 31), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	run := func(shards int) (updown.Cycles, []uint64) {
		m, err := updown.New(updown.Config{Nodes: 4, Shards: shards, MaxTime: 1 << 42, Metrics: &metrics.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 64), graph.DefaultPlacement(4))
		if err != nil {
			t.Fatal(err)
		}
		app, err := bfs.New(m, dg, bfs.Config{Root: 9})
		if err != nil {
			t.Fatal(err)
		}
		// Graph and lanes on the same four nodes: reduces are owner-bound.
		if _, ok := app.ReduceBindingForTest().(kvmsr.Owner); !ok {
			t.Fatalf("reduce binding %T, want Owner", app.ReduceBindingForTest())
		}
		app.InitValues()
		if _, err := app.Run(); err != nil {
			t.Fatal(err)
		}
		if w := m.Metrics.Profile().Kinds[arch.KindDRAMWrite]; w.Count == 0 || w.Cross != 0 {
			t.Fatalf("shards=%d: %d of %d DRAM writes cross nodes, want 0 of > 0", shards, w.Cross, w.Count)
		}
		return app.Elapsed(), app.Distances()
	}
	seqT, seqD := run(1)
	parT, parD := run(4)
	if seqT != parT {
		t.Fatalf("elapsed differs: sequential %d, 4 shards %d", seqT, parT)
	}
	for v := range seqD {
		if seqD[v] != parD[v] {
			t.Fatalf("distance differs at %d", v)
		}
	}
}

// Sub-lane sets must work and the result must not depend on the lane count.
func TestBFSLaneSubsets(t *testing.T) {
	g := graph.FromEdges(128, graph.DefaultRMAT(7, 2), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	want := baseline.BFS(g, 0)
	for _, lanes := range []int{64, 256, 2048} {
		m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 42})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 32), graph.DefaultPlacement(1))
		if err != nil {
			t.Fatal(err)
		}
		app, err := bfs.New(m, dg, bfs.Config{Root: 0, Lanes: kvmsr.LaneSet{First: 0, Count: lanes}})
		if err != nil {
			t.Fatal(err)
		}
		if app.ReduceBindingForTest() != (kvmsr.Hash{}) {
			t.Fatalf("one node: reduce binding %T, want Hash", app.ReduceBindingForTest())
		}
		app.InitValues()
		if _, err := app.Run(); err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		compareDistances(t, app.Distances(), want)
	}
}
