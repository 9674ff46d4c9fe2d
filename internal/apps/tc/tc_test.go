package tc_test

import (
	"testing"

	"updown"
	"updown/internal/apps/tc"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

func buildTCGraph(scale int, seed uint64) *graph.Graph {
	return graph.FromEdges(1<<scale, graph.DefaultRMAT(scale, seed), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
}

// runTC counts g's triangles on a nodes-node machine. The map binding is
// Owner where the graph's nodes are the lanes' (any multi-node machine
// here), else Block.
func runTC(t *testing.T, g *graph.Graph, nodes int) (uint64, updown.Cycles) {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: nodes, Shards: 1, MaxTime: 1 << 42})
	if err != nil {
		t.Fatal(err)
	}
	s := graph.Split(g, 0) // TC runs on the unsplit graph
	dg, err := graph.LoadToGAS(m.GAS, s, graph.DefaultPlacement(nodes))
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.New(m, dg, tc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := app.MapBindingForTest()
	_, owner := got.(kvmsr.Owner)
	if owner != (nodes > 1) || !owner && got != (kvmsr.Block{}) {
		t.Fatalf("%d nodes: map binding %T", nodes, got)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	return app.Total(), app.Elapsed()
}

func TestTriangleCountMatchesBaseline(t *testing.T) {
	g := buildTCGraph(8, 77)
	want := baseline.TriangleCount(g)
	got, elapsed := runTC(t, g, 2)
	if got != want {
		t.Fatalf("simulated total %d, baseline %d", got, want)
	}
	if want == 0 {
		t.Fatal("workload has no triangles; test is vacuous")
	}
	if elapsed <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestTriangleCountKnownTiny(t *testing.T) {
	// K4: four triangles, total = 12.
	var e []graph.Edge
	for i := uint32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			e = append(e, graph.Edge{Src: i, Dst: j})
		}
	}
	g := graph.FromEdges(4, e, graph.BuildOptions{Undirected: true, Dedup: true, SortNeighbors: true})
	got, _ := runTC(t, g, 1)
	if got != 12 {
		t.Fatalf("K4 total = %d, want 12", got)
	}
}

func TestTriangleCountLaneScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short")
	}
	g := buildTCGraph(9, 13)
	want := baseline.TriangleCount(g)
	elapsed := func(lanes int) updown.Cycles {
		m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 42})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 0), graph.DefaultPlacement(1))
		if err != nil {
			t.Fatal(err)
		}
		app, err := tc.New(m, dg, tc.Config{Lanes: kvmsr.LaneSet{First: 0, Count: lanes}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(); err != nil {
			t.Fatal(err)
		}
		if app.Total() != want {
			t.Fatalf("lanes=%d total %d, want %d", lanes, app.Total(), want)
		}
		return app.Elapsed()
	}
	t64 := elapsed(64)
	t2048 := elapsed(2048)
	if t2048 >= t64 {
		t.Fatalf("2048 lanes (%d) not faster than 64 (%d)", t2048, t64)
	}
}
