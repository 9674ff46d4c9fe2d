package pagerank_test

import (
	"math"
	"testing"

	"updown"
	"updown/internal/apps/pagerank"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// runPR simulates PageRank on the machine and returns the value vector.
func runPR(t *testing.T, g *graph.Graph, maxDeg, nodes, iters int) []float64 {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: nodes, Shards: 1, MaxTime: 1 << 40})
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
	app, err := pagerank.New(m, dg, pagerank.Config{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	app.InitValues()
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	if app.Elapsed() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	return app.Values()
}

func comparePR(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for v := range want {
		diff := math.Abs(got[v] - want[v])
		if diff > 1e-9*math.Abs(want[v])+1e-13 {
			t.Fatalf("vertex %d: simulated %v, baseline %v", v, got[v], want[v])
		}
	}
}

// The simulated PageRank must match the host baseline on the original
// graph, including with vertex splitting in effect.
func TestPageRankMatchesBaseline(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 21), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	want := baseline.PageRank(g, 2)
	got := runPR(t, g, 16, 2, 2)
	comparePR(t, got, want)
}

func TestPageRankNoSplitMatchesSplit(t *testing.T) {
	g := graph.FromEdges(128, graph.DefaultRMAT(7, 4), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	want := baseline.PageRank(g, 1)
	nosplit := runPR(t, g, 0, 1, 1)
	split := runPR(t, g, 8, 1, 1)
	comparePR(t, nosplit, want)
	comparePR(t, split, want)
}

// With work fixed and the lane set grown (same node, so coordination
// overhead stays in one latency class), PageRank must speed up — the
// strong-scaling mechanism of Figure 9 — while computing identical values.
func TestPageRankScalesAndStaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short")
	}
	g := graph.FromEdges(1024, graph.DefaultRMAT(10, 33), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	want := baseline.PageRank(g, 1)

	elapsed := func(laneCount int) updown.Cycles {
		m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		s := graph.Split(g, 64)
		dg, err := graph.LoadToGAS(m.GAS, s, graph.DefaultPlacement(1))
		if err != nil {
			t.Fatal(err)
		}
		app, err := pagerank.New(m, dg, pagerank.Config{
			Iterations: 1,
			Lanes:      kvmsr.LaneSet{First: 0, Count: laneCount},
		})
		if err != nil {
			t.Fatal(err)
		}
		app.InitValues()
		if _, err := app.Run(); err != nil {
			t.Fatal(err)
		}
		comparePR(t, app.Values(), want)
		return app.Elapsed()
	}
	t64 := elapsed(64)
	t2048 := elapsed(2048)
	if t2048 >= t64 {
		t.Fatalf("2048 lanes (%d cycles) not faster than 64 lanes (%d cycles)", t2048, t64)
	}
}
