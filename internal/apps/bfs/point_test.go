package bfs_test

import (
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/baseline"
	"updown/internal/graph"
)

// A full batch of point queries must answer bit-identically to the solo
// batch-run reference (baseline host BFS distances) — including unreached
// targets and src == tgt.
func TestPointBFSMatchesBaseline(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	m, dg := pointqtest.Machine(t, g, 2, 1)
	e, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}

	type q struct{ src, tgt uint32 }
	batches := [][]q{
		{{28, 0}, {0, 200}, {5, 5}, {100, 7}},
		{{28, 255}, {17, 3}},        // partial batch: slots 2,3 run nothing
		{{1, 250}, {2, 2}, {9, 40}}, // reuse after recycle
	}
	var frontier updown.Cycles
	for bi, batch := range batches {
		for s, qq := range batch {
			e.Seed(s, qq.src, qq.tgt)
		}
		e.Post(frontier + 1)
		if _, err := m.Run(); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		for s, qq := range batch {
			done, ok := e.SlotDone(s)
			if !ok {
				t.Fatalf("batch %d slot %d did not complete", bi, s)
			}
			frontier = max(frontier, done)
			want := baseline.BFS(g, qq.src)[qq.tgt]
			dist, reached := e.Dist(s)
			if want == baseline.Unreached {
				if reached {
					t.Fatalf("batch %d slot %d (%d->%d): got dist %d, want unreached", bi, s, qq.src, qq.tgt, dist)
				}
			} else if !reached || dist != uint64(want) {
				t.Fatalf("batch %d slot %d (%d->%d): got (%d,%v), want dist %d", bi, s, qq.src, qq.tgt, dist, reached, want)
			}
			if dc := e.DoneCycle(s); dc <= 0 {
				t.Fatalf("batch %d slot %d: done cycle %d", bi, s, dc)
			}
			e.Recycle(s)
		}
	}
}
