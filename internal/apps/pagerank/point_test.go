package pagerank_test

import (
	"testing"

	"updown"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/graph"
)

// Every point score must be bit-equal to the host fixed-point forward
// push — the integer arithmetic makes the device sum exact, so this is
// equality, not epsilon comparison. Mass conservation is checked too:
// settled plus dropped mass is exactly FixOne in the reference.
func TestPointPPRMatchesHostRef(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	m, dg := pointqtest.Machine(t, g, 2, 1)
	e, err := pagerank.NewPoint(m, dg, pagerank.PointConfig{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}

	type q struct{ src, tgt uint32 }
	batches := [][]q{
		{{28, 0}, {0, 200}, {5, 5}, {100, 7}},
		{{28, 255}, {17, 3}},        // partial batch: slots 2,3 run nothing
		{{1, 250}, {2, 2}, {9, 40}}, // reuse after recycle
	}
	refs := map[uint32][]uint64{}
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
			ref, seen := refs[qq.src]
			if !seen {
				ref = pagerank.RefScores(g, qq.src, 0)
				refs[qq.src] = ref
			}
			if got, want := e.Result(s), ref[qq.tgt]; got != want {
				t.Fatalf("batch %d slot %d (%d->%d): got %#x, want %#x", bi, s, qq.src, qq.tgt, got, want)
			}
			if dc := e.DoneCycle(s); dc <= 0 {
				t.Fatalf("batch %d slot %d: done cycle %d", bi, s, dc)
			}
			e.Recycle(s)
		}
	}
	// The self-query must carry mass: p[src] always keeps at least the
	// settled remainder of the initial unit.
	if sc := pagerank.RefScores(g, 5, 0)[5]; sc == 0 {
		t.Fatal("self PPR score is zero")
	}
}
