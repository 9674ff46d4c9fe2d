package pagerank_test

import (
	"fmt"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/tc"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// prRun is one PageRank run on a freshly built machine.
type prRun struct {
	app   *pagerank.App
	stats updown.Stats
}

// loadPlaced builds the machine cfg describes and loads split under pl.
func loadPlaced(t *testing.T, cfg updown.Config, split *graph.SplitGraph, pl graph.Placement) (*updown.Machine, *graph.DeviceGraph) {
	t.Helper()
	cfg.MaxTime = 1 << 40
	m, err := updown.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.LoadToGAS(m.GAS, split, pl)
	if err != nil {
		t.Fatal(err)
	}
	return m, dg
}

// runPROn runs one PageRank iteration over lanes (zero = the whole machine).
func runPROn(t *testing.T, m *updown.Machine, dg *graph.DeviceGraph, lanes kvmsr.LaneSet) prRun {
	t.Helper()
	app, err := pagerank.New(m, dg, pagerank.Config{Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	app.InitValues()
	stats, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	return prRun{app, stats}
}

func ownerBound(a *pagerank.App) bool {
	main := a.MapBindingForTest()
	_, m := main.(kvmsr.Owner)
	_, r := a.ReduceBindingForTest().(kvmsr.Owner)
	if m != r {
		panic(fmt.Sprintf("bindings disagree: map %T reduce %T", main, a.ReduceBindingForTest()))
	}
	return m
}

// TestOwnerBoundOracle: PageRank, BFS and TC each match the host baseline
// under every shuffle mode and under replicated memory, with a timeline that
// does not depend on the simulator's shard count — both on a 4-node machine
// holding the graph on all four nodes, where the owner-computes bindings
// apply, and on a 3-node machine (graph on two), where they fall back.
// BFS's FirstWins shuffle retires repeat tuples at hand-off on every row;
// PageRank and TC, which do not declare it, retire none.
func TestOwnerBoundOracle(t *testing.T) {
	build := func(scale int) *graph.Graph {
		return graph.FromEdges(1<<scale, graph.DefaultRMAT(scale, 5), graph.BuildOptions{
			Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	}
	g, small := build(10), build(8)
	const root = 28
	wantPR, wantBFS, wantTC := baseline.PageRank(g, 1), baseline.BFS(g, root), baseline.TriangleCount(small)
	prSplit := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 16, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	bfsSplit := graph.Split(g, 16)
	for _, s := range []*graph.SplitGraph{prSplit, bfsSplit} {
		if err := s.ValidateSplit(g); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		cycles  updown.Cycles
		stats   updown.Stats
		retired uint64
	}
	apps := []struct {
		name  string
		split *graph.SplitGraph
		run   func(t *testing.T, m *updown.Machine, dg *graph.DeviceGraph, owner bool) result
	}{
		{"pr", prSplit, func(t *testing.T, m *updown.Machine, dg *graph.DeviceGraph, owner bool) result {
			r := runPROn(t, m, dg, kvmsr.LaneSet{})
			if ownerBound(r.app) != owner {
				t.Fatalf("Owner bindings taken: %v, want %v", !owner, owner)
			}
			comparePR(t, r.app.Values(), wantPR)
			return result{r.app.Elapsed(), r.stats, r.app.TerminationTotals().Retired}
		}},
		{"bfs", bfsSplit, func(t *testing.T, m *updown.Machine, dg *graph.DeviceGraph, _ bool) result {
			app, err := bfs.New(m, dg, bfs.Config{Root: root})
			if err != nil {
				t.Fatal(err)
			}
			app.InitValues()
			stats, err := app.Run()
			if err != nil {
				t.Fatal(err)
			}
			dist, parents := app.Distances(), app.Parents()
			for v, w := range wantBFS {
				switch {
				case w == baseline.Unreached && dist[v] != bfs.Unvisited, w != baseline.Unreached && dist[v] != uint64(w):
					t.Fatalf("vertex %d: simulated dist %d, baseline %d", v, dist[v], w)
				case w != baseline.Unreached && v != root:
					if p := parents[v]; p == bfs.Unvisited || wantBFS[bfsSplit.OrigID[p]] != w-1 {
						t.Fatalf("vertex %d at dist %d: parent %d is not one hop closer", v, w, p)
					}
				}
			}
			return result{app.Elapsed(), stats, app.TerminationTotals().Retired}
		}},
		{"tc", graph.Split(small, 0), func(t *testing.T, m *updown.Machine, dg *graph.DeviceGraph, _ bool) result {
			app, err := tc.New(m, dg, tc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := app.Run()
			if err != nil {
				t.Fatal(err)
			}
			if app.Total() != wantTC || wantTC == 0 {
				t.Fatalf("simulated total %d, baseline %d", app.Total(), wantTC)
			}
			return result{app.Elapsed(), stats, app.TerminationTotals().Retired}
		}},
	}
	for _, mode := range []struct {
		name string
		cfg  updown.Config
	}{
		{"classic", updown.Config{}},
		{"coalesce", updown.Config{Coalesce: &kvmsr.Coalesce{}}},
		{"resilient", updown.Config{Resilience: &kvmsr.Resilience{}}},
		{"replication k=2", updown.Config{Replication: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, app := range apps {
				for _, nodes := range []int{4, 3} {
					var first result
					for _, shards := range []int{1, 2, 3, 7} {
						cfg := mode.cfg
						cfg.Nodes, cfg.Shards = nodes, shards
						// 64-record blocks spread even TC's 256 vertices
						// over the ring.
						pl := graph.DefaultPlacement(nodes)
						pl.BlockBytes = 4 << 10
						m, dg := loadPlaced(t, cfg, app.split, pl)
						_, owner := dg.Owner(m.Arch, m.GAS, kvmsr.AllLanes(m.Arch))
						if owner != (nodes == 4) {
							t.Fatalf("%s, %d nodes: Owner applies: %v", app.name, nodes, owner)
						}
						r := app.run(t, m, dg, owner)
						if (r.retired > 0) != (app.name == "bfs") {
							t.Errorf("%s, %d nodes: %d tuples retired at hand-off", app.name, nodes, r.retired)
						}
						if shards == 1 {
							first = r
						} else if r != first {
							t.Errorf("%s, %d nodes, shards %d: %d cycles %+v\nshards 1: %d cycles %+v",
								app.name, nodes, shards, r.cycles, r.stats, first.cycles, first.stats)
						}
					}
				}
			}
		})
	}
}

// TestOwnerFallsBackToBlock: when the vertex array's nodes are not the lane
// set's, or there is only one, PageRank runs the Block/Hash bindings it
// always had — correct, and in the cycles pinned here. The home-node
// adjacency layout (lists follow their vertex blocks) moved the multi-node
// rows by 8 cycles, once, from 23,299 and 23,316; the node-level drain and
// the tree's roles leaving the accelerators' first lanes moved every row
// once more, from 23,307, 23,324 and 6,346 (the one-node row until then
// cycle for cycle what the commit before the owner binding measured). The
// block-aligned member runs of spread splits reorder the vertices, which
// moved every row again, from 22,846, 22,709 and 6,200. Apply taking each
// member's sum from its reduce lane's combining cache, with no flush launch
// before it, moved every row once more, from 22,827, 22,692 and 6,433.
// Finishing each vertex in the reduce that brings its last expected
// contribution, with no apply launch at all, moved every row again, from
// 17,358, 17,193 and 4,832 (the sums are added in a new order, too).
func TestOwnerFallsBackToBlock(t *testing.T) {
	g := graph.FromEdges(1024, graph.DefaultRMAT(10, 42), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	want := baseline.PageRank(g, 1)
	lpn := arch.DefaultMachine(1).LanesPerNode()
	for _, row := range []struct {
		name   string
		nodes  int
		pl     graph.Placement
		lanes  kvmsr.LaneSet
		cycles updown.Cycles
	}{
		{name: "3-node machine, data on 2", nodes: 3, pl: graph.DefaultPlacement(3), cycles: 14261},
		{name: "mem 2, compute 4", nodes: 4, pl: graph.Placement{NRNodes: 2, BlockBytes: 32 << 10}, cycles: 14331},
		{name: "one node", nodes: 1, pl: graph.DefaultPlacement(1), cycles: 3514},
		{name: "3-node partition of 4, data on its first 2", nodes: 4,
			pl:    graph.Placement{FirstNode: 1, NRNodes: 2, BlockBytes: 32 << 10},
			lanes: kvmsr.LaneSet{First: updown.NetworkID(lpn), Count: 3 * lpn}, cycles: 14261},
	} {
		t.Run(row.name, func(t *testing.T) {
			m, dg := loadPlaced(t, updown.Config{Nodes: row.nodes, Shards: 1}, split, row.pl)
			r := runPROn(t, m, dg, row.lanes)
			if ownerBound(r.app) {
				t.Fatal("Owner bindings chosen")
			}
			if main := r.app.MapBindingForTest(); main != (kvmsr.Block{}) {
				t.Fatalf("map binding %T, want Block", main)
			}
			if _, ok := r.app.ReduceBindingForTest().(kvmsr.Hash); !ok {
				t.Fatalf("reduce binding %T, want Hash", r.app.ReduceBindingForTest())
			}
			comparePR(t, r.app.Values(), want)
			if r.app.Elapsed() != row.cycles {
				t.Errorf("completed in %d cycles, pinned at %d", r.app.Elapsed(), row.cycles)
			}
		})
	}
}

// hubGraph is a ring of hubN vertices, every one of which also points at
// vertex hubV, whose own list splits into a run of members at cap hubMaxDeg.
const hubN, hubV, hubMaxDeg = 1600, 509, 2

func hubGraph(members uint32) *graph.Graph {
	var edges []graph.Edge
	for v := uint32(0); v < hubN; v++ {
		if v != hubV {
			edges = append(edges, graph.Edge{Src: v, Dst: hubV}, graph.Edge{Src: v, Dst: (v + 1) % hubN})
		}
	}
	for i := uint32(0); i < members*hubMaxDeg; i++ {
		edges = append(edges, graph.Edge{Src: hubV, Dst: (hubV + 1 + i) % hubN})
	}
	return graph.FromEdges(hubN, edges, graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortNeighbors: true})
}

// TestHubAcrossBlockBoundary: with in-edge spreading a hub's member run
// lies in one aligned window of IDs, so a 71-member hub that identity order
// would start at record 509 of a 512-record block, its sub-vertices
// spilling into the next block on another node, starts at 512 instead and
// lies on one node. A 600-member hub is longer than a block and cannot: its
// sub-vertices' reports to the base cross the network, and the base still
// sums every member's contributions.
func TestHubAcrossBlockBoundary(t *testing.T) {
	for _, c := range []struct {
		members uint32
		base    uint32
		oneNode bool
	}{
		{71, 512, true},
		{600, 1024, false},
	} {
		g := hubGraph(c.members)
		// Seed 0: identity order but for the singletons pulled forward
		// to align the hub's run.
		split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: hubMaxDeg, SpreadInEdges: true})
		if err := split.ValidateSplit(g); err != nil {
			t.Fatal(err)
		}
		base := split.NewID[hubV]
		if base != c.base || split.SubCount[base] != c.members-1 {
			t.Fatalf("hub base %d with %d subs, want base %d with %d", base, split.SubCount[base], c.base, c.members-1)
		}
		want := baseline.PageRank(g, 2)
		for _, rep := range []int{1, 2} {
			m, err := updown.New(updown.Config{Nodes: 2, Shards: 1, MaxTime: 1 << 40, Replication: rep})
			if err != nil {
				t.Fatal(err)
			}
			dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(2))
			if err != nil {
				t.Fatal(err)
			}
			first, last := m.GAS.NodeOf(dg.RecordVA(base)), m.GAS.NodeOf(dg.RecordVA(base+c.members-1))
			if (first == last) != c.oneNode {
				t.Fatalf("%d-member hub on nodes %d..%d, want one node: %v", c.members, first, last, c.oneNode)
			}
			app, err := pagerank.New(m, dg, pagerank.Config{Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !ownerBound(app) {
				t.Fatal("bindings are not Owner")
			}
			app.InitValues()
			if _, err := app.Run(); err != nil {
				t.Fatal(err)
			}
			comparePR(t, app.Values(), want)
		}
	}
}

// TestCachesEmptyAfterRun: the reduce that completes a vertex's count
// deletes its entry, so after Run no lane's combining cache holds one —
// and finishCheck's other checks hold — for every protocol graph under the
// Owner (2 nodes) and the fallback (3 nodes) bindings, classic, coalesced
// and resilient, each at one, two and three iterations (both
// value-buffer parities). Every such cell runs shards 1, 2 and 7, one per
// iteration count, rotated from cell to cell.
func TestCachesEmptyAfterRun(t *testing.T) {
	modes := []struct {
		name string
		cfg  updown.Config
	}{
		{"classic", updown.Config{}},
		{"coalesce", updown.Config{Coalesce: &kvmsr.Coalesce{}}},
		{"resilient", updown.Config{Resilience: &kvmsr.Resilience{}}},
	}
	cell := 0
	for _, in := range protocolGraphs() {
		if err := in.split.ValidateSplit(in.g); err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			for _, nodes := range []int{2, 3} {
				for iters := 1; iters <= 3; iters++ {
					cfg := mode.cfg
					cfg.Nodes, cfg.Shards = nodes, []int{1, 2, 7}[(cell+iters)%3]
					name := fmt.Sprintf("%s/%s/nodes=%d/shards=%d/iters=%d", in.name, mode.name, nodes, cfg.Shards, iters)
					finishCheck(t, name, cfg, in.g, in.split, iters)
				}
				cell++
			}
		}
	}
}
