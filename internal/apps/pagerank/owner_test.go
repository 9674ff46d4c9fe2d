package pagerank_test

import (
	"fmt"
	"testing"

	"updown"
	"updown/internal/apps/pagerank"
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

// runPlaced loads split under pl on the machine cfg describes and runs one
// iteration over lanes (zero = the whole machine).
func runPlaced(t *testing.T, cfg updown.Config, split *graph.SplitGraph, pl graph.Placement, lanes kvmsr.LaneSet, combine bool) prRun {
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
	app, err := pagerank.New(m, dg, pagerank.Config{Lanes: lanes, Combine: combine})
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
	main, apply := a.MapBindingForTest()
	_, m := main.(kvmsr.Owner)
	_, ap := apply.(kvmsr.Owner)
	_, r := a.ReduceBindingForTest().(kvmsr.Owner)
	if m != ap || m != r {
		panic(fmt.Sprintf("bindings disagree: map %T apply %T reduce %T", main, apply, a.ReduceBindingForTest()))
	}
	return m
}

// TestOwnerBoundOracle: on a 4-node machine holding the graph on all four
// nodes PageRank takes the owner-computes bindings, and under every shuffle
// mode and under replicated memory it matches the host baseline with a
// timeline that does not depend on the simulator's shard count.
func TestOwnerBoundOracle(t *testing.T) {
	g := graph.FromEdges(2048, graph.DefaultRMAT(11, 5), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 16, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	if err := split.ValidateSplit(g); err != nil {
		t.Fatal(err)
	}
	want := baseline.PageRank(g, 1)
	for _, mode := range []struct {
		name    string
		cfg     updown.Config
		combine bool
	}{
		{"classic", updown.Config{}, false},
		{"coalesce", updown.Config{Coalesce: &kvmsr.Coalesce{}}, false},
		{"coalesce+combine", updown.Config{Coalesce: &kvmsr.Coalesce{}}, true},
		{"resilient", updown.Config{Resilience: &kvmsr.Resilience{}}, false},
		{"replication k=2", updown.Config{Replication: 2}, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var first prRun
			for _, shards := range []int{1, 2, 3, 7} {
				cfg := mode.cfg
				cfg.Nodes, cfg.Shards = 4, shards
				r := runPlaced(t, cfg, split, graph.DefaultPlacement(4), kvmsr.LaneSet{}, mode.combine)
				if !ownerBound(r.app) {
					t.Fatal("data and lanes on the same 4 nodes, but the bindings are not Owner")
				}
				comparePR(t, r.app.Values(), want)
				if shards == 1 {
					first = r
				} else if r.app.Elapsed() != first.app.Elapsed() || r.stats != first.stats {
					t.Errorf("shards %d: %d cycles %+v\nshards 1: %d cycles %+v",
						shards, r.app.Elapsed(), r.stats, first.app.Elapsed(), first.stats)
				}
			}
		})
	}
}

// TestOwnerFallsBackToBlock: when the vertex array's nodes are not the lane
// set's, or there is only one, PageRank runs the Block/Hash bindings it
// always had — correct, and cycle for cycle what the commit before the owner
// binding measured on the same point.
func TestOwnerFallsBackToBlock(t *testing.T) {
	g := graph.FromEdges(1024, graph.DefaultRMAT(10, 42), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	want := baseline.PageRank(g, 1)
	lpn := arch.DefaultMachine(1).LanesPerNode()
	for _, tc := range []struct {
		name   string
		nodes  int
		pl     graph.Placement
		lanes  kvmsr.LaneSet
		cycles updown.Cycles // at the parent commit
	}{
		{name: "3-node machine, data on 2", nodes: 3, pl: graph.DefaultPlacement(3), cycles: 23299},
		{name: "mem 2, compute 4", nodes: 4, pl: graph.Placement{NRNodes: 2, BlockBytes: 32 << 10}, cycles: 23316},
		{name: "one node", nodes: 1, pl: graph.DefaultPlacement(1), cycles: 6346},
		{name: "3-node partition of 4, data on its first 2", nodes: 4,
			pl:    graph.Placement{FirstNode: 1, NRNodes: 2, BlockBytes: 32 << 10},
			lanes: kvmsr.LaneSet{First: updown.NetworkID(lpn), Count: 3 * lpn}, cycles: 23299},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runPlaced(t, updown.Config{Nodes: tc.nodes, Shards: 1}, split, tc.pl, tc.lanes, false)
			if ownerBound(r.app) {
				t.Fatal("Owner bindings chosen")
			}
			if main, _ := r.app.MapBindingForTest(); main != (kvmsr.Block{}) {
				t.Fatalf("map binding %T, want Block", main)
			}
			if _, ok := r.app.ReduceBindingForTest().(kvmsr.Hash); !ok {
				t.Fatalf("reduce binding %T, want Hash", r.app.ReduceBindingForTest())
			}
			comparePR(t, r.app.Values(), want)
			if r.app.Elapsed() != tc.cycles {
				t.Errorf("completed in %d cycles, the parent commit in %d", r.app.Elapsed(), tc.cycles)
			}
		})
	}
}

// TestHubAcrossBlockBoundary: a hub whose base member is vertex 509 of a
// 512-record block and whose 70 sub-vertices spill into the next block —
// on another node — still aggregates every member's accumulator. (It is the
// one remote tail left in the apply phase: the base's task runs on the node
// homing record 509 and reads the other members' sums across the network.)
func TestHubAcrossBlockBoundary(t *testing.T) {
	const n, hub, maxDeg = 800, 509, 4
	var edges []graph.Edge
	for v := uint32(0); v < n; v++ {
		if v == hub {
			continue
		}
		edges = append(edges, graph.Edge{Src: v, Dst: hub}, graph.Edge{Src: v, Dst: (v + 1) % n})
	}
	for i := uint32(0); i < 71*maxDeg; i++ { // 71 members
		edges = append(edges, graph.Edge{Src: hub, Dst: (hub + 1 + i) % n})
	}
	g := graph.FromEdges(n, edges, graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	// Seed 0: identity order, so the hub's base member keeps ID 509.
	split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: maxDeg, SpreadInEdges: true})
	if err := split.ValidateSplit(g); err != nil {
		t.Fatal(err)
	}
	if split.NewID[hub] != hub || split.SubCount[hub] != 70 {
		t.Fatalf("hub base %d with %d subs, want base %d with 70", split.NewID[hub], split.SubCount[hub], hub)
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
		if a, b := m.GAS.NodeOf(dg.RecordVA(hub)), m.GAS.NodeOf(dg.RecordVA(hub+70)); a == b {
			t.Fatalf("hub members all on node %d", a)
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
