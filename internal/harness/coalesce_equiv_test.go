package harness

// Equivalence tests for the coalescing shuffle: with Spec.Coalesce the
// packed shuffle must produce exactly the results of the classic
// one-message-per-tuple shuffle — bit-identical
// for the integer applications (BFS, TC, ingestion), epsilon-equal for
// PageRank, whose float contributions arrive (and therefore sum) in a
// different order. Coalesced runs must also be deterministic: byte-equal
// results at any host shard count, and unchanged under message faults when
// combined with the resilient shuffle.

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/ingest"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/tc"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/tform"
)

// equivShards is the host-parallelism sweep of the equivalence tests: the
// serial engine, an even split, a deliberately odd split, and whatever
// this host really uses.
func equivShards() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

func equivMachine(t *testing.T, shards int, coalesce bool, res *kvmsr.Resilience, plan *fault.Plan) *updown.Machine {
	t.Helper()
	m, err := updown.New(updown.Config{
		Nodes: 2, Shards: shards, MaxTime: 1 << 44,
		Coalesce:   coalesceConfig(coalesce),
		Resilience: res, Fault: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func faultPlan() *fault.Plan {
	return &fault.Plan{Seed: 7, Rules: []fault.MsgRule{{
		DropProb: 0.05, DupProb: 0.02,
		SrcNode: fault.AnyNode, DstNode: fault.AnyNode,
	}}}
}

type bfsResult struct {
	dist      []uint64
	rounds    int
	traversed uint64
	stats     updown.Stats
}

func runEquivBFS(t *testing.T, shards int, coalesce bool, res *kvmsr.Resilience, plan *fault.Plan) bfsResult {
	t.Helper()
	g := graph.FromEdges(1<<10, graph.DefaultRMAT(10, 42), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	m := equivMachine(t, shards, coalesce, res, plan)
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 256), graph.DefaultPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	app, err := bfs.New(m, dg, bfs.Config{Root: 28})
	if err != nil {
		t.Fatal(err)
	}
	app.InitValues()
	stats, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out := app.Outstanding(); out != 0 {
		t.Fatalf("%d emits unacked after quiescence", out)
	}
	return bfsResult{dist: app.Distances(), rounds: app.Rounds, traversed: app.Traversed, stats: stats}
}

func compareBFSResults(t *testing.T, label string, got, want bfsResult) {
	t.Helper()
	if got.rounds != want.rounds || got.traversed != want.traversed {
		t.Fatalf("%s: rounds/traversed %d/%d, want %d/%d",
			label, got.rounds, got.traversed, want.rounds, want.traversed)
	}
	for v := range want.dist {
		if got.dist[v] != want.dist[v] {
			t.Fatalf("%s: distance[%d] = %d, want %d", label, v, got.dist[v], want.dist[v])
		}
	}
}

// TestCoalescedBFSEquivalence: coalesced BFS results are bit-identical to
// the classic shuffle at every host shard count (which simultaneously
// proves coalesced runs deterministic under host parallelism), while
// strictly fewer shuffle messages enter the inter-node network.
func TestCoalescedBFSEquivalence(t *testing.T) {
	golden := runEquivBFS(t, 1, false, nil, nil)
	if golden.stats.ShuffleMsgs == 0 || golden.stats.ShuffleTuples == 0 {
		t.Fatal("classic run reported no shuffle traffic; test is vacuous")
	}
	for _, shards := range equivShards() {
		got := runEquivBFS(t, shards, true, nil, nil)
		compareBFSResults(t, "coalesced/shards="+strconv.Itoa(shards), got, golden)
		if got.stats.ShuffleTuples != golden.stats.ShuffleTuples {
			t.Fatalf("shards=%d: coalesced tuples %d, classic %d",
				shards, got.stats.ShuffleTuples, golden.stats.ShuffleTuples)
		}
		if got.stats.ShuffleMsgs >= golden.stats.ShuffleMsgs {
			t.Fatalf("shards=%d: coalesced network messages %d not below classic %d",
				shards, got.stats.ShuffleMsgs, golden.stats.ShuffleMsgs)
		}
	}
}

// TestCoalescedResilientBFSUnderFaults: coalescing composed with the
// resilient shuffle survives 5% drop + 2% duplication with results
// bit-identical to the fault-free classic run — acks retire packed
// messages, dedup admits each packed message (hence each tuple) once.
func TestCoalescedResilientBFSUnderFaults(t *testing.T) {
	golden := runEquivBFS(t, 1, false, nil, nil)
	got := runEquivBFS(t, 2, true, &kvmsr.Resilience{}, faultPlan())
	compareBFSResults(t, "coalesced+resilient+faults", got, golden)
	if got.stats.Faults.Dropped == 0 {
		t.Fatal("fault plan dropped nothing; test is vacuous")
	}
}

func runEquivPR(t *testing.T, shards int, coalesce bool) ([]float64, updown.Stats) {
	t.Helper()
	g := graph.FromEdges(1<<10, graph.DefaultRMAT(10, 42), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	m := equivMachine(t, shards, coalesce, nil, nil)
	split := graph.SplitWith(g, graph.SplitOptions{
		MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	app, err := pagerank.New(m, dg, pagerank.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	app.InitValues()
	stats, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	return app.Values(), stats
}

// TestCoalescedPageRankEpsilon: coalesced PageRank is epsilon-equal to the
// classic run — float summation order changes when tuples pack, so ranks
// reassociate; they may differ only in
// the last bits. Coalesced results must still be byte-identical across
// host shard counts.
func TestCoalescedPageRankEpsilon(t *testing.T) {
	golden, gstats := runEquivPR(t, 1, false)
	var first []float64
	for _, shards := range equivShards() {
		got, stats := runEquivPR(t, shards, true)
		if len(got) != len(golden) {
			t.Fatalf("shards=%d: %d ranks, want %d", shards, len(got), len(golden))
		}
		for v := range golden {
			diff := math.Abs(got[v] - golden[v])
			if diff > 1e-9*math.Abs(golden[v])+1e-13 {
				t.Fatalf("shards=%d: rank[%d] = %g, classic %g (diff %g)",
					shards, v, got[v], golden[v], diff)
			}
		}
		if first == nil {
			first = got
		} else {
			for v := range first {
				if math.Float64bits(got[v]) != math.Float64bits(first[v]) {
					t.Fatalf("shards=%d: coalesced rank[%d] not deterministic across shard counts", shards, v)
				}
			}
		}
		if stats.ShuffleMsgs >= gstats.ShuffleMsgs {
			t.Fatalf("shards=%d: coalesced network messages %d not below classic %d",
				shards, stats.ShuffleMsgs, gstats.ShuffleMsgs)
		}
	}
}

func runEquivTC(t *testing.T, shards int, coalesce bool, res *kvmsr.Resilience, plan *fault.Plan) (uint64, updown.Stats) {
	t.Helper()
	g := graph.FromEdges(1<<8, graph.DefaultRMAT(8, 77), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	m := equivMachine(t, shards, coalesce, res, plan)
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 0), graph.DefaultPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.New(m, dg, tc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	return app.Total(), stats
}

// TestCoalescedTCEquivalence: coalesced triangle counting is bit-identical
// to the classic shuffle (integer totals are order-insensitive), with
// strictly fewer network messages — and stays
// bit-identical under faults with the resilient shuffle.
func TestCoalescedTCEquivalence(t *testing.T) {
	golden, gstats := runEquivTC(t, 1, false, nil, nil)
	if golden == 0 {
		t.Fatal("workload has no triangles; test is vacuous")
	}
	for _, shards := range equivShards() {
		got, stats := runEquivTC(t, shards, true, nil, nil)
		if got != golden {
			t.Fatalf("shards=%d: coalesced total %d, classic %d", shards, got, golden)
		}
		if stats.ShuffleMsgs >= gstats.ShuffleMsgs {
			t.Fatalf("shards=%d: coalesced network messages %d not below classic %d",
				shards, stats.ShuffleMsgs, gstats.ShuffleMsgs)
		}
	}
	faulted, fstats := runEquivTC(t, 2, true, &kvmsr.Resilience{}, faultPlan())
	if faulted != golden {
		t.Fatalf("coalesced+resilient+faults total %d, classic %d", faulted, golden)
	}
	if fstats.Faults.Dropped == 0 {
		t.Fatal("fault plan dropped nothing; test is vacuous")
	}
}

// TestCoalescedIngestEquivalence: ingestion is map-only — its shuffle
// carries no tuples, so Coalesce must be accepted and be an exact no-op
// (same record count, same simulated cycles).
func TestCoalescedIngestEquivalence(t *testing.T) {
	run := func(coalesce bool) (uint64, updown.Cycles) {
		data, _ := tform.GenCSV(2000, 1<<22, 8, 7)
		m := equivMachine(t, 2, coalesce, nil, nil)
		app, err := ingest.New(m, data, ingest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(); err != nil {
			t.Fatal(err)
		}
		return app.Records, app.Elapsed()
	}
	recs, cyc := run(false)
	crecs, ccyc := run(true)
	if crecs != recs || ccyc != cyc {
		t.Fatalf("coalesced ingest %d records in %d cycles, classic %d in %d",
			crecs, ccyc, recs, cyc)
	}
}
