// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure (reduced scale; cmd/fig's subcommands run the same
// harnesses with larger sweeps), plus microbenchmarks for the Table 2 cost
// model, ablations of the design choices called out in DESIGN.md, and
// host-side comparators.
//
// Reported custom metrics:
//
//	sim-cycles      simulated completion time of the largest configuration
//	speedup         largest-vs-smallest configuration speedup
//	GUPS/GTEPS/...  simulated application throughput
//	host-Mev/s      host-side simulator throughput (events per second)
package updown_test

import (
	"testing"
	"time"

	"updown"
	"updown/internal/apps/pagerank"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/harness"
	"updown/internal/kvmsr"
)

// benchGraph builds the shared benchmark workload.
func benchGraph(scale int, undirected bool) *graph.Graph {
	return graph.FromEdges(1<<scale, graph.DefaultRMAT(scale, 42), graph.BuildOptions{
		Undirected: undirected, Dedup: true, DropSelfLoops: true, SortNeighbors: true,
	})
}

func reportTables(b *testing.B, tables []*harness.Table) {
	b.Helper()
	last := tables[len(tables)-1]
	lastRow := last.Rows[len(last.Rows)-1]
	b.ReportMetric(float64(lastRow.Cycles), "sim-cycles")
	b.ReportMetric(lastRow.Speedup, "speedup")
	b.ReportMetric(lastRow.Metric, last.MetricName)
}

// BenchmarkFigure9PageRank regenerates Figure 9 (left) / Table 8.
func BenchmarkFigure9PageRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := harness.Fig9PageRank(harness.Fig9Options{
			Scale: 12, Nodes: []int{1, 4}, Presets: []string{"rmat"},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, tables)
	}
}

// BenchmarkFigure9BFS regenerates Figure 9 (center) / Table 9.
func BenchmarkFigure9BFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := harness.Fig9BFS(harness.Fig9Options{
			Scale: 12, Nodes: []int{1, 4}, Presets: []string{"rmat"},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, tables)
	}
}

// BenchmarkFigure9TC regenerates Figure 9 (right) / Table 10.
func BenchmarkFigure9TC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := harness.Fig9TC(harness.Fig9Options{
			Scale: 10, Nodes: []int{1, 4}, Presets: []string{"rmat"},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, tables)
	}
}

// BenchmarkFigure10Ingestion regenerates Figure 10 / Table 11.
func BenchmarkFigure10Ingestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := harness.Fig10Ingestion(harness.Fig10Options{
			BaseRecords: 2000, Multipliers: []float64{1}, Nodes: []int{1, 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, tables)
	}
}

// BenchmarkFigure11PartialMatch regenerates Figure 11 / Table 12.
func BenchmarkFigure11PartialMatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := harness.Fig11PartialMatch(harness.Fig11Options{
			Records: 400, LaneCounts: []int{256, 2048},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, []*harness.Table{tb})
	}
}

// BenchmarkFigure12Placement regenerates Figure 12.
func BenchmarkFigure12Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := harness.Fig12Placement(harness.Fig12Options{
			ComputeNodes: 4, MemNodes: []int{1, 4}, Scale: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, tables)
	}
}

// BenchmarkTable2LaneOps measures the simulated cost of the fine-grained
// primitives of the paper's Table 2: a chain of minimal events (thread
// create + dispatch + send + terminate) must cost ~10 cycles each.
func BenchmarkTable2LaneOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := updown.New(updown.Config{Nodes: 1, Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		const hops = 10000
		var ev updown.Label
		ev = m.Prog.Define("hop", func(c *updown.Ctx) {
			if c.Op(0) > 0 {
				c.SendEvent(updown.EvwNew(c.NetworkID(), ev), updown.IGNRCONT, c.Op(0)-1)
			}
			c.YieldTerminate()
		})
		m.Start(updown.EvwNew(0, ev), hops)
		stats, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.FinalTime)/hops, "cycles/event")
	}
}

// BenchmarkKVMSRShuffle compares the classic one-message-per-tuple shuffle
// against the coalescing shuffle on PageRank over two nodes, and
// asserts the coalesced run puts strictly fewer shuffle messages on the
// inter-node network — the CI bench-smoke gate for the aggregation layer.
func BenchmarkKVMSRShuffle(b *testing.B) {
	g := benchGraph(12, false)
	split := graph.SplitWith(g, graph.SplitOptions{
		MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	run := func(coalesce bool) (updown.Stats, updown.Cycles) {
		var coal *kvmsr.Coalesce
		if coalesce {
			coal = &kvmsr.Coalesce{}
		}
		m, err := updown.New(updown.Config{Nodes: 2, Coalesce: coal})
		if err != nil {
			b.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(2))
		if err != nil {
			b.Fatal(err)
		}
		app, err := pagerank.New(m, dg, pagerank.Config{})
		if err != nil {
			b.Fatal(err)
		}
		app.InitValues()
		stats, err := app.Run()
		if err != nil {
			b.Fatal(err)
		}
		return stats, app.Elapsed()
	}
	for i := 0; i < b.N; i++ {
		classic, classicCycles := run(false)
		packed, packedCycles := run(true)
		if packed.ShuffleMsgs >= classic.ShuffleMsgs {
			b.Fatalf("coalesced shuffle sent %d network messages, classic %d — packing regressed",
				packed.ShuffleMsgs, classic.ShuffleMsgs)
		}
		if packed.ShuffleTuples != classic.ShuffleTuples {
			b.Fatalf("coalesced logical tuples %d, classic %d — termination accounting broken",
				packed.ShuffleTuples, classic.ShuffleTuples)
		}
		b.ReportMetric(float64(classic.ShuffleMsgs), "classic-msgs")
		b.ReportMetric(float64(packed.ShuffleMsgs), "coalesced-msgs")
		b.ReportMetric(float64(packed.ShuffleTuples)/float64(packed.ShuffleMsgs), "tup/msg")
		b.ReportMetric(float64(classicCycles), "classic-cycles")
		b.ReportMetric(float64(packedCycles), "coalesced-cycles")
	}
}

// BenchmarkEngineShards measures the host-side benefit of the conservative
// window-parallel simulation (Fastsim's OpenMP parallelism analogue): the
// same workload under 1 vs auto shards, reporting simulator throughput.
func BenchmarkEngineShards(b *testing.B) {
	g := benchGraph(12, false)
	split := graph.Split(g, 512)
	bench := func(b *testing.B, shards int) {
		for i := 0; i < b.N; i++ {
			m, err := updown.New(updown.Config{Nodes: 8, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(8))
			if err != nil {
				b.Fatal(err)
			}
			app, err := pagerank.New(m, dg, pagerank.Config{})
			if err != nil {
				b.Fatal(err)
			}
			app.InitValues()
			start := time.Now()
			stats, err := app.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.Events)/time.Since(start).Seconds()/1e6, "host-Mev/s")
		}
	}
	b.Run("sequential", func(b *testing.B) { bench(b, 1) })
	b.Run("parallel", func(b *testing.B) { bench(b, 0) })
}

// BenchmarkHostBaselines measures the conventional multicore comparators
// on the host CPU — the stand-in for the paper's Perlmutter/EOS numbers.
func BenchmarkHostBaselines(b *testing.B) {
	g := benchGraph(16, true)
	b.Run("PageRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.PageRankParallel(g, 1, 0)
		}
		b.ReportMetric(float64(g.NumEdges()), "edges")
	})
	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.BFSParallel(g, 28, 0)
		}
	})
	b.Run("TC", func(b *testing.B) {
		small := benchGraph(13, true)
		for i := 0; i < b.N; i++ {
			baseline.TriangleCountParallel(small, 0)
		}
	})
}

// BenchmarkKVMSROverhead isolates the fixed cost of one KVMSR invocation
// (hierarchical broadcast + termination detection) by running an empty
// doAll over the whole machine at several node counts.
func BenchmarkKVMSROverhead(b *testing.B) {
	for _, nodes := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "1node", 4: "4nodes", 16: "16nodes"}[nodes], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := updown.New(updown.Config{Nodes: nodes})
				if err != nil {
					b.Fatal(err)
				}
				var inv *kvmsr.Invocation
				body := m.Prog.Define("noop", func(c *updown.Ctx) {
					inv.Return(c, c.Cont())
					c.YieldTerminate()
				})
				inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
					Name: "empty", MapEvent: body, Lanes: kvmsr.AllLanes(m.Arch),
				})
				m.Start(inv.LaunchEvw(), 0)
				stats, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.FinalTime), "overhead-cycles")
			}
		})
	}
}
