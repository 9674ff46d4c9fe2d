package serve_test

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/prng"
	"updown/internal/serve"
)

func testGraph() *graph.Graph {
	return graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
}

func warmServer(t *testing.T, g *graph.Graph, shards int, cfg serve.Config) (*updown.Machine, *serve.Server) {
	t.Helper()
	m, dg := pointqtest.Machine(t, g, 2, shards)
	var err error
	if cfg.BFS, err = bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4}); err != nil {
		t.Fatal(err)
	}
	if cfg.PPR, err = pagerank.NewPoint(m, dg, pagerank.PointConfig{Slots: 4}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, srv
}

// poissonSchedule generates a mixed open-loop schedule, the same way the
// figserve harness does.
func poissonSchedule(n int, gap int64, seed uint64) []serve.Query {
	rng := prng.NewStream(seed ^ uint64(gap))
	qs := make([]serve.Query, n)
	arrive := updown.Cycles(1)
	for i := range qs {
		qs[i] = serve.Query{
			Kind:   serve.Kind(rng.Intn(2)),
			Src:    uint32(rng.Next() % 256),
			Tgt:    uint32(rng.Next() % 256),
			Arrive: arrive,
		}
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		arrive += updown.Cycles(-math.Log(u) * float64(gap))
	}
	return qs
}

// Every answer a shared open-loop stream produces must equal the host
// reference: baseline BFS distances and fixed-point forward-push scores.
// This pins batched, interleaved serving to solo ground truth.
func TestServeMatchesHostReference(t *testing.T) {
	g := testGraph()
	_, srv := warmServer(t, g, 1, serve.Config{FuseWindow: 2048})
	qs := poissonSchedule(32, 3000, 7)
	if err := srv.Run(qs); err != nil {
		t.Fatal(err)
	}
	bfsRefs := map[uint32][]uint32{}
	pprRefs := map[uint32][]uint64{}
	for i := range qs {
		q := &qs[i]
		if q.State != serve.Resolved {
			t.Fatalf("query %d not resolved: state %d", i, q.State)
		}
		if q.Done <= q.Arrive {
			t.Fatalf("query %d: done %d <= arrive %d", i, q.Done, q.Arrive)
		}
		switch q.Kind {
		case serve.KindBFS:
			ref, ok := bfsRefs[q.Src]
			if !ok {
				ref = baseline.BFS(g, q.Src)
				bfsRefs[q.Src] = ref
			}
			if want := ref[q.Tgt]; want == baseline.Unreached {
				if q.Reached {
					t.Fatalf("query %d (bfs %d->%d): reached, want unreached", i, q.Src, q.Tgt)
				}
			} else if !q.Reached || q.Result != uint64(want)+1 {
				t.Fatalf("query %d (bfs %d->%d): got (%d,%v), want dist %d",
					i, q.Src, q.Tgt, q.Result, q.Reached, want)
			}
		case serve.KindPPR:
			ref, ok := pprRefs[q.Src]
			if !ok {
				ref = pagerank.RefScores(g, q.Src, 0)
				pprRefs[q.Src] = ref
			}
			if q.Result != ref[q.Tgt] {
				t.Fatalf("query %d (ppr %d->%d): got %#x, want %#x",
					i, q.Src, q.Tgt, q.Result, ref[q.Tgt])
			}
		}
	}
	st := srv.Stats()
	if st.Served[0]+st.Served[1] != len(qs) {
		t.Fatalf("served %v of %d", st.Served, len(qs))
	}
}

// The full serving timeline — every answer, start, done cycle, slot and
// batch assignment — must be identical at any host shard count.
func TestServeDeterministicAcrossShards(t *testing.T) {
	g := testGraph()
	shardCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	var ref []serve.Query
	for _, sh := range shardCounts {
		_, srv := warmServer(t, g, sh, serve.Config{FuseWindow: 2048})
		qs := poissonSchedule(24, 2000, 11)
		if err := srv.Run(qs); err != nil {
			t.Fatalf("shards=%d: %v", sh, err)
		}
		if ref == nil {
			ref = qs
			continue
		}
		for i := range qs {
			if qs[i] != ref[i] {
				t.Fatalf("shards=%d query %d diverged:\n got %+v\nwant %+v", sh, i, qs[i], ref[i])
			}
		}
	}
}

// A full waiting room sheds instead of queuing unboundedly, and the
// server still terminates with every non-shed query resolved.
func TestServeShedsOnOverload(t *testing.T) {
	g := testGraph()
	_, srv := warmServer(t, g, 1, serve.Config{QueueCap: 2, MaxBatch: 1})
	qs := make([]serve.Query, 16)
	for i := range qs {
		qs[i] = serve.Query{Kind: serve.KindBFS, Src: uint32(i), Tgt: uint32(255 - i), Arrive: 1}
	}
	if err := srv.Run(qs); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ShedN[serve.KindBFS] == 0 {
		t.Fatal("no queries shed with QueueCap=2 under a burst of 16")
	}
	for i := range qs {
		if qs[i].State != serve.Resolved && qs[i].State != serve.Shed {
			t.Fatalf("query %d in state %d", i, qs[i].State)
		}
	}
	if st.Served[serve.KindBFS]+st.ShedN[serve.KindBFS] != len(qs) {
		t.Fatalf("served %d + shed %d != %d", st.Served[serve.KindBFS], st.ShedN[serve.KindBFS], len(qs))
	}
}

// Micro-batching must fuse a simultaneous burst into full batches, and
// the unfused baseline must pay one batch per query.
func TestServeFusionFactor(t *testing.T) {
	g := testGraph()
	burst := func(n int) []serve.Query {
		qs := make([]serve.Query, n)
		for i := range qs {
			qs[i] = serve.Query{Kind: serve.KindBFS, Src: uint32(3 * i), Tgt: uint32(200 - i), Arrive: 1}
		}
		return qs
	}
	_, fused := warmServer(t, g, 1, serve.Config{})
	if err := fused.Run(burst(8)); err != nil {
		t.Fatal(err)
	}
	if got := fused.Stats().Batches[serve.KindBFS]; got != 2 {
		t.Fatalf("fused burst of 8 over 4 slots took %d batches, want 2", got)
	}
	_, unfused := warmServer(t, g, 1, serve.Config{MaxBatch: 1})
	if err := unfused.Run(burst(8)); err != nil {
		t.Fatal(err)
	}
	if got := unfused.Stats().Batches[serve.KindBFS]; got != 8 {
		t.Fatalf("unfused burst of 8 took %d batches, want 8", got)
	}
}

// Outside input must not panic: a schedule with an unknown or unconfigured
// kind, or a vertex outside the graph, is refused up front with
// ErrBadQuery naming the entry — before any query is admitted, so the
// schedule is untouched and the server stays usable.
func TestRunRejectsBadQueries(t *testing.T) {
	m, dg := pointqtest.Machine(t, testGraph(), 2, 1)
	pb, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{BFS: pb})
	if err != nil {
		t.Fatal(err)
	}
	good := serve.Query{Kind: serve.KindBFS, Src: 28, Tgt: 0, Arrive: 1}
	for _, c := range []struct {
		name string
		bad  serve.Query
	}{
		{"unknown kind", serve.Query{Kind: 5, Src: 1, Tgt: 2}},
		{"first kind past the table", serve.Query{Kind: 2, Src: 1, Tgt: 2}},
		{"kind without an engine", serve.Query{Kind: serve.KindPPR, Src: 1, Tgt: 2}},
		{"source out of range", serve.Query{Kind: serve.KindBFS, Src: 100000, Tgt: 2}},
		{"target one past the end", serve.Query{Kind: serve.KindBFS, Src: 1, Tgt: 256}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.bad.Arrive = 2
			qs := []serve.Query{good, c.bad}
			want := append([]serve.Query(nil), qs...)
			err := srv.Run(qs)
			if !errors.Is(err, serve.ErrBadQuery) || !strings.Contains(err.Error(), "query 1:") {
				t.Fatalf("Run = %v, want ErrBadQuery naming query 1", err)
			}
			if !reflect.DeepEqual(qs, want) {
				t.Fatalf("rejected schedule was mutated:\n got %+v\nwant %+v", qs, want)
			}
		})
	}
	qs := []serve.Query{good}
	if err := srv.Run(qs); err != nil || qs[0].State != serve.Resolved {
		t.Fatalf("server unusable after rejections: err %v, state %v", err, qs[0].State)
	}
}
