package harness

import (
	"encoding/json"
	"runtime"
	"testing"
)

// The whole serving sweep payload — every qps, latency percentile and
// fusion factor — must serialize byte-identically at any host shard
// count: the benchmark is a pure function of the simulated timeline.
func TestFigServeShardInvariant(t *testing.T) {
	opt := FigServeOptions{Queries: 12, Gaps: []int64{16000, 4000}}
	var ref []byte
	for _, sh := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		o := opt
		o.Shards = sh
		res, err := FigServe(o)
		if err != nil {
			t.Fatalf("shards=%d: %v", sh, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if string(b) != string(ref) {
			t.Fatalf("shards=%d payload diverged:\n got %s\nwant %s", sh, b, ref)
		}
	}
}

// Micro-batched serving must beat the one-query-per-cycle baseline at
// saturation: strictly higher throughput at equal or better p99. This is
// the PR's acceptance bar, enforced on every run, not just the checked-in
// bench file.
func TestFigServeFusionWins(t *testing.T) {
	res, err := FigServe(FigServeOptions{Queries: 24, Gaps: []int64{4000}})
	if err != nil {
		t.Fatal(err)
	}
	f, u := res.Fused.Rows[0], res.Unfused.Rows[0]
	if f.Served != f.Queries || u.Served != u.Queries {
		t.Fatalf("incomplete sweep: fused %d/%d, unfused %d/%d served",
			f.Served, f.Queries, u.Served, u.Queries)
	}
	if f.QPS <= u.QPS {
		t.Fatalf("fused qps %.1f not above unfused %.1f", f.QPS, u.QPS)
	}
	if f.P99Ms > u.P99Ms {
		t.Fatalf("fused p99 %.4f ms worse than unfused %.4f ms", f.P99Ms, u.P99Ms)
	}
	if f.FusedPerBatch <= 1 {
		t.Fatalf("fusion factor %.2f: no batching happened", f.FusedPerBatch)
	}
	if u.FusedPerBatch != 1 {
		t.Fatalf("unfused baseline fused %.2f queries/batch, want exactly 1", u.FusedPerBatch)
	}
}

// A machine of the paper's node shape (32 accelerators x 64 lanes) serves
// with the engines' default slots, one per accelerator: 128 slots per
// engine on 4 nodes, every query resolved.
func TestFigServePaperNodes(t *testing.T) {
	res, err := FigServe(FigServeOptions{Nodes: 4, AccelsPerNode: 32, LanesPerAccel: 64, Scale: 6, Queries: 4, Gaps: []int64{32000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 128 {
		t.Fatalf("%d slots, want one per accelerator (128)", res.Slots)
	}
	for _, r := range []ServeRow{res.Fused.Rows[0], res.Unfused.Rows[0]} {
		if r.Served != r.Queries {
			t.Fatalf("%d of %d queries resolved", r.Served, r.Queries)
		}
	}
}
