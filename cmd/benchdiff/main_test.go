package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFlattenVariantPreference(t *testing.T) {
	raw := json.RawMessage(`{
		"EnginePingPong": {
			"shards=1": {"before": 5.8, "after": 9.7, "speedup": 1.67},
			"shards=4": {"adaptive": 11.1}
		},
		"EngineSparseLane": {
			"shards=2": {"fixed": 3.25}
		},
		"Scalar": 2.5
	}`)
	got := flatten(raw)
	want := map[string]float64{
		"EnginePingPong/shards=1":   9.7,  // "after" wins over before/speedup
		"EnginePingPong/shards=4":   11.1, // "adaptive" accepted
		"EngineSparseLane/shards=2": 3.25, // sole numeric leaf
		"Scalar":                    2.5,  // bare number
	}
	if len(got) != len(want) {
		t.Fatalf("flatten: got %d keys %v, want %d", len(got), got, len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !almost(g, w) {
			t.Errorf("flatten[%q] = %v (present=%v), want %v", k, g, ok, w)
		}
	}
}

func TestFlattenRecursesIntoAmbiguousVariants(t *testing.T) {
	// A multi-variant map with no preferred key is not a leaf: each
	// variant becomes its own comparable configuration.
	raw := json.RawMessage(`{"X": {"shards=1": {"red": 1.0, "blue": 2.0}}}`)
	got := flatten(raw)
	if len(got) != 2 || !almost(got["X/shards=1/red"], 1) || !almost(got["X/shards=1/blue"], 2) {
		t.Fatalf("want per-variant keys, got %v", got)
	}
}

func TestPickSelectors(t *testing.T) {
	bf := &benchFile{Entries: []entry{
		{Date: "2026-08-06", Description: "baseline sweep"},
		{Date: "2026-08-08", Description: "adaptive lookahead"},
		{Date: "2026-08-08", Description: "replication chaos"},
	}}
	cases := []struct {
		sel  string
		want int
	}{
		{"0", 0},
		{"2", 2},
		{"-1", 2},
		{"-3", 0},
		{"2026-08-06", 0},
		{"2026-08-08", 2}, // newest match wins
		{"adaptive", 1},
	}
	for _, c := range cases {
		got, err := bf.pick(c.sel)
		if err != nil {
			t.Errorf("pick(%q): %v", c.sel, err)
			continue
		}
		if got != c.want {
			t.Errorf("pick(%q) = %d, want %d", c.sel, got, c.want)
		}
	}
	for _, bad := range []string{"3", "-4", "nonesuch"} {
		if _, err := bf.pick(bad); err == nil {
			t.Errorf("pick(%q): want error", bad)
		}
	}
}

func TestDiffWorstRegression(t *testing.T) {
	oldFlat := map[string]float64{"a": 10, "b": 20, "only-old": 5}
	newFlat := map[string]float64{"a": 12, "b": 15, "only-new": 7}
	rows, worst := diff(oldFlat, newFlat)
	if len(rows) != 2 {
		t.Fatalf("diff rows = %d, want 2 (common keys only): %v", len(rows), rows)
	}
	if rows[0].name != "a" || rows[1].name != "b" {
		t.Fatalf("rows not sorted by name: %v", rows)
	}
	if !almost(rows[0].pct, 20) || !almost(rows[1].pct, -25) {
		t.Fatalf("pct deltas = %+v", rows)
	}
	if !almost(worst, -25) {
		t.Fatalf("worst = %v, want -25", worst)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: updown/internal/sim
BenchmarkEnginePingPong/shards=1-4         	      20	         0 ns/op	         9.70 Mev/s
BenchmarkEnginePingPong/shards=4-4         	      20	         0 ns/op	        11.13 Mev/s
BenchmarkEngineCrossNodeStorm/shards=2-16  	       5	         0 ns/op	         3.541 Mev/s
PASS
ok  	updown/internal/sim	4.2s
`
	got, err := parseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"EnginePingPong/shards=1":       9.70,
		"EnginePingPong/shards=4":       11.13,
		"EngineCrossNodeStorm/shards=2": 3.541,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d rates %v, want %d", len(got), got, len(want))
	}
	for k, w := range want {
		if !almost(got[k], w) {
			t.Errorf("rate[%q] = %v, want %v", k, got[k], w)
		}
	}
	if _, err := parseBenchOutput("PASS\nok\n"); err == nil {
		t.Error("no benchmark lines: want error")
	}
}

// Acceptance-file shapes: BENCH_kvmsr.json and BENCH_sched.json are
// single top-level documents with "what"/"date" keys, not {"entries":
// [...]} histories. readBenchFile synthesizes a one-entry file from
// them, and flatten must walk the `fig sched` "rows" array.

const kvmsrShapeDoc = `{
  "what": "Shuffle aggregation in KVMSR: before/after",
  "host": "test host",
  "date": "2026-08-06",
  "simulated": {
    "note": "prose to be ignored",
    "pagerank_scale9": {
      "shuffle_msgs": {"before": 5000, "after": 1200},
      "cycles": {"before": 900000, "after": 870000}
    }
  }
}`

const schedShapeDoc = `{
  "what": "Multi-tenant job scheduler sweep",
  "date": "2026-08-08",
  "nodes": 8,
  "rows": [
    {"mean_gap_cycles": 24000, "jobs_per_sec": 70000.0, "p99_ms": 0.04,
     "tenants": [{"tenant": "acme", "done": 13}]},
    {"mean_gap_cycles": 3000, "jobs_per_sec": 139000.0, "p99_ms": 0.13,
     "tenants": [{"tenant": "acme", "done": 12}]}
  ]
}`

func writeDoc(t *testing.T, name, doc string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadBenchFileAdHocShapes(t *testing.T) {
	for _, tc := range []struct {
		name, doc, wantDesc, wantKey string
		wantVal                      float64
	}{
		{"kvmsr", kvmsrShapeDoc, "Shuffle aggregation in KVMSR: before/after",
			"simulated/pagerank_scale9/shuffle_msgs", 1200},
		{"sched", schedShapeDoc, "Multi-tenant job scheduler sweep",
			"rows/1", 139000.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bf, err := readBenchFile(writeDoc(t, "BENCH_"+tc.name+".json", tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			if len(bf.Entries) != 1 {
				t.Fatalf("entries = %d, want 1 synthesized entry", len(bf.Entries))
			}
			if bf.Entries[0].Description != tc.wantDesc {
				t.Fatalf("description = %q, want %q", bf.Entries[0].Description, tc.wantDesc)
			}
			flat := flatten(bf.Entries[0].Benchmarks)
			if got := flat[tc.wantKey]; !almost(got, tc.wantVal) {
				t.Fatalf("%s = %v, want %v (flat: %v)", tc.wantKey, got, tc.wantVal, flat)
			}
		})
	}
	// A document with neither "entries" nor "what"/"date" is rejected.
	if _, err := readBenchFile(writeDoc(t, "junk.json", `{"x": 1}`)); err == nil {
		t.Fatal("shapeless document must be rejected")
	}
}

func TestFlattenWalksArraysAndCollapsesRows(t *testing.T) {
	bf, err := readBenchFile(writeDoc(t, "BENCH_sched.json", schedShapeDoc))
	if err != nil {
		t.Fatal(err)
	}
	flat := flatten(bf.Entries[0].Benchmarks)
	// A row carrying the preferred "jobs_per_sec" key collapses to that
	// throughput; its other fields and the nested tenants array are not
	// separate leaves.
	if got := flat["rows/0"]; !almost(got, 70000.0) {
		t.Fatalf("rows/0 = %v, want 70000 (jobs_per_sec preferred)", got)
	}
	if _, ok := flat["rows/0/p99_ms"]; ok {
		t.Fatal("row with preferred key must collapse, not expand")
	}
	// Top-level scalars survive; prose string leaves do not.
	if got := flat["nodes"]; !almost(got, 8) {
		t.Fatalf("nodes = %v, want 8", got)
	}
	if _, ok := flat["what"]; ok {
		t.Fatal("string leaf leaked into flat map")
	}
}

func TestDiffAcrossAdHocFiles(t *testing.T) {
	// Two sched documents with a throughput regression in row 1: diff
	// must line the rows up by path and report the drop. This is the
	// -file new -old-file old cross-file path.
	newDoc := `{
  "what": "Multi-tenant job scheduler sweep",
  "date": "2026-08-09",
  "nodes": 8,
  "rows": [
    {"mean_gap_cycles": 24000, "jobs_per_sec": 70000.0},
    {"mean_gap_cycles": 3000, "jobs_per_sec": 104250.0}
  ]
}`
	oldBF, err := readBenchFile(writeDoc(t, "old.json", schedShapeDoc))
	if err != nil {
		t.Fatal(err)
	}
	newBF, err := readBenchFile(writeDoc(t, "new.json", newDoc))
	if err != nil {
		t.Fatal(err)
	}
	rows, worst := diff(flatten(oldBF.Entries[0].Benchmarks), flatten(newBF.Entries[0].Benchmarks))
	if len(rows) != 3 { // nodes, rows/0, rows/1
		t.Fatalf("common configurations = %d, want 3 (%+v)", len(rows), rows)
	}
	if !almost(worst, -25) {
		t.Fatalf("worst delta = %v, want -25", worst)
	}
}

func TestFlattenCollapsesServeRows(t *testing.T) {
	// A `fig serve` row carries queries_per_sec plus latency fields: the
	// row collapses to its serving throughput, while the comparison
	// block's plain latency leaves stay individually comparable.
	raw := json.RawMessage(`{
		"fused": {"rows": [
			{"mean_gap_cycles": 4000, "queries_per_sec": 19624.1, "p99_ms": 2.35},
			{"mean_gap_cycles": 2000, "queries_per_sec": 27735.3, "p99_ms": 1.71}
		]},
		"comparison": {
			"saturation_qps": {"fused": 27735.3, "unfused": 10918.9},
			"saturation_p99_ms": {"fused": 1.71, "unfused": 4.36}
		}
	}`)
	got := flatten(raw)
	want := map[string]float64{
		"fused/rows/0":                         19624.1,
		"fused/rows/1":                         27735.3,
		"comparison/saturation_qps/fused":      27735.3,
		"comparison/saturation_qps/unfused":    10918.9,
		"comparison/saturation_p99_ms/fused":   1.71,
		"comparison/saturation_p99_ms/unfused": 4.36,
	}
	if len(got) != len(want) {
		t.Fatalf("flatten: got %d keys %v, want %d", len(got), got, len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !almost(g, w) {
			t.Errorf("flatten[%q] = %v (present=%v), want %v", k, g, ok, w)
		}
	}
}

func TestDiffLatencyPolarity(t *testing.T) {
	// Latency keys invert: p99 dropping from 4 to 2 ms is a +100% gain,
	// rising from 2 to 4 ms is a -50% regression; throughput keys keep
	// higher-is-better polarity.
	oldFlat := map[string]float64{"rows/0/p99_ms": 4, "rows/1/p99_ms": 2, "qps": 10, "comparison/saturation_p99_ms/fused": 4}
	newFlat := map[string]float64{"rows/0/p99_ms": 2, "rows/1/p99_ms": 4, "qps": 10, "comparison/saturation_p99_ms/fused": 2}
	rows, worst := diff(oldFlat, newFlat)
	if len(rows) != 4 {
		t.Fatalf("diff rows = %d, want 4: %v", len(rows), rows)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.name] = r.pct
	}
	if !almost(byName["comparison/saturation_p99_ms/fused"], 100) {
		t.Errorf("improved p99 under a unit-named map = %v, want +100", byName["comparison/saturation_p99_ms/fused"])
	}
	if !almost(byName["rows/0/p99_ms"], 100) {
		t.Errorf("improved p99 pct = %v, want +100", byName["rows/0/p99_ms"])
	}
	if !almost(byName["rows/1/p99_ms"], -50) {
		t.Errorf("regressed p99 pct = %v, want -50", byName["rows/1/p99_ms"])
	}
	if !almost(byName["qps"], 0) {
		t.Errorf("flat qps pct = %v, want 0", byName["qps"])
	}
	if !almost(worst, -50) {
		t.Fatalf("worst = %v, want -50", worst)
	}
}
