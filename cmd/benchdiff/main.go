// Command benchdiff compares engine micro-benchmark results across
// BENCH_sim.json entries, or against a fresh run of the benchmarks on
// the current tree, and fails when host throughput regressed beyond a
// threshold. It is the repo's cheap perf-regression tripwire: CI runs it
// as a soft (non-blocking) step, and a PR that touches the engine can
// run it locally before claiming a speedup.
//
//	benchdiff                          # newest entry vs the one before it
//	benchdiff -old 0 -new -1           # first entry vs newest
//	benchdiff -old 2026-08-06          # select by date (or description substring)
//	benchdiff -head                    # run the benchmarks now, compare vs newest entry
//	benchdiff -head -max-regress 10    # fail on >10% host-Mev/s drop
//	benchdiff -file new.json -old-file BENCH_sched.json   # cross-file compare
//
// Entries store per-benchmark variant maps ({"before": ..., "after":
// ...} or {"adaptive": ...}); the comparison reads each configuration's
// preferred variant — "after", then "adaptive", then "jobs_per_sec",
// then "queries_per_sec", then the sole numeric value — so entries with
// different variant vocabularies still line up. Only configurations
// present on both sides are compared. Latency-style keys (*_ms,
// *_cycles) compare with inverted polarity: a p99_ms increase is the
// regression.
//
// Besides the {"entries": [...]} history shape, benchdiff also reads
// the single-document acceptance files (BENCH_kvmsr.json,
// BENCH_sched.json): a top-level object with "what"/"date" keys becomes
// a one-entry file whose every numeric leaf — including leaves inside
// JSON arrays such as `fig sched`'s "rows" — is a comparable
// configuration. Use -old-file to diff one file against another.
//
// Exit status: 0 when no benchmark regressed beyond -max-regress, 1 when
// one did, 2 on usage or data errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	file := flag.String("file", "BENCH_sim.json", "benchmark history file")
	oldFile := flag.String("old-file", "", "read the baseline entry from this file instead of -file")
	oldSel := flag.String("old", "", "baseline entry: index (negative = from end), date, or description substring (default: the entry before -new, or the newest with -head)")
	newSel := flag.String("new", "", "candidate entry: same selectors (default: the newest entry)")
	head := flag.Bool("head", false, "benchmark the current tree (go test -bench) as the candidate instead of reading an entry")
	maxRegress := flag.Float64("max-regress", 25, "fail when any benchmark's host rate drops more than this percent")
	bench := flag.String("bench", "BenchmarkEngine", "with -head: benchmark name pattern to run")
	benchtime := flag.String("benchtime", "5x", "with -head: -benchtime passed to go test")
	pkg := flag.String("pkg", "./internal/sim/", "with -head: package holding the benchmarks")
	flag.Parse()

	bf, err := readBenchFile(*file)
	if err != nil {
		fatal(err)
	}
	obf := bf // baseline source; -old-file redirects it
	if *oldFile != "" && *oldFile != *file {
		if obf, err = readBenchFile(*oldFile); err != nil {
			fatal(err)
		}
	}
	oldLabel := func(i int) string {
		if obf != bf {
			return *oldFile + " " + obf.label(i)
		}
		return obf.label(i)
	}

	var oldFlat, newFlat map[string]float64
	var oldName, newName string
	if *head {
		oldIdx := len(obf.Entries) - 1
		if *oldSel != "" {
			if oldIdx, err = obf.pick(*oldSel); err != nil {
				fatal(err)
			}
		}
		oldFlat = flatten(obf.Entries[oldIdx].Benchmarks)
		oldName = oldLabel(oldIdx)
		fmt.Printf("running %s %s in %s ...\n", *bench, *benchtime, *pkg)
		if newFlat, err = runHead(*bench, *benchtime, *pkg); err != nil {
			fatal(err)
		}
		newName = "HEAD (" + *bench + " " + *benchtime + ")"
	} else {
		newIdx := len(bf.Entries) - 1
		if *newSel != "" {
			if newIdx, err = bf.pick(*newSel); err != nil {
				fatal(err)
			}
		}
		// Same-file default baseline is the entry before the candidate;
		// cross-file it is the other file's newest entry.
		oldIdx := newIdx - 1
		if obf != bf {
			oldIdx = len(obf.Entries) - 1
		}
		if *oldSel != "" {
			if oldIdx, err = obf.pick(*oldSel); err != nil {
				fatal(err)
			}
		}
		if oldIdx < 0 || oldIdx >= len(obf.Entries) {
			fatal(fmt.Errorf("no baseline entry before %q (file has %d entries)", bf.label(newIdx), len(obf.Entries)))
		}
		oldFlat = flatten(obf.Entries[oldIdx].Benchmarks)
		newFlat = flatten(bf.Entries[newIdx].Benchmarks)
		oldName, newName = oldLabel(oldIdx), bf.label(newIdx)
	}

	rows, worst := diff(oldFlat, newFlat)
	if len(rows) == 0 {
		fatal(fmt.Errorf("no common benchmark configurations between %q and %q", oldName, newName))
	}
	fmt.Printf("old: %s\nnew: %s\n\n", oldName, newName)
	fmt.Printf("%-40s %10s %10s %9s\n", "benchmark", "old", "new", "delta%")
	for _, r := range rows {
		fmt.Printf("%-40s %10.3f %10.3f %+9.1f\n", r.name, r.old, r.new, r.pct)
	}
	if worst < -*maxRegress {
		fmt.Printf("\nFAIL: worst regression %.1f%% exceeds -max-regress %.0f%%\n", worst, *maxRegress)
		os.Exit(1)
	}
	fmt.Printf("\nok: worst delta %+.1f%% within -max-regress %.0f%%\n", worst, *maxRegress)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// entry is one BENCH_sim.json record; Benchmarks stays raw so flatten
// can walk arbitrarily nested variant maps.
type entry struct {
	Description string          `json:"description"`
	Date        string          `json:"date"`
	Unit        string          `json:"unit"`
	Benchmarks  json.RawMessage `json:"benchmarks"`
}

type benchFile struct {
	Entries []entry `json:"entries"`
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Entries) == 0 {
		// Acceptance files (BENCH_kvmsr.json, BENCH_sched.json) are a
		// single top-level object with "what"/"date" keys rather than an
		// "entries" history: synthesize a one-entry file from the whole
		// document. String leaves are ignored by flatten, so the prose
		// fields cost nothing.
		var doc struct {
			What string `json:"what"`
			Date string `json:"date"`
		}
		if err := json.Unmarshal(b, &doc); err == nil && (doc.What != "" || doc.Date != "") {
			bf.Entries = []entry{{Description: doc.What, Date: doc.Date, Benchmarks: json.RawMessage(b)}}
			return &bf, nil
		}
		return nil, fmt.Errorf("%s: no entries", path)
	}
	return &bf, nil
}

// pick resolves an entry selector: an integer index (negative counts
// from the end), or a substring of the entry's date or description (the
// newest match wins).
func (bf *benchFile) pick(sel string) (int, error) {
	if i, err := strconv.Atoi(sel); err == nil {
		if i < 0 {
			i += len(bf.Entries)
		}
		if i < 0 || i >= len(bf.Entries) {
			return 0, fmt.Errorf("entry index %s out of range (file has %d entries)", sel, len(bf.Entries))
		}
		return i, nil
	}
	for i := len(bf.Entries) - 1; i >= 0; i-- {
		e := &bf.Entries[i]
		if strings.Contains(e.Date, sel) || strings.Contains(e.Description, sel) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no entry matches %q by date or description", sel)
}

func (bf *benchFile) label(i int) string {
	e := &bf.Entries[i]
	d := e.Description
	if len(d) > 60 {
		d = d[:57] + "..."
	}
	return fmt.Sprintf("entry %d (%s: %s)", i, e.Date, d)
}

// flatten walks an entry's benchmarks subtree into "Name/config" ->
// rate. At each level it first tries to read the node as a variant map
// via preferred; otherwise it recurses into sub-objects and arrays
// (array elements are keyed by index, e.g. "rows/0").
func flatten(raw json.RawMessage) map[string]float64 {
	var root any
	if json.Unmarshal(raw, &root) != nil {
		return nil
	}
	out := map[string]float64{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch n := v.(type) {
		case float64:
			out[path] = n
		case map[string]any:
			if r, ok := preferred(n); ok {
				out[path] = r
				return
			}
			for _, k := range sortedKeys(n) {
				p := k
				if path != "" {
					p = path + "/" + k
				}
				walk(p, n[k])
			}
		case []any:
			for i, e := range n {
				p := strconv.Itoa(i)
				if path != "" {
					p = path + "/" + p
				}
				walk(p, e)
			}
		}
	}
	walk("", root)
	return out
}

// preferred extracts the comparable rate from a variant map: "after"
// (before/after entries), then "adaptive", then "jobs_per_sec" (a
// `fig sched` row collapses to its completion throughput), then
// "queries_per_sec" (a `fig serve` row collapses to its serving
// throughput), then the sole numeric field. Multi-variant maps without
// a preferred key are not leaves.
func preferred(m map[string]any) (float64, bool) {
	for _, k := range []string{"after", "adaptive", "jobs_per_sec", "queries_per_sec"} {
		if v, ok := m[k].(float64); ok {
			return v, true
		}
	}
	var sole float64
	n := 0
	for _, v := range m {
		if f, ok := v.(float64); ok {
			sole = f
			n++
		} else {
			return 0, false
		}
	}
	if n == 1 {
		return sole, true
	}
	return 0, false
}

func sortedKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

type diffRow struct {
	name          string
	old, new, pct float64
}

// lowerIsBetter reports whether a configuration key is a latency-style
// metric (milliseconds, cycle counts): BENCH_serve.json carries p50_ms /
// p99_ms leaves where an increase is the regression, not a gain.
// The unit may sit on any path component: comparison/saturation_p99_ms is
// a map whose leaves are named after the serving mode.
func lowerIsBetter(name string) bool {
	for _, part := range strings.Split(name, "/") {
		if strings.HasSuffix(part, "_ms") || strings.HasSuffix(part, "_cycles") {
			return true
		}
	}
	return false
}

// diff lines up the configurations present on both sides and returns
// them sorted by name, plus the worst (most negative) percent delta.
// Latency-style keys compare with inverted polarity: delta% is positive
// when the metric dropped.
func diff(oldFlat, newFlat map[string]float64) ([]diffRow, float64) {
	var rows []diffRow
	worst := 0.0
	for name, ov := range oldFlat {
		nv, ok := newFlat[name]
		if !ok || ov <= 0 {
			continue
		}
		var pct float64
		if lowerIsBetter(name) {
			if nv <= 0 {
				continue
			}
			pct = 100 * (ov/nv - 1)
		} else {
			pct = 100 * (nv/ov - 1)
		}
		if pct < worst {
			worst = pct
		}
		rows = append(rows, diffRow{name, ov, nv, pct})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows, worst
}

// benchLine matches one go-test benchmark result line, e.g.
//
//	BenchmarkEnginePingPong/shards=1-4   20   0 ns/op   9.70 Mev/s
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// runHead benchmarks the current tree and returns "Name/config" -> the
// Mev/s metric, keyed compatibly with flatten's output (no "Benchmark"
// prefix, no -GOMAXPROCS suffix).
func runHead(bench, benchtime, pkg string) (map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench, "-benchtime", benchtime, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s", err, out)
	}
	return parseBenchOutput(string(out))
}

func parseBenchOutput(out string) (map[string]float64, error) {
	rates := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			if fields[i+1] != "Mev/s" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad rate in %q: %w", line, err)
			}
			rates[m[1]] = v
		}
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no Mev/s benchmark lines in go test output:\n%s", out)
	}
	return rates, nil
}
