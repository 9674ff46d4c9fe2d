package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// results is the file a full run writes (bench/out/results.json) and
// `bench compare` reads.
type results struct {
	Benchmark  string           `json:"benchmark"`
	Sizes      string           `json:"sizes"`
	RunSeconds float64          `json:"run_seconds"`
	Provenance provenance       `json:"provenance"`
	Accuracy   string           `json:"accuracy"`
	Lateness   string           `json:"generator_lateness"`
	Workloads  []workloadResult `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type workloadResult struct {
	Name     string      `json:"name"`
	Loop     string      `json:"loop"`
	Why      string      `json:"why"`
	Measured *passResult `json:"measured"`
	Traced   *passResult `json:"traced"`
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (not a bench results file?)", path)
	}
	return &r, nil
}

// readSide reads one side of a comparison: a comma-separated list of
// result files of the same sizes and seed, pooled into one. A metric's
// samples (per repetition; the value itself where there are none) are
// concatenated over the files and its value becomes their median, so the
// spread `judge` sees is the run-to-run spread, not just the spread inside
// one process.
func readSide(paths string) (*results, error) {
	var side *results
	for _, path := range strings.Split(paths, ",") {
		r, err := readResults(path)
		if err != nil {
			return nil, err
		}
		for i := range r.Workloads {
			if m := r.Workloads[i].Measured; m != nil {
				for name, v := range m.Metrics {
					if len(v.Samples) == 0 {
						v.Samples = []float64{v.Value}
						m.Metrics[name] = v
					}
				}
			}
		}
		if side == nil {
			side = r
			continue
		}
		if r.Sizes != side.Sizes || r.Provenance.Seed != side.Provenance.Seed {
			return nil, fmt.Errorf("%s: sizes=%s seed=%d, but %s has sizes=%s seed=%d: one side must be runs of one configuration",
				path, r.Sizes, r.Provenance.Seed, paths, side.Sizes, side.Provenance.Seed)
		}
		for i, w := range r.Workloads {
			if i >= len(side.Workloads) || side.Workloads[i].Name != w.Name || w.Measured == nil || side.Workloads[i].Measured == nil {
				return nil, fmt.Errorf("%s: workload list differs from the first file's", path)
			}
			into := side.Workloads[i].Measured
			if w.Measured.Fingerprint != into.Fingerprint {
				into.Fingerprint += "+" + w.Measured.Fingerprint // runs of one side disagree: never "identical"
			}
			for name, v := range w.Measured.Metrics {
				p := into.Metrics[name]
				p.Samples = append(p.Samples, v.Samples...)
				p.Value, p.N = median(p.Samples), len(p.Samples)
				into.Metrics[name] = p
			}
		}
	}
	return side, nil
}

type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares side B against side A on one metric under the metric's
// same-seed bounds. B is worse only when it is worse by more than Rel of
// A's value and by more than Abs. Where either side's run-to-run spread
// (quartile distance over median of its samples) is wider than Rel, the
// pair is unresolved unless every sample of one side beats every sample
// of the other.
func judge(d *metricDef, a, b metricValue) verdict {
	if a.Value == b.Value {
		return same // simulated metrics are compared exactly first
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	delta := sign * (b.Value - a.Value) // > 0: B is worse
	limit := math.Max(d.Rel*math.Abs(a.Value), d.Abs)
	if d.Rel > 0 && math.Max(quartileSpread(a.Samples), quartileSpread(b.Samples)) > d.Rel {
		// In cost space (sign x value) lower is better for every metric.
		loA, hiA := minMax(a.Samples, sign)
		loB, hiB := minMax(b.Samples, sign)
		switch {
		case loB > hiA && delta > limit:
			return worse
		case hiB < loA:
			return better
		case hiB-loA <= d.Abs && hiA-loB <= d.Abs:
			return same // no sample of either side is beyond the absolute floor of any other
		}
		return unresolved
	}
	switch {
	case delta > limit:
		return worse
	case delta < -limit:
		return better
	}
	return same
}

// minMax returns the extremes of sign x v.
func minMax(v []float64, sign float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, sign*x), math.Max(hi, sign*x)
	}
	return lo, hi
}

// compareResults prints one row per workload x end-to-end metric and
// returns the number of regressions.
func compareResults(w io.Writer, a, b *results) int {
	if a.Sizes != b.Sizes || a.Provenance.Seed != b.Provenance.Seed {
		fmt.Fprintf(w, "warning: A is sizes=%s seed=%d, B is sizes=%s seed=%d: simulated metrics are only comparable at equal sizes and seed\n",
			a.Sizes, a.Provenance.Seed, b.Sizes, b.Provenance.Seed)
	}
	regressions := 0
	fmt.Fprintf(w, "%-11s %-15s %16s %4s %16s %4s %9s  %s\n", "workload", "metric", "A", "n", "B", "n", "B vs A", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil || wa.Measured == nil || wb.Measured == nil {
			fmt.Fprintf(w, "%-11s missing on one side: unresolved\n", wa.Name)
			continue
		}
		for i := range metricDefs {
			d := &metricDefs[i]
			if !d.E2E {
				continue
			}
			ma, mb := wa.Measured.Metrics[d.Name], wb.Measured.Metrics[d.Name]
			v := judge(d, ma, mb)
			if v == worse {
				regressions++
			}
			pct := "-"
			if ma.Value != 0 {
				pct = fmt.Sprintf("%+.2f%%", 100*(mb.Value/ma.Value-1))
			}
			fmt.Fprintf(w, "%-11s %-15s %16.6g %4d %16.6g %4d %9s  %s\n", wa.Name, d.Name,
				ma.Value, max(ma.N, 1), mb.Value, max(mb.N, 1), pct, v)
		}
		ident := "identical"
		if wa.Measured.Fingerprint != wb.Measured.Fingerprint {
			ident = "DIFFERENT"
		}
		fmt.Fprintf(w, "%-11s simulated fingerprints %s (%s vs %s)\n", wa.Name, ident,
			wa.Measured.Fingerprint, wb.Measured.Fingerprint)
	}
	fmt.Fprintf(w, "%d regression(s)\n", regressions)
	return regressions
}
