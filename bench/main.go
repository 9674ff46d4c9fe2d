// Command bench is the repository's benchmark: four workloads on two
// clocks (simulated cycles, host seconds), measured end to end and per
// layer from outside the program, with every output checked against the
// host oracles. See README.md in this directory.
//
//	bench [-seed N] [-quick]                 all workloads, both passes, one child process each
//	bench -workload W -trace 0|1 -seed N -seconds S
//	                                         one pass of one workload; the last stdout line is the result JSON
//	bench compare A.json[,A2.json] B.json[,B2.json]
//	                                         judge two sets of result files under the benchmark's same-seed bounds
//	bench manifest                           print BENCHMARK.json as generated from the metric registry
//	bench glossary                           print README.md's per-layer metric table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the runner exit non-zero after it has printed a
// result whose outputs did not validate.
var errIncorrect = fmt.Errorf("outputs did not validate (see fail_frac and the notes above)")

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: bench compare A.json[,A2.json...] B.json[,B2.json...]")
			}
			a, err := readSide(args[1])
			if err != nil {
				return err
			}
			b, err := readSide(args[2])
			if err != nil {
				return err
			}
			if n := compareResults(os.Stdout, a, b); n > 0 {
				return fmt.Errorf("%d end-to-end metric(s) regressed", n)
			}
			return nil
		case "manifest":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(manifest())
		case "glossary": // the per-layer table of README.md
			fmt.Println("| name | clock | unit | better | on | definition | moves |\n|---|---|---|---|---|---|---|")
			for _, d := range metricDefs {
				if on := "all"; !d.E2E {
					if d.On != nil {
						on = strings.Join(d.On, ", ")
					}
					fmt.Printf("| `%s` | %s | %s | %s | %s | %s | %s |\n", d.Name, d.Clock, d.Unit, d.Better, on, d.Def, d.Moves)
				}
			}
			return nil
		}
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one pass of this workload only (pr_batch, bfs_batch, serve_open, sched_mix)")
	seed := fs.Uint64("seed", 42, "seed of every generated input: graphs, arrivals, query and job mixes")
	seconds := fs.Float64("seconds", runSeconds, "how long a measured pass keeps repeating its workload")
	trace := fs.Int("trace", 0, "with -workload: 0 = measured pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	quick := fs.Bool("quick", false, "smoke-test sizes (s10 graphs, 16 queries, 12 jobs); numbers are not comparable")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for results.json and the span traces")
	result := fs.String("result", "", "with -workload: also write the full pass result to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	sz := fullSizes
	if *quick { // one repetition per pass, whatever -seconds says
		sz, *seconds = quickSizes, 0
	}
	if *workload == "" {
		return runAll(sz, *seed, *seconds, *outDir)
	}
	if workloadByName(*workload) == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	return runOne(*workload, *trace != 0, sz, *seed, *seconds, *outDir, *result)
}

// runPass runs one pass in this process and checks it is complete.
func runPass(workload string, traced bool, sz sizes, seed uint64, seconds float64) (*passResult, error) {
	var p *passResult
	var err error
	if traced {
		p, err = tracedPass(workload, sz, seed)
	} else {
		p, err = measuredPass(workload, sz, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	if warn := p.Provenance.loadWarning(); warn != "" {
		p.Notes = append(p.Notes, warn)
	}
	p.Notes = append(p.Notes, accuracyNote)
	if workload == wServe || workload == wSched {
		p.Notes = append(p.Notes, latenessNote)
	}
	return p, p.complete()
}

const latenessNote = "open loop: arrivals are pre-generated in simulated time and latency is counted from the due cycle, so generator lateness is 0 by construction"

// resultLine is the contract's result: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line selects the metrics BENCHMARK.json lists for this pass: end_to_end
// for the measured pass, per_layer for the traced one.
func (p *passResult) line() resultLine {
	l := resultLine{Correct: p.Correct, Attempted: p.Attempted, Failed: p.Failed, Metrics: map[string]lineMetric{}}
	for _, d := range metricDefs {
		if v, ok := p.Metrics[d.Name]; ok && d.gated() != p.Traced {
			l.Metrics[d.Name] = lineMetric{v.Value, v.Unit}
		}
	}
	return l
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTraceEvents(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOne is the single-pass form the benchmark driver (and runAll, per
// child) invokes.
func runOne(workload string, traced bool, sz sizes, seed uint64, seconds float64, outDir, resultPath string) error {
	p, err := runPass(workload, traced, sz, seed, seconds)
	if err != nil {
		return err
	}
	if traced {
		if err := writeTrace(filepath.Join(outDir, "trace-"+workload+".json"), p.Spans); err != nil {
			return err
		}
	}
	if resultPath != "" {
		if err := writeJSON(resultPath, p); err != nil {
			return err
		}
	}
	var b strings.Builder
	p.print(&b)
	fmt.Print(b.String())
	line, err := json.Marshal(p.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !p.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload's two passes, each in a re-exec'd child so
// heap state and the RSS high-water mark do not leak between workloads,
// then cross-checks fingerprints and writes results and the span trace.
func runAll(sz sizes, seed uint64, seconds float64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Benchmark: "updown-bench", Sizes: sz.Name, RunSeconds: seconds,
		Provenance: readProvenance(seed), Accuracy: accuracyNote, Lateness: latenessNote}
	fmt.Printf("bench: sizes=%s seed=%d  %s/%s %s  cpu=%q nproc=%d GOMAXPROCS=%d commit=%s  load1=%.2f\n",
		sz.Name, seed, res.Provenance.GOOS, res.Provenance.GOARCH, res.Provenance.GoVersion, res.Provenance.CPU,
		res.Provenance.NProc, res.Provenance.GOMAXPROCS, res.Provenance.Commit, res.Provenance.LoadAvg1)
	if warn := res.Provenance.loadWarning(); warn != "" {
		fmt.Println(warn)
	}
	var spans []span
	ok := true
	for _, w := range workloads {
		wr := workloadResult{Name: w.Name, Loop: w.Loop, Why: w.Why}
		for _, traced := range []bool{false, true} {
			tmp := filepath.Join(outDir, fmt.Sprintf("pass-%s-%s.json", w.Name, passName(traced)))
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-out", outDir, "-result", tmp}
			if traced {
				args = append(args, "-trace", "1")
			}
			if sz.Name == "quick" {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(tmp)
			if err != nil {
				return fmt.Errorf("%s %s pass: %v (child: %v)", w.Name, passName(traced), err, runErr)
			}
			p := new(passResult)
			if err := json.Unmarshal(b, p); err != nil {
				return fmt.Errorf("%s: %w", tmp, err)
			}
			os.Remove(tmp)
			ok = ok && p.Correct && runErr == nil
			if traced {
				spans = append(spans, p.Spans...)
				p.Spans = nil
				wr.Traced = p
			} else {
				wr.Measured = p
			}
		}
		if wr.Measured.Fingerprint != wr.Traced.Fingerprint {
			ok = false
			fmt.Printf("%s: traced pass fingerprint %s differs from measured pass %s\n", w.Name, wr.Traced.Fingerprint, wr.Measured.Fingerprint)
		} else {
			fmt.Printf("%s: traced pass reproduces the measured pass's simulated fingerprint %s\n", w.Name, wr.Measured.Fingerprint)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), res); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(outDir, "trace.json"), spans); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(outDir, "results.json"), filepath.Join(outDir, "trace.json"))
	if !ok {
		return errIncorrect
	}
	return nil
}
