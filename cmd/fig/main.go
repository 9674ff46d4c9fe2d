// Command fig regenerates the paper's evaluation figures and this
// repository's extension sweeps, one subcommand per figure:
//
//	fig <9pr|9bfs|9tc|10|11|12|chaos|sched|serve> [flags]
//
// `fig` alone says what each figure is (the figures table below) and
// `fig <name> -h` lists its flags. Defaults are reduced-scale (minutes);
// approach the paper's configuration with e.g.
//
//	fig 9pr -scale 20 -nodes 1,2,4,8,16,32,64,128,256
//
// A rejected flag value exits 2 with a one-line message naming the flag.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"updown"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/harness"
)

// figure is one subcommand: setup registers its flags on fs (the shared
// ones through c) and returns the function that runs it after parsing.
type figure struct {
	name, doc string
	setup     func(fs *flag.FlagSet, c *common) (run func() error)
}

var figures = []figure{
	{"9pr", "Figure 9 (left) / Table 8: PageRank strong scaling",
		fig9(harness.Fig9PageRank, 16, "rmat,erdos-renyi,forest-fire,twitter", true, hostPR)},
	{"9bfs", "Figure 9 (center) / Table 9: BFS strong scaling",
		fig9(harness.Fig9BFS, 16, "rmat,com-orkut,soc-livej", false, hostBFS)},
	{"9tc", "Figure 9 (right) / Table 10: triangle-counting strong scaling",
		fig9(harness.Fig9TC, 11, "friendster,com-orkut,soc-livej,rmat", false, nil)},
	{"10", "Figure 10 / Table 11: ingestion (TFORM parse + graph insert) throughput scaling", fig10},
	{"11", "Figure 11 / Table 12: partial-match streaming-query latency vs compute", fig11},
	{"12", "Figure 12: DRAMmalloc NRnodes placement sweep, compute held fixed", fig12},
	{"chaos", "resilient BFS under message faults; -rep k: replicated-memory fail-stop suite", figChaos},
	{"sched", "multi-tenant scheduler: throughput and latency vs offered load", figSched},
	{"serve", "interactive query serving: queries/sec and tail latency vs arrival rate", figServe},
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run dispatches args to a figure and returns the exit status: 0, 1 when
// the sweep failed, 2 for an unknown figure or a rejected flag.
func run(args []string, stderr io.Writer) int {
	for _, f := range figures {
		if len(args) == 0 || f.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("fig "+f.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.Usage = func() {
			fmt.Fprintf(stderr, "fig %s: %s\n", f.name, f.doc)
			fs.PrintDefaults()
		}
		do := f.setup(fs, &common{})
		switch err := fs.Parse(args[1:]); {
		case errors.Is(err, flag.ErrHelp):
			return 0
		case err != nil:
			return 2
		}
		err := do()
		if err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "fig %s: %v\n", f.name, err)
		if errors.Is(err, harness.ErrBadOption) {
			return 2
		}
		return 1
	}
	fmt.Fprintln(stderr, "usage: fig <figure> [flags]   (fig <figure> -h lists the flags)")
	for _, f := range figures {
		fmt.Fprintf(stderr, "  %-6s %s\n", f.name, f.doc)
	}
	return 2
}

// common holds the flags the figures share. Every figure has -shards and
// -seed; the rest are registered only for the figures that name them.
type common struct {
	shards                                 int
	seed                                   uint64
	markdown, critpath, coalesce, progress bool
	json, what, date                       string
}

func (c *common) register(fs *flag.FlagSet, seed uint64, optional ...string) {
	fs.IntVar(&c.shards, "shards", 0, "simulator host parallelism (0 = auto)")
	fs.Uint64Var(&c.seed, "seed", seed, "generator seed (arrivals and mix for sched/serve)")
	for _, name := range optional {
		switch name {
		case "markdown":
			fs.BoolVar(&c.markdown, name, false, "emit GitHub-markdown tables")
		case "critpath":
			fs.BoolVar(&c.critpath, name, false, "extract the causal critical path per run and add the crit% column")
		case "coalesce":
			fs.BoolVar(&c.coalesce, name, false, "use the coalescing KVMSR shuffle (msgs and tup/msg columns show the traffic)")
		case "progress":
			fs.BoolVar(&c.progress, name, false, "print per-configuration progress lines to stderr while the sweep runs")
		case "json": // c.what holds the figure's default description
			fs.StringVar(&c.json, name, "", "also write the result as JSON to this path")
			fs.StringVar(&c.what, "what", c.what, "description stored in the JSON payload")
			fs.StringVar(&c.date, "date", "", "date stored in the JSON payload")
		default:
			panic("fig: unknown shared flag " + name)
		}
	}
}

// progressDest maps the -progress flag to the sweep's progress writer.
func (c *common) progressDest() io.Writer {
	if !c.progress {
		return nil
	}
	return os.Stderr
}

// emit prints a finished sweep's tables — as markdown, or as text with sep
// after each — or passes on the error it failed with.
func emit[T interface {
	Format() string
	Markdown() string
}](c *common, sep string, err error, tables ...T) error {
	for _, t := range tables {
		if err != nil {
			break
		}
		if c.markdown {
			fmt.Print(t.Markdown())
		} else {
			fmt.Print(t.Format() + sep)
		}
	}
	return err
}

// writePayload writes the -json file: {"what", "date", ...res's fields},
// the layout of the goldens in testdata/ (TestGoldenPayloads).
func (c *common) writePayload(res any) error {
	if c.json == "" {
		return nil
	}
	head, err := json.MarshalIndent(struct {
		What string `json:"what"`
		Date string `json:"date,omitempty"`
	}{c.what, c.date}, "", "  ")
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	// Splice the two objects into one: head without its closing "\n}",
	// a comma, body without its opening "{".
	doc := append(append(head[:len(head)-2], ','), body[1:]...)
	if err := os.WriteFile(c.json, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", c.json)
	return nil
}

// badFlag rejects a flag value with the harness's bad-option error.
func badFlag(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{harness.ErrBadOption}, args...)...)
}

// parseList parses a comma-separated flag value: entries are trimmed,
// empty ones skipped, and each converted by conv.
func parseList[T any](flagName, s string, conv func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := conv(f)
		if err != nil {
			return nil, badFlag("-%s entry %q: %v", flagName, f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseString(s string) (string, error) { return s, nil } // never fails: callers drop the error
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func parseInt64(s string) (int64, error)   { return strconv.ParseInt(s, 10, 64) }
func nodeList(name, s string) ([]int, error) { // sorted, deduplicated, positive
	ns, err := harness.ParseNodeList(s)
	if err != nil {
		return nil, badFlag("-%s: %v", name, err)
	}
	return ns, nil
}

func fig9(sweep func(harness.Fig9Options) ([]*harness.Table, error), scale int, graphs string,
	iters bool, host func(g *graph.Graph, iters int)) func(*flag.FlagSet, *common) func() error {
	return func(fs *flag.FlagSet, c *common) func() error {
		var o harness.Fig9Options
		var abs bool
		fs.IntVar(&o.Scale, "scale", scale, "log2 vertex count")
		nodes := fs.String("nodes", "1,2,4,8,16", "comma-separated node counts")
		presets := fs.String("graphs", graphs, "workload presets")
		fs.BoolVar(&o.Validate, "validate", true, "cross-check against host baseline")
		if iters {
			fs.IntVar(&o.Iterations, "iters", 1, "PageRank iterations")
		}
		if host != nil {
			fs.BoolVar(&abs, "abs", false, "also measure the host multicore baseline wall-clock")
		}
		c.register(fs, 42, "markdown", "critpath", "coalesce", "progress")
		return func() (err error) {
			if o.Nodes, err = nodeList("nodes", *nodes); err != nil {
				return err
			}
			if o.Scale == 0 { // the harness default, resolved here because -abs needs it too
				o.Scale = scale
			}
			o.Presets, _ = parseList("graphs", *presets, parseString)
			o.Seed, o.Shards, o.CritPath, o.Coalesce, o.Progress = c.seed, c.shards, c.critpath, c.coalesce, c.progressDest()
			tables, err := sweep(o)
			if err = emit(c, "\n", err, tables...); err == nil && abs {
				// The conventional-multicore comparator, the stand-in for the
				// paper's Perlmutter reference (Section 5.2.1).
				g, _ := graph.BuildPreset("rmat", o.Scale, o.Seed, false)
				host(g, max(o.Iterations, 1))
			}
			return err
		}
	}
}

func hostPR(g *graph.Graph, iters int) {
	start := time.Now()
	baseline.PageRankParallel(g, iters, 0)
	el := time.Since(start).Seconds()
	fmt.Printf("host multicore baseline: %d edges x %d iters in %.4fs = %.4f GUPS\n",
		g.NumEdges(), iters, el, float64(g.NumEdges())*float64(iters)/el/1e9)
}

func hostBFS(g *graph.Graph, _ int) {
	start := time.Now()
	baseline.BFSParallel(g, 28, 0)
	el := time.Since(start).Seconds()
	fmt.Printf("host multicore baseline: %d edges in %.4fs = %.4f GTEPS\n",
		g.NumEdges(), el, float64(g.NumEdges())/el/1e9)
}

func fig10(fs *flag.FlagSet, c *common) func() error {
	var o harness.Fig10Options
	fs.IntVar(&o.BaseRecords, "records", 10000, "record count of the 1x dataset")
	mults := fs.String("mults", "0.1,1,2", "dataset multipliers (the paper's data <m>)")
	nodes := fs.String("nodes", "1,2,4,8", "comma-separated node counts")
	fs.IntVar(&o.BlockBytes, "block", 512, "parallel-file block bytes")
	c.register(fs, 7, "markdown", "critpath", "progress")
	return func() (err error) {
		if o.Nodes, err = nodeList("nodes", *nodes); err != nil {
			return err
		}
		if o.Multipliers, err = parseList("mults", *mults, parseFloat); err != nil {
			return err
		}
		o.Seed, o.Shards, o.CritPath, o.Progress = c.seed, c.shards, c.critpath, c.progressDest()
		tables, err := harness.Fig10Ingestion(o)
		return emit(c, "\n", err, tables...)
	}
}

func fig11(fs *flag.FlagSet, c *common) func() error {
	var o harness.Fig11Options
	fs.IntVar(&o.Records, "records", 1500, "stream length")
	inter := fs.Int64("interarrival", 8, "record interarrival (cycles)")
	lanes := fs.String("lanes", "32,128,512,2048", "lane-count sweep (2048 = one node)")
	c.register(fs, 11, "markdown")
	return func() (err error) {
		if o.LaneCounts, err = nodeList("lanes", *lanes); err != nil {
			return err
		}
		o.Interarrival, o.Seed, o.Shards = arch.Cycles(*inter), c.seed, c.shards
		tb, err := harness.Fig11PartialMatch(o)
		return emit(c, "\n", err, tb)
	}
}

func fig12(fs *flag.FlagSet, c *common) func() error {
	var o harness.Fig12Options
	fs.IntVar(&o.ComputeNodes, "compute", 16, "fixed compute node count (the paper uses 64)")
	mem := fs.String("mem", "1,2,4,8,16", "memory-node sweep (NRnodes)")
	fs.IntVar(&o.Scale, "scale", 14, "log2 vertex count")
	fs.IntVar(&o.DRAMBytesPerCycle, "dram-bw", 100, "per-node DRAM bytes/cycle (paper hardware: 4700; the reduced default keeps the reduced-scale graph memory-bound)")
	reps := fs.String("reps", "", "replication factors for the replication-tax extension (e.g. 2,3; empty = off)")
	c.register(fs, 42, "markdown", "critpath", "progress")
	return func() (err error) {
		if o.MemNodes, err = nodeList("mem", *mem); err != nil {
			return err
		}
		if *reps != "" {
			if o.Reps, err = nodeList("reps", *reps); err != nil {
				return err
			}
		}
		o.Seed, o.Shards, o.CritPath, o.Progress = c.seed, c.shards, c.critpath, c.progressDest()
		tables, err := harness.Fig12Placement(o)
		return emit(c, "\n", err, tables...)
	}
}

func figChaos(fs *flag.FlagSet, c *common) func() error {
	var o harness.ChaosOptions
	var r harness.ChaosRepOptions
	fs.IntVar(&o.Scale, "scale", 12, "log2 vertex count")
	fs.IntVar(&o.Nodes, "nodes", 2, "application node count")
	drops := fs.String("drops", "0.01,0.02,0.05,0.1", "comma-separated drop rates to sweep")
	fs.Float64Var(&o.DupProb, "dup", 0.02, "duplication probability on faulted rows")
	fs.Float64Var(&o.DelayProb, "delay", 0, "delay probability on faulted rows")
	delayCycles := fs.Int64("delay-cycles", 0, "max extra delay cycles (0 = cross-node latency)")
	fs.Uint64Var(&o.FaultSeed, "fault-seed", 1, "fault verdict seed")
	fs.BoolVar(&o.FailStop, "failstop", false, "add a spare node and fail-stop it mid-run on faulted rows")
	fs.IntVar(&r.Rep, "rep", 0, "replication factor: run the replicated-memory chaos suite at k-way placement (>= 2)")
	fs.BoolVar(&r.Spare, "spare", false, "with -rep, backfill the victim's data onto the spare node instead of in place")
	apps := fs.String("apps", "", "with -rep, comma-separated workload subset of bfs,pagerank,tc (default all)")
	c.register(fs, 42, "markdown", "critpath", "progress")
	return func() error {
		if r.Rep > 1 {
			r.Scale, r.Seed, r.Shards, r.Progress = o.Scale, c.seed, c.shards, c.progressDest()
			r.Apps, _ = parseList("apps", *apps, parseString)
			tb, err := harness.ChaosReplicated(r)
			return emit(c, "", err, tb)
		}
		rates, err := parseList("drops", *drops, func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err == nil && (v < 0 || v >= 1) {
				err = errors.New("want a value in [0,1)")
			}
			return v, err
		})
		if err != nil {
			return err
		}
		for _, v := range rates { // the fault-free row is always run
			if v > 0 {
				o.DropRates = append(o.DropRates, v)
			}
		}
		o.DelayCycles, o.Seed, o.Shards, o.CritPath, o.Progress = arch.Cycles(*delayCycles), c.seed, c.shards, c.critpath, c.progressDest()
		tb, err := harness.ChaosBFS(o)
		return emit(c, "", err, tb)
	}
}

func figSched(fs *flag.FlagSet, c *common) func() error {
	var o harness.FigSchedOptions
	fs.IntVar(&o.Nodes, "nodes", 8, "machine node count")
	fs.IntVar(&o.AccelsPerNode, "accels", 4, "accelerators per node (paper: 32)")
	fs.IntVar(&o.LanesPerAccel, "lanes", 16, "lanes per accelerator (paper: 64)")
	fs.IntVar(&o.Scale, "scale", 9, "log2 vertex count of each tenant graph")
	fs.IntVar(&o.Jobs, "jobs", 24, "submissions per load point")
	loads := fs.String("loads", "24000,12000,6000,3000", "comma-separated mean interarrival gaps in cycles")
	quantum := fs.Int64("quantum", 4096, "scheduler reconcile quantum in cycles")
	fs.BoolVar(&o.Verify, "verify", false, "replay every job solo and require bit-identical results")
	c.what = "Multi-tenant scheduler: throughput and latency vs offered load"
	c.register(fs, 42, "json", "progress")
	return func() (err error) {
		if o.Loads, err = parseList("loads", *loads, parseInt64); err != nil {
			return err
		}
		o.Quantum, o.Seed, o.Shards, o.Progress = arch.Cycles(*quantum), c.seed, c.shards, c.progressDest()
		res, err := harness.FigSched(o)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		if o.Verify {
			fmt.Printf("verified: %d jobs bit-identical to solo replays\n", res.Verified)
		}
		return c.writePayload(res)
	}
}

func figServe(fs *flag.FlagSet, c *common) func() error {
	var o harness.FigServeOptions
	fs.IntVar(&o.Nodes, "nodes", 2, "machine node count")
	fs.IntVar(&o.AccelsPerNode, "accels", 4, "accelerators per node (paper: 32)")
	fs.IntVar(&o.LanesPerAccel, "lanes", 16, "lanes per accelerator (paper: 64)")
	fs.IntVar(&o.Scale, "scale", 8, "log2 vertex count of the resident graph")
	fs.IntVar(&o.Queries, "queries", 48, "queries per sweep point")
	gaps := fs.String("gaps", "32000,16000,8000,4000,2000", "comma-separated mean interarrival gaps in cycles")
	quantum := fs.Int64("quantum", 4096, "serving reconcile quantum in cycles")
	fuse := fs.Int64("fuse", 2048, "launch hold-off (fuse window) in cycles")
	fs.IntVar(&o.Slots, "slots", 0, "concurrent queries per engine (0 = default; at most one per lane)")
	c.what = "Interactive query serving: queries/sec and tail latency vs arrival rate"
	c.register(fs, 42, "json", "progress")
	return func() (err error) {
		if o.Gaps, err = parseList("gaps", *gaps, parseInt64); err != nil {
			return err
		}
		o.Quantum, o.FuseWindow = updown.Cycles(*quantum), updown.Cycles(*fuse)
		o.Seed, o.Shards, o.Progress = c.seed, c.shards, c.progressDest()
		res, err := harness.FigServe(o)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		return c.writePayload(res)
	}
}
