// Package harness regenerates the paper's evaluation (Figures 9-12,
// artifact Tables 8-12) and this repository's extensions (chaos, scheduler
// and serving sweeps). Every figure is a sweep, and everything a sweep
// point has in common lives here once: sweep builds the machine config from
// the shared options, and sweep.runPoint runs one configuration under the
// progress protocol, turns a simulation timeout into a table note, measures
// the host rate and fills the row's shared columns. The graph applications
// (pr, bfs, tc) are one table in apps.go, under every sweep, the scheduler
// sweep, the chaos runs and updown-sim; Validate rejects bad options with
// ErrBadOption before anything is built, and render is the one text and
// markdown renderer under every table type. A FigN function keeps only its
// workload, its x-axis and its metric.
//
// Runner defaults are reduced-scale — minutes on a laptop instead of the
// artifact's CPU-weeks (its Table 6 estimates 780 minutes for PR on RMAT
// s28 alone) — chosen so the work-per-lane ratios at the largest swept
// configuration are comparable to the paper's, which is what the scaling
// shapes depend on. Every runner accepts larger scales and node counts.
package harness

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"updown"
	"updown/internal/arch"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/sim"
)

// Row is one machine configuration's measurement.
type Row struct {
	// Label is the x-axis value (node count, memory-node count, lane
	// count or data multiplier).
	Label string
	// Cycles is the simulated duration of the measured region.
	Cycles arch.Cycles
	// Seconds is Cycles at the machine clock.
	Seconds float64
	// Speedup is relative to the table's first row.
	Speedup float64
	// Metric is the throughput/latency value in MetricName units.
	Metric float64
	// HostMevS is the host-side simulation rate for this configuration:
	// millions of simulated events executed per wall-clock second. It
	// measures the simulator, not the simulated machine.
	HostMevS float64
	// Imbalance, DRAMUtil and InjUtil are utilization figures from the
	// metrics recorder, filled only when the sweep runs with profiling
	// enabled: peak-node busy cycles over the mean across touched nodes,
	// peak per-node DRAM bandwidth utilization, and peak per-node
	// injection-port utilization.
	Imbalance float64
	DRAMUtil  float64
	InjUtil   float64
	// CritPct is the causal critical-path length as a fraction of the
	// makespan (1.0 = fully serialized; lower = more latency hiding),
	// filled only when the sweep runs with critical-path tracing enabled.
	CritPct float64
	// Msgs and Tuples are the run's shuffle traffic: physical network
	// messages versus logical emitted tuples. They are equal for the
	// classic one-message-per-tuple shuffle; under coalescing their ratio
	// is the achieved packing factor (the tup/msg column).
	Msgs   int64
	Tuples int64
	// TaxPct and DRAMx are the replication-tax columns, filled only by
	// the replication extension of the placement sweep: the makespan
	// increase (percent) and the total DRAM service-byte multiple of
	// this row relative to the table's unreplicated (k=1) baseline.
	// Write traffic fans out to every replica, so DRAMx approaches the
	// replication factor for write-heavy phases; reads are served by a
	// single stripe and add no replicated bytes.
	TaxPct float64
	DRAMx  float64
}

// rateRow is the row of a throughput figure: work units per simulated
// second over elapsed cycles, scaled by unit (1e9 for giga-, 1e6 for mega-).
func rateRow(m *updown.Machine, label string, elapsed arch.Cycles, work, unit float64) Row {
	sec := m.Seconds(elapsed)
	return Row{Label: label, Cycles: elapsed, Seconds: sec, Metric: work / sec / unit}
}

// sweep is the options block every figure shares, as the sweep-point
// runner consumes it. The exported option structs carry these fields
// directly (Go struct literals cannot set promoted fields, and callers
// set them in plain literals), so each entry point copies them in here.
type sweep struct {
	// Shards is the simulator host parallelism (0 = auto).
	Shards int
	// Profile enables the metrics recorder and fills the utilization
	// columns (imbal, dram%, inj%) of every row.
	Profile bool
	// CritPath enables causal tracing and fills the crit% column
	// (critical-path length over makespan).
	CritPath bool
	// Coalesce opts every row into the coalescing shuffle (multi-tuple
	// packed messages).
	Coalesce bool
	// MaxTime bounds simulated cycles per configuration (0 = 1<<44).
	// Configurations that exceed it become table notes, not sweep failures.
	MaxTime arch.Cycles
	// Progress, when non-nil, receives one line before and after every
	// configuration run, so long sweeps are observable before their
	// tables print.
	Progress io.Writer
	// shuffle reports the msgs and tup/msg columns; set by Figure 9.
	shuffle bool
}

// config completes a figure's machine config with the shared options.
func (s sweep) config(cfg updown.Config) updown.Config {
	cfg.Shards = s.Shards
	cfg.MaxTime = s.MaxTime
	orDefault(&cfg.MaxTime, 1<<44)
	if s.Profile {
		cfg.Metrics = &metrics.Options{}
	}
	if s.CritPath {
		// Spans are not needed for crit%, so only edges are recorded.
		cfg.Trace = &metrics.TraceOptions{Causal: true}
	}
	cfg.Coalesce = coalesceConfig(s.Coalesce)
	return cfg
}

// coalesceConfig returns the coalescing-shuffle config: nil (one message
// per tuple) unless coalescing was requested.
func coalesceConfig(on bool) *kvmsr.Coalesce {
	if !on {
		return nil
	}
	return &kvmsr.Coalesce{}
}

// runPoint is the one sweep-point runner. It builds the machine for cfg,
// lets setup load the workload and hand back its run function and its row
// (Label, Cycles, Seconds, Metric — called after a successful run, and
// where the figure validates the result), runs under the "running / timed
// out, skipped / done in" progress protocol named prefix+" "+point, and
// appends the row with host rate, shuffle, utilization and crit% filled.
// A simulation timeout becomes a table note and a nil machine, so one
// livelocked configuration (usually the smallest machine at an overlarge
// scale) does not cost the whole table.
func (s sweep) runPoint(tb *Table, prefix, point string, cfg updown.Config,
	setup func(m *updown.Machine) (run func() (updown.Stats, error), row func() (Row, error), err error)) (*updown.Machine, error) {
	m, err := updown.New(s.config(cfg))
	if err != nil {
		return nil, err
	}
	run, row, err := setup(m)
	if err != nil {
		return nil, err
	}
	tag := prefix + " " + point
	progressf(s.Progress, "%s: running", tag)
	start := time.Now()
	stats, err := run()
	wall := time.Since(start)
	if noteTimeout(tb, point, err) {
		progressf(s.Progress, "%s: timed out, skipped", tag)
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}
	r, err := row()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}
	r.HostMevS = hostMevS(stats.Events, wall)
	progressf(s.Progress, "%s: done in %.1fs (%.2f host-Mev/s)", tag, wall.Seconds(), r.HostMevS)
	if s.shuffle {
		r.Msgs, r.Tuples = stats.ShuffleMsgs, stats.ShuffleTuples
	}
	if m.Metrics != nil {
		u := m.Metrics.Profile().Summarize(m.Arch)
		r.Imbalance, r.DRAMUtil, r.InjUtil = u.Imbalance, u.DRAMUtil, u.InjUtil
	}
	r.CritPct = critPct(m)
	tb.Rows = append(tb.Rows, r)
	return m, nil
}

// critPct is m's causal critical-path fraction after a run (0 when the
// machine was built without causal tracing).
func critPct(m *updown.Machine) float64 {
	if m.Trace == nil || !m.Trace.CausalOn() {
		return 0
	}
	return m.Trace.CriticalPath().CritPct()
}

// orDefault sets *p to d when the caller left it at its zero value;
// orDefaultList does the same for an empty list.
func orDefault[T comparable](p *T, d T) {
	var zero T
	if *p == zero {
		*p = d
	}
}

func orDefaultList[T any](p *[]T, d ...T) {
	if len(*p) == 0 {
		*p = d
	}
}

// progressf writes one sweep-progress line to w, or nothing when no
// progress destination was configured.
func progressf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// hostMevS converts an event count and a wall-clock duration into the
// host-Mev/s rate reported in sweep tables.
func hostMevS(events int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds() / 1e6
}

// noteTimeout reports whether err is a simulation timeout and, when it is,
// records the configuration as a table note.
func noteTimeout(tb *Table, label string, err error) bool {
	if !errors.Is(err, sim.ErrTimeout) {
		return false
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("%s skipped: %v", label, err))
	return true
}

// ErrBadOption is wrapped by every error that rejects an option value.
// Entry points validate after defaulting and before building any graph or
// machine, so no option value reaches a panic.
var ErrBadOption = errors.New("harness: bad option")

// paperRoot is the BFS root the paper uses on RMAT graphs.
const paperRoot = 28

// Positive is a Validate check: every value of the named option (in its
// flag spelling) must be > 0.
func Positive[T int | int64 | float64](name string, vals ...T) error {
	for _, v := range vals {
		if !(v > 0) {
			return fmt.Errorf("%w: %s %v: want > 0", ErrBadOption, name, v)
		}
	}
	return nil
}

// Addressable is a Validate check: machine ar at each node count must have
// no more actors than a NetworkID can name (arch.ErrTooManyActors), so an
// oversized sweep is an option error, not an allocation the host cannot
// make. Non-positive counts are Positive's to reject.
func Addressable(ar arch.Machine, nodes ...int) error {
	for _, n := range nodes {
		ar.Nodes = n
		if err := ar.Validate(); errors.Is(err, arch.ErrTooManyActors) {
			return fmt.Errorf("%w: %w", ErrBadOption, err)
		}
	}
	return nil
}

// Validate is the one option check, of every figure and of updown-sim:
// scale (log2 vertices; 0 = the figure has none) must be in 1..30, root
// must be a vertex of the 2^scale graph, and every Positive check must
// have passed. It returns the first failure.
func Validate(scale int, root uint32, checks ...error) error {
	if scale < 0 || scale > 30 {
		return fmt.Errorf("%w: scale %d: want 1..30", ErrBadOption, scale)
	}
	if scale > 0 && int64(root) >= 1<<scale {
		return fmt.Errorf("%w: scale %d: BFS root %d is outside a graph of %d vertices", ErrBadOption, scale, root, 1<<scale)
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table is one series of one figure.
type Table struct {
	// Title names the experiment ("Figure 9 (left): PageRank").
	Title string
	// Workload names the graph or dataset.
	Workload string
	// MetricName labels the Metric column.
	MetricName string
	// Rows are ordered by configuration size.
	Rows []Row
	// Notes records validation results and substitutions.
	Notes []string
}

// FillSpeedups computes speedups relative to the first row.
func (t *Table) FillSpeedups() {
	if len(t.Rows) == 0 || t.Rows[0].Cycles == 0 {
		return
	}
	base := float64(t.Rows[0].Cycles)
	for i := range t.Rows {
		if t.Rows[i].Cycles > 0 {
			t.Rows[i].Speedup = base / float64(t.Rows[i].Cycles)
		}
	}
}

// column is one table column: its header (mdHead overrides it in
// markdown), its text width (negative = left-aligned, 0 = unpadded), the
// fmt verb after the '%', and the cell value.
type column[R any] struct {
	head, mdHead string
	width        int
	verb         string
	cell         func(*R) any
}

// render is the one table renderer: a title line, a header, one line per
// row and the notes, as aligned text or as a GitHub table.
func render[R any](markdown bool, title string, rows []R, cols []column[R], notes []string) string {
	heads := make([]any, len(cols))
	headFmt, rowFmt := make([]string, len(cols)), make([]string, len(cols))
	for i, c := range cols {
		heads[i] = c.head
		width := ""
		if markdown && c.mdHead != "" {
			heads[i] = c.mdHead
		} else if !markdown && c.width != 0 {
			width = strconv.Itoa(c.width)
		}
		headFmt[i], rowFmt[i] = "%"+width+"s", "%"+width+c.verb
	}
	open, sep, end, note := "", " ", "\n", "  note: %s\n"
	if markdown {
		title = "**" + title + "**\n"
		open, sep, end, note = "| ", " | ", " |\n", "\n*note: %s*\n"
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, open+strings.Join(headFmt, sep)+end, heads...)
	if markdown {
		b.WriteString("|" + strings.Repeat("---|", len(cols)) + "\n")
	}
	vals := make([]any, len(cols))
	for i := range rows {
		for j, c := range cols {
			vals[j] = c.cell(&rows[i])
		}
		fmt.Fprintf(&b, open+strings.Join(rowFmt, sep)+end, vals...)
	}
	for _, n := range notes {
		fmt.Fprintf(&b, note, n)
	}
	return b.String()
}

// anyRow reports whether some row satisfies f; the optional column groups
// are rendered only when a row carries them.
func anyRow[R any](rows []R, f func(*R) bool) bool {
	for i := range rows {
		if f(&rows[i]) {
			return true
		}
	}
	return false
}

func (t *Table) render(markdown bool) string {
	cols := []column[Row]{
		{"config", "", -12, "s", func(r *Row) any { return r.Label }},
		{"cycles", "", 14, "d", func(r *Row) any { return r.Cycles }},
		{"seconds", "", 12, ".6f", func(r *Row) any { return r.Seconds }},
		{"speedup", "", 10, ".2f", func(r *Row) any { return r.Speedup }},
		{t.MetricName, "", 16, ".4g", func(r *Row) any { return r.Metric }},
		{"host-Mev/s", "", 12, ".3f", func(r *Row) any { return r.HostMevS }},
	}
	if anyRow(t.Rows, func(r *Row) bool { return r.Msgs != 0 || r.Tuples != 0 }) {
		cols = append(cols,
			column[Row]{"msgs", "", 12, "d", func(r *Row) any { return r.Msgs }},
			// The achieved packing factor: 1.0 for the classic shuffle.
			column[Row]{"tup/msg", "", 8, ".2f", func(r *Row) any {
				if r.Msgs == 0 {
					return 0.0
				}
				return float64(r.Tuples) / float64(r.Msgs)
			}})
	}
	if anyRow(t.Rows, func(r *Row) bool { return r.DRAMx != 0 }) {
		cols = append(cols,
			column[Row]{"tax%", "", 8, ".1f", func(r *Row) any { return r.TaxPct }},
			column[Row]{"dramx", "", 8, ".2f", func(r *Row) any { return r.DRAMx }})
	}
	if anyRow(t.Rows, func(r *Row) bool { return r.Imbalance != 0 || r.DRAMUtil != 0 || r.InjUtil != 0 }) {
		cols = append(cols,
			column[Row]{"imbal", "", 8, ".2f", func(r *Row) any { return r.Imbalance }},
			column[Row]{"dram%", "", 8, ".1f", func(r *Row) any { return 100 * r.DRAMUtil }},
			column[Row]{"inj%", "", 8, ".1f", func(r *Row) any { return 100 * r.InjUtil }})
	}
	if anyRow(t.Rows, func(r *Row) bool { return r.CritPct != 0 }) {
		cols = append(cols, critColumn(func(r *Row) float64 { return r.CritPct }))
	}
	return render(markdown, t.Title+" — "+t.Workload, t.Rows, cols, t.Notes)
}

// critColumn is the crit% column of the figure and chaos tables.
func critColumn[R any](pct func(*R) float64) column[R] {
	return column[R]{"crit%", "", 8, ".2f", func(r *R) any { return 100 * pct(r) }}
}

// Format renders the table as aligned text.
func (t *Table) Format() string { return t.render(false) }

// Markdown renders the table as a GitHub table (EXPERIMENTS.md).
func (t *Table) Markdown() string { return t.render(true) + "\n" }

// ParseNodeList parses "1,2,4,8" sweep flags. Entries must be whole
// positive integers — strconv.Atoi, not Sscanf, so trailing garbage like
// "8x" is rejected instead of silently parsing as 8. The result is sorted
// and deduplicated (a repeated entry would just re-run an identical
// configuration).
func ParseNodeList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("harness: bad node list entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: empty node list")
	}
	sort.Ints(out)
	dedup := out[:1]
	for _, n := range out[1:] {
		if n != dedup[len(dedup)-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup, nil
}
