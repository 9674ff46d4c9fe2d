package harness

// Renderer goldens: the fixtures below rendered by the three hand-written
// Format/Markdown pairs this package had before they were folded into one
// column-list renderer (captured at commit 4a025c9). TestTableFormatting
// compares the renderer's output against them byte for byte.

func goldenTable(full bool) *Table {
	tb := &Table{Title: "T", Workload: "W", MetricName: "M",
		Rows: []Row{
			{Label: "1", Cycles: 100, Seconds: 5e-8, Speedup: 1, Metric: 3.5, HostMevS: 1.25},
			{Label: "mem=2", Cycles: 40, Seconds: 0.000123, Speedup: 2.5, Metric: 12345.678, HostMevS: 0.5},
		},
		Notes: []string{"hello", "second"}}
	if full {
		r := &tb.Rows[1]
		r.Msgs, r.Tuples = 10, 25
		r.TaxPct, r.DRAMx = 3.25, 1.5
		r.Imbalance, r.DRAMUtil, r.InjUtil = 1.2, 0.257, 0.031
		r.CritPct = 0.4567
	}
	return tb
}

func goldenChaos(crit bool) *ChaosTable {
	tb := &ChaosTable{Workload: "W",
		Rows: []ChaosRow{
			{Cycles: 1000, Goodput: 0.5},
			{DropRate: 0.05, Cycles: 1500, Goodput: 0.3333, Recovery: 500, Dropped: 7, Dupped: 3, DeadLetters: 1, Retries: 9, DupDrops: 4, Rekicks: 2},
		},
		Notes: []string{"hello"}}
	if crit {
		tb.Rows[1].CritPct = 0.875
	}
	return tb
}

func goldenChaosRep() *ChaosRepTable {
	return &ChaosRepTable{Workload: "W",
		Rows: []ChaosRepRow{
			{App: "bfs", CleanCycles: 62148, FaultCycles: 62099, TaxPct: -0.08, FailStopAt: 31074,
				Failovers: 1, FallbackReads: 186, Hints: 10, HintWords: 20, Repl: "fo=1 fb=186 hq=10", Match: "bit-exact"},
			{App: "pagerank", CleanCycles: 100, FaultCycles: 125, TaxPct: 25, FailStopAt: 50,
				DeadLetters: 2, RepairedWords: 64, Repl: "fo=0 fb=0 hq=0", Match: "rel<=1e-09"},
		},
		Notes: []string{"hello", "second"}}
}

// goldenRenders maps "<fixture>.txt" to Format() and "<fixture>.md" to
// Markdown().
var goldenRenders = map[string]string{
	"table.txt": `T — W
config               cycles      seconds    speedup                M   host-Mev/s
1                       100     0.000000       1.00              3.5        1.250
mem=2                    40     0.000123       2.50        1.235e+04        0.500
  note: hello
  note: second
`,
	"table.md": `**T — W**

| config | cycles | seconds | speedup | M | host-Mev/s |
|---|---|---|---|---|---|
| 1 | 100 | 0.000000 | 1.00 | 3.5 | 1.250 |
| mem=2 | 40 | 0.000123 | 2.50 | 1.235e+04 | 0.500 |

*note: hello*

*note: second*

`,
	"table-full.txt": `T — W
config               cycles      seconds    speedup                M   host-Mev/s         msgs  tup/msg     tax%    dramx    imbal    dram%     inj%    crit%
1                       100     0.000000       1.00              3.5        1.250            0     0.00      0.0     0.00     0.00      0.0      0.0     0.00
mem=2                    40     0.000123       2.50        1.235e+04        0.500           10     2.50      3.2     1.50     1.20     25.7      3.1    45.67
  note: hello
  note: second
`,
	"table-full.md": `**T — W**

| config | cycles | seconds | speedup | M | host-Mev/s | msgs | tup/msg | tax% | dramx | imbal | dram% | inj% | crit% |
|---|---|---|---|---|---|---|---|---|---|---|---|---|---|
| 1 | 100 | 0.000000 | 1.00 | 3.5 | 1.250 | 0 | 0.00 | 0.0 | 0.00 | 0.00 | 0.0 | 0.0 | 0.00 |
| mem=2 | 40 | 0.000123 | 2.50 | 1.235e+04 | 0.500 | 10 | 2.50 | 3.2 | 1.50 | 1.20 | 25.7 | 3.1 | 45.67 |

*note: hello*

*note: second*

`,
	"chaos.txt": `Chaos sweep: resilient BFS under message faults — W
drop               cycles  goodput-GTEPS     recovery    dropped     dupped    retries  dup-drops    rekicks
0.000                1000         0.5000            0          0          0          0          0          0
0.050                1500         0.3333          500          7          3          9          4          2
  note: hello
`,
	"chaos.md": `**Chaos sweep: resilient BFS under message faults — W**

| drop | cycles | goodput GTEPS | recovery | dropped | dupped | retries | dup-drops | rekicks |
|---|---|---|---|---|---|---|---|---|
| 0.000 | 1000 | 0.5000 | 0 | 0 | 0 | 0 | 0 | 0 |
| 0.050 | 1500 | 0.3333 | 500 | 7 | 3 | 9 | 4 | 2 |

*note: hello*
`,
	"chaos-crit.txt": `Chaos sweep: resilient BFS under message faults — W
drop               cycles  goodput-GTEPS     recovery    dropped     dupped    retries  dup-drops    rekicks    crit%
0.000                1000         0.5000            0          0          0          0          0          0     0.00
0.050                1500         0.3333          500          7          3          9          4          2    87.50
  note: hello
`,
	"chaos-crit.md": `**Chaos sweep: resilient BFS under message faults — W**

| drop | cycles | goodput GTEPS | recovery | dropped | dupped | retries | dup-drops | rekicks | crit% |
|---|---|---|---|---|---|---|---|---|---|
| 0.000 | 1000 | 0.5000 | 0 | 0 | 0 | 0 | 0 | 0 | 0.00 |
| 0.050 | 1500 | 0.3333 | 500 | 7 | 3 | 9 | 4 | 2 | 87.50 |

*note: hello*
`,
	"chaosrep.txt": `Replicated-memory chaos: mid-run fail-stop of a data node — W
app           clean-cyc    fault-cyc     tax%    failstop@  failover   fallback  deadltr   hints hint-words  repaired repl                   match
bfs               62148        62099    -0.08        31074         1        186        0      10         20         0 fo=1 fb=186 hq=10      bit-exact
pagerank            100          125    25.00           50         0          0        2       0          0        64 fo=0 fb=0 hq=0         rel<=1e-09
  note: hello
  note: second
`,
	"chaosrep.md": `**Replicated-memory chaos: mid-run fail-stop of a data node — W**

| app | clean cyc | fault cyc | tax% | failstop@ | failovers | fallback reads | dead letters | hints | hint words | repaired | repl | match |
|---|---|---|---|---|---|---|---|---|---|---|---|---|
| bfs | 62148 | 62099 | -0.08 | 31074 | 1 | 186 | 0 | 10 | 20 | 0 | fo=1 fb=186 hq=10 | bit-exact |
| pagerank | 100 | 125 | 25.00 | 50 | 0 | 0 | 2 | 0 | 0 | 64 | fo=0 fb=0 hq=0 | rel<=1e-09 |

*note: hello*

*note: second*
`,
}
