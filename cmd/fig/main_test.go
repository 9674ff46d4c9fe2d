package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parentFlags is every flag name and default of the nine per-figure
// binaries this command replaced (cmd/fig9pr ... cmd/figserve at commit
// 4a025c9), read from their -h output, less three deleted since: 9pr's and
// 9tc's -combine went with the pack-buffer combiner, and 10's -coalesce,
// which changed nothing because ingestion is map-only. Documented commands
// map one-to-one: `figX -flag v` is `fig X -flag v`.
var parentFlags = map[string]map[string]string{
	"9pr": { // cmd/fig9pr
		"abs":      "false",
		"coalesce": "false",
		"critpath": "false",
		"graphs":   "rmat,erdos-renyi,forest-fire,twitter",
		"iters":    "1",
		"markdown": "false",
		"nodes":    "1,2,4,8,16",
		"progress": "false",
		"scale":    "16",
		"seed":     "42",
		"shards":   "0",
		"validate": "true",
	},
	"9bfs": { // cmd/fig9bfs
		"abs":      "false",
		"coalesce": "false",
		"critpath": "false",
		"graphs":   "rmat,com-orkut,soc-livej",
		"markdown": "false",
		"nodes":    "1,2,4,8,16",
		"progress": "false",
		"scale":    "16",
		"seed":     "42",
		"shards":   "0",
		"validate": "true",
	},
	"9tc": { // cmd/fig9tc
		"coalesce": "false",
		"critpath": "false",
		"graphs":   "friendster,com-orkut,soc-livej,rmat",
		"markdown": "false",
		"nodes":    "1,2,4,8,16",
		"progress": "false",
		"scale":    "11",
		"seed":     "42",
		"shards":   "0",
		"validate": "true",
	},
	"10": { // cmd/fig10
		"block":    "512",
		"critpath": "false",
		"markdown": "false",
		"mults":    "0.1,1,2",
		"nodes":    "1,2,4,8",
		"progress": "false",
		"records":  "10000",
		"seed":     "7",
		"shards":   "0",
	},
	"11": { // cmd/fig11
		"interarrival": "8",
		"lanes":        "32,128,512,2048",
		"markdown":     "false",
		"records":      "1500",
		"seed":         "11",
		"shards":       "0",
	},
	"12": { // cmd/fig12
		"compute":  "16",
		"critpath": "false",
		"dram-bw":  "100",
		"markdown": "false",
		"mem":      "1,2,4,8,16",
		"progress": "false",
		"reps":     "",
		"scale":    "14",
		"seed":     "42",
		"shards":   "0",
	},
	"chaos": { // cmd/figchaos
		"apps":         "",
		"critpath":     "false",
		"delay":        "0",
		"delay-cycles": "0",
		"drops":        "0.01,0.02,0.05,0.1",
		"dup":          "0.02",
		"failstop":     "false",
		"fault-seed":   "1",
		"markdown":     "false",
		"nodes":        "2",
		"progress":     "false",
		"rep":          "0",
		"scale":        "12",
		"seed":         "42",
		"shards":       "0",
		"spare":        "false",
	},
	"sched": { // cmd/figsched
		"accels":   "4",
		"date":     "",
		"jobs":     "24",
		"json":     "",
		"lanes":    "16",
		"loads":    "24000,12000,6000,3000",
		"nodes":    "8",
		"progress": "false",
		"quantum":  "4096",
		"scale":    "9",
		"seed":     "42",
		"shards":   "0",
		"verify":   "false",
		"what":     "Multi-tenant scheduler: throughput and latency vs offered load",
	},
	"serve": { // cmd/figserve
		"accels":   "4",
		"date":     "",
		"fuse":     "2048",
		"gaps":     "32000,16000,8000,4000,2000",
		"json":     "",
		"lanes":    "16",
		"nodes":    "2",
		"progress": "false",
		"quantum":  "4096",
		"queries":  "48",
		"scale":    "8",
		"seed":     "42",
		"shards":   "0",
		"slots":    "0",
		"what":     "Interactive query serving: queries/sec and tail latency vs arrival rate",
	},
}

// TestFlagsMatchParent: each subcommand registers exactly the flags its
// old binary had, with the same defaults — none dropped, none added.
func TestFlagsMatchParent(t *testing.T) {
	if len(figures) != len(parentFlags) {
		t.Fatalf("%d figures, want %d", len(figures), len(parentFlags))
	}
	for _, f := range figures {
		want := parentFlags[f.name]
		if want == nil {
			t.Errorf("figure %q has no parent binary", f.name)
			continue
		}
		fs := flag.NewFlagSet(f.name, flag.ContinueOnError)
		f.setup(fs, &common{})
		got := map[string]string{}
		fs.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
		for name, def := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("fig %s: flag -%s missing", f.name, name)
			} else if g != def {
				t.Errorf("fig %s: -%s default %q, parent %q", f.name, name, g, def)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("fig %s: flag -%s added (the parent binary had none)", f.name, name)
			}
		}
	}
}

// TestUnknownFigure: a missing or unknown figure name exits 2 and lists
// all nine.
func TestUnknownFigure(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-scale", "3"}} {
		var stderr strings.Builder
		if code := run(args, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		for name := range parentFlags {
			if !strings.Contains(stderr.String(), "\n  "+name+" ") {
				t.Errorf("run(%q) usage does not list %q:\n%s", args, name, stderr.String())
			}
		}
	}
}

// TestGoldenPayloads regenerates the checked-in `fig sched -verify` and
// `fig serve` payloads at their default flags and requires them byte for
// byte. Every number in them is simulated time, so a difference is a
// changed timeline, never host noise. An intended change is re-pinned by
// the command in the failure message. sched.json last moved when PageRank
// jobs began finishing each vertex in its reduce and dropped their apply
// launch: every PR job is one launch per iteration and shorter.
func TestGoldenPayloads(t *testing.T) {
	for _, args := range [][]string{{"sched", "-verify"}, {"serve"}} {
		t.Run(args[0], func(t *testing.T) {
			golden := filepath.Join("testdata", args[0]+".json")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			var head struct{ What, Date string }
			if err := json.Unmarshal(want, &head); err != nil {
				t.Fatalf("%s: %v", golden, err)
			}
			out := filepath.Join(t.TempDir(), args[0]+".json")
			var stderr strings.Builder
			full := append(args, "-json", out, "-what", head.What, "-date", head.Date)
			if code := run(full, &stderr); code != 0 {
				t.Fatalf("fig %s: exit %d: %s", args[0], code, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fig %s payload differs from %s; if the change is intended, re-pin with\n"+
					"  go run ./cmd/fig %s -json cmd/fig/%s -what %q -date %q",
					args[0], golden, strings.Join(args, " "), golden, head.What, head.Date)
			}
		})
	}
}

// TestBadFlagExits2: flag values that used to panic or run a nonsensical
// sweep exit 2 with one line naming the flag, before anything is built.
func TestBadFlagExits2(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"9pr -scale -1", "scale"},
		{"9bfs -scale 3 -graphs rmat", "scale"},
		{"12 -scale 3", "scale"},
		{"chaos -scale 3", "scale"},
		{"chaos -rep 2 -scale 3", "scale"},
		{"serve -queries -1", "queries"},
		{"sched -jobs -2", "jobs"},
		{"serve -gaps 0", "gaps"},
		{"sched -loads 0 -json unwritten.json", "loads"},
		{"serve -gaps -5", "gaps"},
		{"sched -loads -5", "loads"},
		{"sched -loads 3000x", "-loads"},
		{"10 -mults 1,zero", "-mults"},
		{"chaos -drops 1.5", "-drops"},
		{"11 -lanes 0", "-lanes"},
		{"9bfs -scale 8 -nodes 3000000", "NetworkID"},
		{"sched -nodes 40000000", "NetworkID"},
	} {
		var stderr strings.Builder
		if code := run(strings.Fields(tc.args), &stderr); code != 2 {
			t.Errorf("fig %s: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, tc.names) {
			t.Errorf("fig %s: message does not name %q: %s", tc.args, tc.names, msg)
		}
		if strings.Count(msg, "\n") != 1 {
			t.Errorf("fig %s: want a one-line message, got:\n%s", tc.args, msg)
		}
	}
}
