#!/bin/sh
# Tier-1 verify flow: vet, build, full test suite, then the race detector
# over the concurrency-bearing packages (the simulator's persistent worker
# pool, the KVMSR runtime, and the metrics recorder's shard views).
set -eux

# Determinism guard: all randomness must flow through internal/prng's
# seeded streams. A stray math/rand import anywhere else (simulated path
# or test) breaks bit-reproducibility — including fault-injection
# verdicts, which are pure functions of (seed, src, seq).
if grep -rn --include='*.go' '"math/rand' . | grep -v '^\./internal/prng/'; then
    echo "error: math/rand import outside internal/prng (use updown/internal/prng)" >&2
    exit 1
fi

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "error: gofmt -l is not clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Line budget: the repository's non-blank Go source lines (cmd/loccount's
# total, the paper's Table 5 metric) may not grow past LOC_BUDGET. A change
# that adds code deletes as much elsewhere, or raises the budget on purpose.
LOC_BUDGET=22805
loc=$(go run ./cmd/loccount | awk '$1 == "total" { print $2 }')
[ -n "$loc" ] && [ "$loc" -le "$LOC_BUDGET" ] || { echo "line budget: '$loc' source lines, budget $LOC_BUDGET" >&2; exit 1; }

go vet ./...
go build ./...
go test ./...
go test -race ./internal/sim/ ./internal/kvmsr/ ./internal/metrics/ ./internal/telemetry/
# The scheduler's and the query server's publish hooks read their state
# in the quiesced engine context while HTTP readers load snapshots.
go test -race -run Telemetry ./internal/sched/ ./internal/serve/
# Serving at shards 1/2/7/GOMAXPROCS: the pipelined frontier pump's
# several chunk reads per slot and the co-tenancy-aware slot pick run
# under the race detector and must give one timeline.
go test -race -run DeterministicAcrossShards ./internal/serve/
# Point queries: batched answers equal solo ones, and reordered delivery
# (a delay-only fault plan) moves no answer, under the race detector.
go test -race -run 'BatchEqualsSolo|Delay' ./internal/apps/pointq/
# On a one-CPU process every shard count runs the inline executor; pin
# that here so multi-core runners exercise hostAuto's other branch too
# (-count=1: the test cache does not key on GOMAXPROCS).
GOMAXPROCS=1 go test -count=1 ./internal/sim/

# Fuzz smoke: a few seconds of new -fault-spec strings, gv/nl graph files,
# sweep-list flag values and checkpoint bytes beyond the checked-in corpora
# (which go test above already replays); a panic in a parser, in updown.New
# on the parsed plan, in ReadGVNL or in Machine.Restore, a list parser that
# accepts an unsorted list or rejects with anything but a one-line bad
# option, or a rejected restore that changed the machine, fails here.
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 5s -parallel 2 ./internal/fault/
go test -run '^$' -fuzz '^FuzzReadGVNL$' -fuzztime 5s -parallel 2 ./internal/graph/
go test -run '^$' -fuzz '^FuzzParseNodeList$' -fuzztime 5s -parallel 2 ./internal/harness/
go test -run '^$' -fuzz '^FuzzParseList$' -fuzztime 5s -parallel 2 ./cmd/fig/
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 5s -parallel 2 .

# Bench smoke: the shuffle-aggregation benchmark asserts (via b.Fatalf)
# that coalesced PageRank pushes strictly fewer messages into
# the inter-node network than the classic shuffle while emitting the
# same number of logical tuples.
go test -run XX -bench BenchmarkKVMSRShuffle -benchtime=5x .

# The figure tool is built once and called as a binary by every smoke
# below (go run would re-link it each time).
go build -o fig ./cmd/fig

# Replication smoke: fig chaos -rep fail-stops a data-carrying node at
# k=2 mid-run and exits nonzero unless the faulted outputs match the
# fault-free run with zero dead letters and an in-place bit-exact heal;
# the fig 12 -reps extension must measure a write fan-out (dramx > 1).
./fig chaos -rep 2 -scale 8
./fig 12 -scale 10 -mem 4 -compute 4 -reps 2 \
    | awk '/^k=2/ { if ($8 <= 1.0) { print "fig 12 k=2 dramx <= 1: no write fan-out measured"; exit 1 } found=1 } END { exit !found }'

# Serving smoke: a small fig serve sweep must resolve every query, and
# admission into every slot must beat the one-in-flight baseline at the
# saturating load point (higher queries/sec on the same stream). Every
# slot launches its engine's one KVMSR invocation on its own lane slice,
# so slots are bounded by lanes alone: one slot per lane of the default
# 128-lane machine resolves every query, as does the paper's node shape
# (32 accelerators x 64 lanes, 128 slots per engine on 4 nodes), and one
# slot more than lanes must exit 2 with "too many slots", not panic.
./fig serve -queries 12 -gaps 8000,3000 \
    | awk '/^saturation:/ { if ($3+0 <= $7+0) { print "fig serve: fused qps not above unfused"; exit 1 } found=1 } END { exit !found }'
serve_resolves() {
    ./fig serve -queries 4 "$@" \
        | awk '/^ +[0-9]/ { rows++; if ($4 != 4) { print "fig serve: " $4 " of 4 queries resolved: " $0; exit 1 } } END { exit !rows }' \
        || { echo "fig serve $*: not every query resolved"; exit 1; }
}
serve_resolves -slots 128
serve_resolves -nodes 4 -accels 32 -lanes 64 -scale 6 -gaps 32000
code=0; ./fig serve -slots 129 -queries 4 2>slots.err || code=$?
[ "$code" -eq 2 ] && grep -q "too many slots" slots.err || { echo "fig serve -slots 129: exit $code, want 2 and 'too many slots'"; cat slots.err; exit 1; }
rm -f slots.err

# Termination smoke: plain and coalesced BFS drain at the nodes at most
# once per node and launch, and print the same result checksum.
go build -o updown-sim ./cmd/updown-sim
term_smoke() {
    out=$(./updown-sim -app bfs -nodes 2 -scale 10 "$@" -profile -checksum)
    printf '%s\n' "$out" | awk -F'[ =]' '/^termination:/ { if ($4 != "node-drains" || $5+0 > 2*$3) { print "termination smoke: more node drains than launches x nodes: " $0 > "/dev/stderr"; exit 1 } found=1 } END { exit !found }' || return 1
    printf '%s\n' "$out" | awk '/^result-checksum:/{print $2}'
}
plain=$(term_smoke)
coal=$(term_smoke -coalesce)
[ -n "$plain" ] && [ "$plain" = "$coal" ] || { echo "termination smoke: checksum '$coal' (coalesced) != '$plain'"; exit 1; }

# Placement smoke: with the graph on the lanes' own four nodes a vertex
# block's records and neighbor lists share a node and the apps bind to it:
# PageRank runs every vertex task there, and a hub's member run shares its
# base's block, so no DRAM read or write crosses nodes (75% of reads did
# under Block/Hash, 23% with lists laid out by edge offset, 1 read and 1
# write while member runs could straddle a block),
# BFS its kv_reduce, so a frontier vertex is appended to and expanded from a
# segment on the node homing its record and list: under 1% of reads and no
# write cross nodes (13.3% and 37.6% while the frontier sat on node 0) —
# with the distances of the 1-node run, as must the 3-node run (a lane set
# of three nodes: one frontier chunk on each). A machine whose node count
# is not a power of two holds the graph on the largest power of two of its
# nodes and the apps fall back to Block/Hash, as do Figure 12's mem !=
# compute rows: all of them must still run and validate.
cross_below() { # cross_below <limit%> <label>: the profile's dram-read row on stdin
    awk -v lim="$1" -v what="$2" '/^dram-read / { share = $5; gsub(/[(%)]/, "", share); if (share+0 >= lim) { print "placement smoke: " what ": " share "% of dram-read cross-node, want < " lim; exit 1 } found=1 } END { exit !found }'
}
cross_none() { # cross_none <kind> <label>: the profile's <kind> row on stdin
    awk -v kind="$1" -v what="$2" '$1 == kind { found=1; if ($4 != 0) { print "placement smoke: " what ": " $4 " " kind "s cross nodes, want 0"; bad=1 } } END { exit bad || !found }'
}
checksum() { awk '/^result-checksum:/{print $2}'; }
pr4=$(./updown-sim -app pr -nodes 4 -scale 12 -iters 2 -profile)
printf '%s\n' "$pr4" | cross_none dram-read pr
printf '%s\n' "$pr4" | cross_none dram-write pr
# PageRank finishes a vertex in the reduce that brings its last expected
# contribution, so an iteration is one launch: one single-phase line per
# iteration, and as many launches as iterations.
printf '%s\n' "$pr4" | awk '/^phases: / { n++; if ($0 !~ /^phases: iter [0-9]+ map\+reduce=[0-9]+ cycles$/) { print "placement smoke: pr: " $0; bad=1 } } /^termination:/ { split($2, f, "="); launches = f[2] } END { if (n != 2 || launches != 2) { print "placement smoke: pr: " n+0 " phases lines, " launches+0 " launches for 2 iterations"; bad=1 } exit bad }'
# TC reduces on any lane: a coalesced pack goes to the distributor its first
# key hashes to, so a hub's intersections spread over the node instead of
# one lane per node running them all (97.9% of the makespan when the
# distributor was picked by the sender's lane). Its total rides the launch's
# completion sum, so nothing writes DRAM.
./updown-sim -app tc -nodes 4 -scale 12 -coalesce -profile \
    | awk '/^busiest lane:/ { found=1; share = $(NF-2); gsub(/%/, "", share); if (share+0 >= 90) { print "tc smoke: " $0 ", want < 90%"; bad=1 } } /^events:/ { if ($0 !~ / \/ 0 writes /) { print "tc smoke: " $0 ", want 0 DRAM writes"; bad=1 } dram=1 } END { exit bad || !found || !dram }'
bfs4=$(./updown-sim -app bfs -nodes 4 -scale 12 -profile -checksum)
printf '%s\n' "$bfs4" | cross_below 1 bfs
printf '%s\n' "$bfs4" | cross_none dram-write bfs
bfs1=$(./updown-sim -app bfs -nodes 1 -scale 12 -checksum | checksum)
bfs3=$(./updown-sim -app bfs -nodes 3 -scale 12 -checksum | checksum)
bfs4=$(printf '%s\n' "$bfs4" | checksum)
[ -n "$bfs1" ] && [ "$bfs1" = "$bfs4" ] && [ "$bfs1" = "$bfs3" ] || { echo "placement smoke: bfs checksum '$bfs4' on 4 nodes, '$bfs3' on 3, want '$bfs1' of 1"; exit 1; }
# BFS declares FirstWins: the lane that addresses a tuple to its owner lane
# (a direct-send emitter, or the coalescing distributor that unpacks it)
# retires a vertex's repeat tuples instead of queueing them at the owner,
# which must change no distance, round or traversed-edge count.
bfs4c=$(./updown-sim -app bfs -nodes 4 -scale 12 -coalesce -checksum)
printf '%s\n' "$bfs4c" | grep -Eq '^shuffle: .*, [1-9][0-9]* retired at hand-off$' || { echo "placement smoke: bfs -coalesce on 4 nodes retired no tuple at hand-off"; exit 1; }
bfs4c=$(printf '%s\n' "$bfs4c" | checksum)
[ "$bfs4c" = "$bfs1" ] || { echo "placement smoke: bfs -coalesce checksum '$bfs4c' on 4 nodes, want '$bfs1' of 1"; exit 1; }
# Scratchpad smoke: every lane's slots (udweave.NewSlot) are charged to its
# 64 KiB scratchpad and a Get past it panics; BFS at the bfs_batch geometry
# must run and report its fullest lane below the cap.
batch=$(./updown-sim -app bfs -scale 16 -nodes 8 -coalesce -m 256 -root 28 -profile)
printf '%s\n' "$batch" \
    | awk '/^scratchpad:/ { if ($8+0 >= 65536) { print "scratchpad smoke: " $0; exit 1 } found=1 } END { exit !found }'
# Stop-rule smoke: BFS ends on the first round whose reduces visit nothing,
# so on the rounds: line (cycles/tuples/new per round) only the last entry
# has new == 0.
printf '%s\n' "$batch" \
    | awk '/^rounds: cycles\/tuples\/new / { for (i = 3; i <= NF; i++) { split($i, f, "/"); if ((f[3] == 0) != (i == NF)) { print "stop-rule smoke: round " i-3 " of " $0; exit 1 } } found=1 } END { exit !found }'
./updown-sim -app pr -nodes 3 -scale 10 > /dev/null
./fig 9pr -scale 10 -nodes 3 | grep -q 'values validated against host baseline'
./fig 12 -scale 10 -mem 1,2,4 -compute 4 \
    | awk '/^mem=/ { rows++ } END { if (rows != 6) { print "fig 12: " rows+0 " of 6 rows"; exit 1 } }'

# Scheduler smoke: a small multi-tenant sweep with -verify replays every
# completed job solo, pinned to the same nodes, and exits nonzero unless
# outputs, completion cycles and attributed totals are bit-identical to
# the concurrent run; the race detector covers the scheduler package's
# reconcile loop over the sharded engine.
go test -race -count=1 ./internal/sched/
./fig sched -nodes 4 -scale 8 -jobs 8 -loads 8000,3000 -verify

# Benchmark module: bench/ is its own module outside ./..., so the steps
# above never compile it. Vet and test it, then run the repository
# benchmark at smoke sizes: all four workloads, both passes, outputs
# validated and simulated fingerprints cross-checked.
(cd bench && go vet ./... && go test ./...)
bash bench/run.sh -quick
