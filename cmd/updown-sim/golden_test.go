package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput runs every case of testdata/golden.txt in process and
// compares stdout byte for byte: pr, bfs and tc classic, coalesced and
// resilient, bfs resilient and coalesced at once, ingest and match, and pr
// under -profile. The file was captured before the graph applications
// moved onto the harness's application table. Lines changed since on purpose: the last
// case's shuffle line printed "(+Inf tup/msg)" for a run whose every tuple
// stayed node-local, and now prints no ratio; the bfs cases' timing lines
// (and the resilient case's timer-driven event count) moved when the
// frontier segments moved onto their accelerators' nodes, with the same
// checksums; the -profile case gained its "busiest lane:" line. Every
// timing line moved once more when each node began draining its own lanes
// and the tree's roles left the accelerators' first lanes: the
// termination line names master probes and node drains, and the three pr
// checksums moved with the order of PageRank's float sums, which follows
// reduce order (bfs and tc kept theirs). The bfs cases moved again when
// BFS began seeding its root on the root's reduce owner's accelerator and
// ending on the first round that visits nothing: one round fewer, and a
// checksum that moved through its first word, the round count, alone. The
// -profile case's scratchpad line grew then by the reduce-side sums
// (ReduceDoneAdd) each lane's KVMSR state carries. The four pr cases moved
// when PageRank's spread split began aligning each hub's member run inside
// one block: the vertices' order changed, and with it the reduce order the
// float sums, and so the checksums, follow. The resilient coalesced bfs
// case was added when every shuffle tuple began travelling as a pack, with
// the other bfs cases' checksum. The four pr cases moved again when
// PageRank's apply began taking each member's sum from its reduce lane's
// combining cache instead of a flush launch writing them back first (one
// launch and its DRAM round trips fewer; the -profile case's phases line
// lost its flush column, and the combined case's checksum moved with the
// order of the float sums), and the coalesced tc case when a ReduceAnyLane
// pack began going to a distributor picked by its first key's hash instead
// of by the sender's lane, with the same checksum. The four pr cases moved
// again when PageRank began finishing each vertex in the reduce that brings
// its last expected contribution and dropped its apply launch: one launch
// per iteration, the -profile case's phases line down to its map+reduce
// column, and checksums that moved with the order of the float sums. The
// three tc cases moved when TC's total began riding its launch's completion
// sum instead of a flush launch writing per-lane totals to DRAM: fewer
// cycles and events, no DRAM writes, the same total and checksum; the
// -profile case's scratchpad line shrank with the combining cache's lane
// state, which lost its flush fields. The three coalesced cases ran with
// -combine until the pack-buffer combiner was deleted; they now run plain
// -coalesce and print exactly what -coalesce printed before: pr and tc
// sent fewer messages and read other cycle counts, bfs (which never had a
// combiner) did not move. The -profile case's termination line lost its
// master-probes field when the counter behind it, which nothing ever
// incremented, was deleted, and its scratchpad line shrank by that
// counter's 8 bytes of KVMSR lane state (568 -> 560).
func TestGoldenOutput(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(string(data), "$ updown-sim ")[1:] {
		args, want, _ := strings.Cut(block, "\n")
		t.Run(args, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := stdout.String(); got != want {
				t.Errorf("stdout differs from the golden file:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestFlagsUnchanged: the flag set, defaults and help text are those of
// testdata/flags.txt, the -h output captured with the golden file. Its
// -combine entry went with the pack-buffer combiner.
func TestFlagsUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if got := stderr.String(); got != "Usage of updown-sim:\n"+string(want) {
		t.Errorf("-h output differs from testdata/flags.txt:\n%s", got)
	}
}

// TestBadRunsRejected: flag values that used to panic or print nonsense
// exit 2 with one line before anything is built, and a fault plan naming a
// node the machine lacks is updown.New's typed error (exit 1), not a panic.
// So is a -gv/-nl pair whose header claims 2^62 vertices, and so are two
// -restore files that used to die of a runtime out-of-memory error: 16
// bytes announcing 2^36 bytes of metadata, and a 2-node warm-start
// checkpoint whose engine section claims 2^36 pending messages.
func TestBadRunsRejected(t *testing.T) {
	dir := t.TempDir()
	gv, nl := filepath.Join(dir, "g.gv"), filepath.Join(dir, "g.nl")
	if os.WriteFile(gv, []byte("VGDU\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x40"), 0o644) != nil ||
		os.WriteFile(nl, []byte("LNDU\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644) != nil {
		t.Fatal("writing the malformed graph files failed")
	}
	short, msgs := filepath.Join(dir, "short.ckpt"), filepath.Join(dir, "msgs.ckpt")
	if os.WriteFile(short, []byte("UDCLICKP\x00\x00\x00\x00\x10\x00\x00\x00"), 0o644) != nil {
		t.Fatal("writing the short checkpoint failed")
	}
	writeMsgsCheckpoint(t, msgs)
	for _, tc := range []struct {
		args string
		code int
		msg  string
	}{
		{"-scale -1", 2, "scale -1"},
		{"-scale 31", 2, "scale 31"},
		{"-iters -3", 2, "iters -3"},
		{"-app ingest -records -1", 2, "records -1"},
		{"-app match -records -1", 2, "records -1"},
		{"-app sssp", 2, "unknown app"},
		{"-app bfs -scale 8 -nodes 3000000", 2, "NetworkID"},
		{"-app bfs -resilient -fault-spec drop=NaN", 2, "drop probability"},
		{"-app bfs -nodes 2 -scale 6 -resilient -fault-spec failstop=99@10", 1, "fault: failstop 0: node 99 out of range"},
		{"-app bfs -gv " + gv + " -nl " + nl, 1, "graph: malformed gv/nl file: gv vertex count"},
		{"-app bfs -scale 8 -restore " + short, 1, "corrupt checkpoint header: 68719476736-byte string: EOF"},
		{"-app bfs -nodes 2 -restore " + msgs, 1, "restore rejected (corrupt stream)"},
	} {
		var stdout, stderr strings.Builder
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		msg := stderr.String()
		if code != tc.code || !strings.Contains(msg, tc.msg) || strings.Count(msg, "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("updown-sim %s: exit %d, stderr %q, stdout %q; want exit %d and one line naming %q",
				tc.args, code, msg, stdout.String(), tc.code, tc.msg)
		}
	}
}

// writeMsgsCheckpoint writes a 2-node bfs warm-start checkpoint to path
// with the engine section's pending-message count set to 2^36. The count
// follows the section's magic, version, 22 machine words, actor count,
// host sequence, one injection word per node and 15 statistics words; a
// warm-start checkpoint has no pending message, so the word must read 0.
func writeMsgsCheckpoint(t *testing.T, path string) {
	t.Helper()
	var stdout, stderr strings.Builder
	if code := run(strings.Fields("-app bfs -nodes 2 -scale 6 -checkpoint "+path), &stdout, &stderr); code != 0 {
		t.Fatalf("writing the checkpoint: exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("UDSIMCKP"))
	off := at + 8 + 4 + 22*8 + 8 + 8 + 2*8 + 15*8
	if at < 0 || off+8 > len(data) || binary.LittleEndian.Uint64(data[off:]) != 0 {
		t.Fatal("the engine section's message count is not where this test expects it")
	}
	binary.LittleEndian.PutUint64(data[off:], 1<<36)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
