package sim

// Checkpoint/restore correctness: a run paused with RunUntil, serialized
// with Checkpoint and rebuilt with Restore into a fresh engine must
// continue bit-identically to a run that was never interrupted — across
// shard counts and host drivers (pool and multiplexer). Restore must
// also reject snapshots from a
// different format version, machine or actor space with a typed error,
// without corrupting the target engine.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"updown/internal/arch"
	"updown/internal/snap"
)

// fuzzEngine builds an engine running the determinism-fuzz workload.
// When post is false the workload is omitted: the engine is a blank
// restore target.
func fuzzEngine(t *testing.T, seed uint64, shards int, host hostMode, post bool) *Engine {
	t.Helper()
	m := arch.DefaultMachine(7)
	e, err := NewEngine(m, Options{
		Shards: shards,
		LaneFactory: func(id arch.NetworkID) Actor {
			return &fuzzActor{m: &m, seed: seed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.host = host
	if post {
		for r := uint64(0); r < 5; r++ {
			h := splitmix64(seed + r)
			node := int(h % uint64(m.Nodes))
			id := m.LaneID(node, 0, int(h>>8)%m.LanesPerAccel)
			e.Post(arch.Cycles(h%2500), id, arch.KindEvent, h, 0, 6)
		}
	}
	return e
}

func engineState(e *Engine) ([]arch.Cycles, []uint64) {
	freeAt := make([]arch.Cycles, len(e.state))
	seq := make([]uint64, len(e.state))
	for i := range e.state {
		freeAt[i] = e.state[i].freeAt
		seq[i] = e.state[i].seq
	}
	return freeAt, seq
}

func TestCheckpointRoundTrip(t *testing.T) {
	const seed = 0xfeedface
	ref := fuzzEngine(t, seed, 1, hostAuto, true)
	refStats, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Events == 0 {
		t.Fatal("reference workload executed no events")
	}
	refFree, refSeq := engineState(ref)

	cases := []struct {
		name   string
		shards int
		host   hostMode
	}{
		{"sequential", 1, hostAuto},
		{"pool-adaptive", 3, hostPool},
		{"mux-adaptive", 3, hostInline},
	}
	for _, c := range cases {
		for _, pause := range []arch.Cycles{0, 900, 2600, 7000} {
			t.Run(fmt.Sprintf("%s/pause=%d", c.name, pause), func(t *testing.T) {
				e := fuzzEngine(t, seed, c.shards, c.host, true)
				if _, err := e.RunUntil(pause); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := e.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				// Restore into a fresh engine with a different shard count
				// than the one that checkpointed: the format is
				// host-shape-independent.
				f := fuzzEngine(t, seed, 2, c.host, false)
				if err := f.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
				stats, err := f.Run()
				if err != nil {
					t.Fatal(err)
				}
				if stats != refStats {
					t.Errorf("stats diverge after restore:\n got %+v\nwant %+v", stats, refStats)
				}
				freeAt, seq := engineState(f)
				for i := range refFree {
					if freeAt[i] != refFree[i] || seq[i] != refSeq[i] {
						t.Errorf("actor %d state diverges: freeAt %d vs %d, seq %d vs %d",
							i, freeAt[i], refFree[i], seq[i], refSeq[i])
						break
					}
				}
			})
		}
	}
}

// TestCheckpointCanonicalBytes: checkpoints of the same simulation state
// are byte-identical regardless of the shard count and host driver that
// produced them: every driver pauses at exactly the requested cycle.
func TestCheckpointCanonicalBytes(t *testing.T) {
	const seed = 0xabad1dea
	for _, pause := range []arch.Cycles{1200, 5200} {
		t.Run(fmt.Sprintf("pause=%d", pause), func(t *testing.T) {
			var ref []byte
			var refName string
			cfgs := []struct {
				name   string
				shards int
				host   hostMode
			}{
				{"seq", 1, hostAuto},
				{"pool-2", 2, hostPool},
				{"mux-3", 3, hostInline},
			}
			for _, c := range cfgs {
				e := fuzzEngine(t, seed, c.shards, c.host, true)
				if _, err := e.RunUntil(pause); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := e.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref, refName = buf.Bytes(), c.name
					continue
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Errorf("%s checkpoint differs from %s (%d vs %d bytes)",
						c.name, refName, buf.Len(), len(ref))
				}
			}
		})
	}
}

// hashActor folds every message it executes into a running hash, so any
// reordering of its inbound queue — however totals-preserving — changes
// its final state. It snapshots the hash, exercising the Snapshotter
// payload path.
type hashActor struct {
	h uint64
}

func (a *hashActor) OnMessage(env *Env, m *Message) {
	a.h = splitmix64(a.h ^ m.Event)
	env.Charge(arch.Cycles(100 + a.h%400))
}

func (a *hashActor) Snapshot(c *snap.Codec) (func(), error) {
	h := a.h
	c.U64(&h)
	return func() { a.h = h }, c.Err()
}

// TestCheckpointDeepWaitq pauses while ~150 messages are parked behind
// one busy actor, forcing the snapshot to carry a deep wait queue whose
// FIFO order must survive the round trip (the running hash detects any
// reordering).
func TestCheckpointDeepWaitq(t *testing.T) {
	m := arch.DefaultMachine(2)
	build := func(post bool) (*Engine, *hashActor) {
		e, err := NewEngine(m, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		a := &hashActor{}
		id := e.AddActor(a)
		if post {
			for i := 0; i < 150; i++ {
				e.Post(arch.Cycles(i*3), id, arch.KindEvent, uint64(i), 0)
			}
		}
		return e, a
	}

	refE, refA := build(true)
	refStats, err := refE.Run()
	if err != nil {
		t.Fatal(err)
	}

	e, _ := build(true)
	if _, err := e.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	parked := 0
	for i := range e.state {
		parked += e.state[i].waitqLen()
	}
	if parked < 100 {
		t.Fatalf("expected a deep wait queue at the pause, found %d parked messages", parked)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	f, a2 := build(false)
	if err := f.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats != refStats {
		t.Errorf("stats diverge: got %+v want %+v", stats, refStats)
	}
	if a2.h != refA.h {
		t.Errorf("execution-order hash diverges: got %#x want %#x", a2.h, refA.h)
	}
}

// TestRestoreGuardRails: Restore rejects foreign or damaged snapshots
// with the right RestoreError kind, and — for the validate-before-apply
// kinds — leaves the target engine fully usable.
func TestRestoreGuardRails(t *testing.T) {
	src, err := NewEngine(arch.DefaultMachine(7), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := &hashActor{h: 7}
	id := src.AddActor(a)
	src.Post(0, id, arch.KindEvent, 1, 0)
	if _, err := src.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	// newTarget mirrors the source engine's actor space (one auxiliary
	// hashActor) on the given machine.
	newTarget := func(nodes int, extraActors int) *Engine {
		e, err := NewEngine(arch.DefaultMachine(nodes), Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		e.AddActor(&hashActor{})
		for i := 0; i < extraActors; i++ {
			e.AddActor(&hashActor{})
		}
		return e
	}

	cases := []struct {
		name   string
		data   func() []byte
		target func() *Engine
		kind   RestoreErrorKind
		intact bool // engine must be untouched after the failure
	}{
		{
			name: "bad magic",
			data: func() []byte {
				d := append([]byte(nil), base...)
				d[0] ^= 0xff
				return d
			},
			target: func() *Engine { return newTarget(7, 0) },
			kind:   RestoreBadMagic,
			intact: true,
		},
		{
			name: "bad version",
			data: func() []byte {
				d := append([]byte(nil), base...)
				d[len(snapMagic)] = 0x63
				return d
			},
			target: func() *Engine { return newTarget(7, 0) },
			kind:   RestoreBadVersion,
			intact: true,
		},
		{
			name:   "machine mismatch",
			data:   func() []byte { return base },
			target: func() *Engine { return newTarget(6, 0) },
			kind:   RestoreMachineMismatch,
			intact: true,
		},
		{
			name:   "actor-space mismatch",
			data:   func() []byte { return base },
			target: func() *Engine { return newTarget(7, 1) },
			kind:   RestoreShapeMismatch,
			intact: true,
		},
		{
			name:   "truncated stream",
			data:   func() []byte { return base[:len(base)-9] },
			target: func() *Engine { return newTarget(7, 0) },
			kind:   RestoreCorrupt,
		},
		{
			name: "damaged sentinel",
			data: func() []byte {
				d := append([]byte(nil), base...)
				d[len(d)-1] ^= 0xff
				return d
			},
			target: func() *Engine { return newTarget(7, 0) },
			kind:   RestoreCorrupt,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.target()
			err := e.Restore(bytes.NewReader(c.data()))
			if err == nil {
				t.Fatal("Restore accepted a snapshot it must reject")
			}
			var re *RestoreError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T, want *RestoreError: %v", err, err)
			}
			if re.Kind != c.kind {
				t.Fatalf("kind = %v, want %v (err: %v)", re.Kind, c.kind, err)
			}
			if c.intact {
				// The engine must still run its own workload as if the
				// failed restore never happened.
				aux := arch.NetworkID(len(e.actors) - 1)
				e.Post(0, aux, arch.KindEvent, 42, 0)
				stats, err := e.Run()
				if err != nil {
					t.Fatalf("engine broken after rejected restore: %v", err)
				}
				if stats.Events != 1 {
					t.Fatalf("engine state corrupted after rejected restore: %+v", stats)
				}
			}
		})
	}
}

// TestRestorePayloadTypeGuard: a payload destined for an actor that does
// not implement Snapshotter in the target engine is a RestoreActorFailed
// error, not silent data loss, and it is raised before anything is
// installed: the target keeps its own pending message and statistics.
func TestRestorePayloadTypeGuard(t *testing.T) {
	m := arch.DefaultMachine(2)
	src, err := NewEngine(m, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	src.Post(7, src.AddActor(&hashActor{h: 3}), arch.KindEvent, 2, 0)
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := NewEngine(m, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst.Post(5, dst.AddActor(&fuzzActor{m: &m}), arch.KindEvent, 1, 0) // same slot, not a Snapshotter
	var before, after bytes.Buffer
	if err := dst.Checkpoint(&before); err != nil {
		t.Fatal(err)
	}
	rerr := dst.Restore(bytes.NewReader(buf.Bytes()))
	var re *RestoreError
	if !errors.As(rerr, &re) || re.Kind != RestoreActorFailed {
		t.Fatalf("got %v, want RestoreActorFailed", rerr)
	}
	if err := dst.Checkpoint(&after); err != nil || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the rejected restore modified the engine")
	}
}
