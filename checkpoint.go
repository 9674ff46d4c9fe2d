package updown

// Machine-level checkpoint/restore: one versioned stream bundling the
// global address space and the engine state (which carries every actor's
// private state — lanes, DRAM controllers, auxiliary actors — through
// sim.Snapshotter). A machine restored from a checkpoint continues
// bit-identically to one that was never interrupted; a rejected one is
// left as it was.
//
// The restoring process must rebuild the same machine first: same
// architecture, same program definitions (handler labels and lane-local
// slots are identified by allocation order), same auxiliary actors.
// Handler and slot counts are recorded as a cheap guard; the engine
// section additionally validates the full architecture description
// before mutating anything.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"updown/internal/sim"
	"updown/internal/snap"
	"updown/internal/udweave"
)

// ErrNotQuiescent is returned (wrapped) by Checkpoint when a lane still
// holds live, non-serializable runtime state — typically a KVMSR
// invocation mid-job, whose thread and lane-local storage keep closures
// that gob cannot encode. Detect it with errors.Is and either run the
// machine to quiescence first or checkpoint at the warm-start boundary
// (graph loaded, no job started).
var ErrNotQuiescent = udweave.ErrNotQuiescent

// RestoreError is the typed error Restore returns on a rejected
// checkpoint; inspect its Kind with errors.As.
type RestoreError = sim.RestoreError

// RestoreErrorKind classifies why a snapshot was rejected.
type RestoreErrorKind = sim.RestoreErrorKind

// Re-exported RestoreError kinds.
const (
	RestoreBadMagic        = sim.RestoreBadMagic
	RestoreBadVersion      = sim.RestoreBadVersion
	RestoreMachineMismatch = sim.RestoreMachineMismatch
	RestoreShapeMismatch   = sim.RestoreShapeMismatch
	RestoreCorrupt         = sim.RestoreCorrupt
	RestoreActorFailed     = sim.RestoreActorFailed
)

const (
	mchkMagic   = "UDMCHKPT"
	mchkVersion = uint32(2) // v2: replicated gasmem regions, DRAM hint logs, failover counters
)

// code states the machine checkpoint's layout for both directions: magic,
// version, the program's handler and slot counts, then the GAS and engine
// sections, each length-prefixed. Reading, a check that fails records a
// *RestoreError of its kind.
func (m *Machine) code(c *snap.Codec, gas, eng *[]byte) {
	bad := func(k RestoreErrorKind, format string, args ...any) {
		c.Fail(&RestoreError{Kind: k, Detail: fmt.Sprintf(format, args...)})
	}
	if !c.Magic(mchkMagic) {
		bad(RestoreBadMagic, "not a machine checkpoint")
	}
	version := mchkVersion
	if snap.W32(c, &version); version != mchkVersion {
		bad(RestoreBadVersion, "checkpoint format version %d, this build reads %d", version, mchkVersion)
	}
	nh, ns := m.Prog.NumHandlers(), m.Prog.NumSlots()
	snap.W64(c, &nh)
	snap.W64(c, &ns)
	if nh != m.Prog.NumHandlers() || ns != m.Prog.NumSlots() {
		bad(RestoreShapeMismatch, "checkpoint program has %d handlers and %d slots, this machine has %d and %d (define the same program before Restore)",
			nh, ns, m.Prog.NumHandlers(), m.Prog.NumSlots())
	}
	c.Bytes(gas, 1<<32)
	c.Bytes(eng, 1<<32)
}

// Checkpoint serializes the machine's complete simulation state to w.
// It must be called between runs; pause a run at a chosen cycle with
// RunUntil first. Application state held in lanes (thread states,
// lane-local values) is serialized with encoding/gob — concrete types
// reached through interfaces must be gob.Register-ed, and values
// containing functions are not serializable: a checkpoint taken mid-job
// fails with an error naming the lane and value that satisfies
// errors.Is(err, ErrNotQuiescent), rather than dropping state.
func (m *Machine) Checkpoint(w io.Writer) error {
	var gas, eng bytes.Buffer
	if err := m.GAS.Snapshot(&gas); err != nil {
		return err
	}
	if err := m.Engine.Checkpoint(&eng); err != nil {
		return err
	}
	gasSec, engSec := gas.Bytes(), eng.Bytes()
	c := snap.NewWriter(w)
	if m.code(c, &gasSec, &engSec); c.Err() != nil {
		return fmt.Errorf("updown: checkpoint write: %w", c.Err())
	}
	return nil
}

// Restore rebuilds the simulation state serialized by Checkpoint into
// this machine. Every error is a *RestoreError, and a rejected checkpoint
// leaves the machine untouched: the header, both sections and every actor
// payload are decoded and checked before anything is installed.
func (m *Machine) Restore(r io.Reader) error {
	var gasSec, engSec []byte
	c := snap.NewReader(r)
	if m.code(c, &gasSec, &engSec); c.Err() != nil {
		var re *RestoreError
		if errors.As(c.Err(), &re) {
			return re
		}
		return &RestoreError{Kind: RestoreCorrupt, Detail: "truncated checkpoint: " + c.Err().Error()}
	}
	// The engine goes first: it validates the architecture description
	// and the actor space, so a machine mismatch is named as one.
	commitEngine, err := m.Engine.StageRestore(bytes.NewReader(engSec))
	if err != nil {
		return err
	}
	commitGAS, err := m.GAS.StageRestore(bytes.NewReader(gasSec))
	if err != nil {
		return &RestoreError{Kind: RestoreCorrupt, Detail: err.Error()}
	}
	commitEngine()
	commitGAS()
	return nil
}

// RunUntil simulates until quiescence or until the next pending message
// lies beyond cycle t, whichever comes first (pausing is not an error),
// then folds the replication counters like Run. The machine pauses in
// exactly the state Checkpoint serializes, so RunUntil + Checkpoint +
// (later) Restore + Run is bit-equal to one uninterrupted Run.
func (m *Machine) RunUntil(t Cycles) (Stats, error) {
	stats, err := m.Engine.RunUntil(t)
	m.foldRepl()
	return stats, err
}
