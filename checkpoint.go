package updown

// Machine-level checkpoint/restore: one versioned stream bundling the
// global address space and the engine state (which carries every actor's
// private state — lanes, DRAM controllers, auxiliary actors — through
// sim.Snapshotter). A machine restored from a checkpoint continues
// bit-identically to one that was never interrupted.
//
// The restoring process must rebuild the same machine first: same
// architecture, same program definitions (handler labels and lane-local
// slots are identified by allocation order), same auxiliary actors.
// Handler and slot counts are recorded as a cheap guard; the engine
// section additionally validates the full architecture description
// before mutating anything.

import (
	"bytes"
	"fmt"
	"io"

	"updown/internal/sim"
	"updown/internal/udweave"
)

// ErrNotQuiescent is returned (wrapped) by Checkpoint when a lane still
// holds live, non-serializable runtime state — typically a KVMSR
// invocation mid-job, whose thread and lane-local storage keep closures
// that gob cannot encode. Detect it with errors.Is and either run the
// machine to quiescence first or checkpoint at the warm-start boundary
// (graph loaded, no job started).
var ErrNotQuiescent = udweave.ErrNotQuiescent

// RestoreError is the typed error the engine section of Restore returns
// on a rejected snapshot; inspect its Kind with errors.As.
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

// Checkpoint serializes the machine's complete simulation state to w.
// It must be called between runs; pause a run at a chosen cycle with
// RunUntil first. Application state held in lanes (thread states,
// lane-local values) is serialized with encoding/gob — concrete types
// reached through interfaces must be gob.Register-ed, and values
// containing functions are not serializable: a checkpoint taken mid-job
// fails with an error naming the lane and value that satisfies
// errors.Is(err, ErrNotQuiescent), rather than dropping state.
func (m *Machine) Checkpoint(w io.Writer) error {
	if _, err := io.WriteString(w, mchkMagic); err != nil {
		return fmt.Errorf("updown: checkpoint write: %w", err)
	}
	sw := sim.NewSnapWriter(w)
	sw.U32(mchkVersion)
	sw.U64(uint64(m.Prog.NumHandlers()))
	sw.U64(uint64(m.Prog.NumSlots()))
	var gasBuf bytes.Buffer
	if err := m.GAS.Snapshot(&gasBuf); err != nil {
		return err
	}
	sw.Bytes(gasBuf.Bytes())
	var engBuf bytes.Buffer
	if err := m.Engine.Checkpoint(&engBuf); err != nil {
		return err
	}
	sw.Bytes(engBuf.Bytes())
	if err := sw.Err(); err != nil {
		return fmt.Errorf("updown: checkpoint write: %w", err)
	}
	return nil
}

// Restore rebuilds the simulation state serialized by Checkpoint into
// this machine. Every error is a *RestoreError. Mismatches — format
// version, program shape, machine architecture, actor space — and corrupt
// or truncated sections are rejected before any state is modified; only
// an actor payload that fails to apply (RestoreActorFailed) leaves the
// machine in an undefined state, and it must then be discarded.
func (m *Machine) Restore(r io.Reader) error {
	bad := func(k RestoreErrorKind, format string, args ...any) error {
		return &RestoreError{Kind: k, Detail: fmt.Sprintf(format, args...)}
	}
	magic := make([]byte, len(mchkMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != mchkMagic {
		return bad(RestoreBadMagic, "not a machine checkpoint (got %q)", magic)
	}
	sr := sim.NewSnapReader(r)
	if v := sr.U32(); sr.Err() == nil && v != mchkVersion {
		return bad(RestoreBadVersion, "checkpoint format version %d, this build reads %d", v, mchkVersion)
	}
	nh := sr.U64()
	ns := sr.U64()
	if sr.Err() == nil && (nh != uint64(m.Prog.NumHandlers()) || ns != uint64(m.Prog.NumSlots())) {
		return bad(RestoreShapeMismatch, "checkpoint program has %d handlers and %d slots, this machine has %d and %d (define the same program before Restore)",
			nh, ns, m.Prog.NumHandlers(), m.Prog.NumSlots())
	}
	gasSec := sr.Bytes(1 << 32)
	engSec := sr.Bytes(1 << 32)
	if err := sr.Err(); err != nil {
		return bad(RestoreCorrupt, "truncated checkpoint: %v", err)
	}
	// Both sections are decoded and checked before either is installed.
	// The engine goes first: it validates the architecture description
	// and the actor space, so a machine mismatch is named as one.
	commitEngine, err := m.Engine.StageRestore(bytes.NewReader(engSec))
	if err != nil {
		return err
	}
	commitGAS, err := m.GAS.StageRestore(bytes.NewReader(gasSec))
	if err != nil {
		return bad(RestoreCorrupt, "%v", err)
	}
	if err := commitEngine(); err != nil {
		return err
	}
	commitGAS()
	return nil
}

// RunUntil simulates until quiescence or until the next pending message
// lies beyond cycle t, whichever comes first (pausing is not an error).
// The machine pauses in exactly the state Checkpoint serializes, so
// RunUntil + Checkpoint + (later) Restore + Run is bit-equal to one
// uninterrupted Run.
func (m *Machine) RunUntil(t Cycles) (Stats, error) { return m.Engine.RunUntil(t) }
