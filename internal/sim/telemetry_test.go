package sim

// Live-telemetry integration tests: concurrent observers must never
// perturb the deterministic simulation (stats and profile output stay
// byte-identical to a telemetry-free run at every shard count), stop
// requests must park the run coherently, and the watchdog must capture a
// diagnosis bundle from a genuinely wedged run.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"updown/internal/arch"
	"updown/internal/metrics"
	"updown/internal/telemetry"
)

// telemetryFuzzRun executes the determinism-fuzz workload with a metrics
// recorder and (optionally) a telemetry publisher installed, returning
// the run stats and the rendered profile text.
func telemetryFuzzRun(t *testing.T, seed uint64, shards int, tel *telemetry.Publisher) (Stats, []byte) {
	t.Helper()
	m := arch.DefaultMachine(7)
	rec := metrics.New(m.Nodes, metrics.Options{})
	e, err := NewEngine(m, Options{
		Shards:    shards,
		Metrics:   rec,
		Telemetry: tel,
		LaneFactory: func(id arch.NetworkID) Actor {
			return &fuzzActor{m: &m, seed: seed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := uint64(0); r < 5; r++ {
		h := splitmix64(seed + r)
		node := int(h % uint64(m.Nodes))
		id := m.LaneID(node, 0, int(h>>8)%m.LanesPerAccel)
		e.Post(arch.Cycles(h%2500), id, arch.KindEvent, h, 0, 6)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Profile().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return stats, buf.Bytes()
}

// TestTelemetryDeterminismUnderReaders runs the fuzz workload with a
// publisher publishing at every window barrier while reader goroutines
// hammer the observer API — Latest/Profile, Prometheus rendering, and
// live HTTP scrapes — and asserts stats and profile text are
// byte-identical to the telemetry-free run at every shard count. Run
// under -race this also proves the observer surface is race-free against
// the engine.
func TestTelemetryDeterminismUnderReaders(t *testing.T) {
	const seed = 0xc0ffee
	refStats, refProfile := telemetryFuzzRun(t, seed, 1, nil)
	if refStats.Events == 0 {
		t.Fatal("fuzz workload executed no events")
	}

	for _, shards := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pub := &telemetry.Publisher{MinPeriod: time.Nanosecond}
			srv := httptest.NewServer(telemetry.NewMux(pub))
			defer srv.Close()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // in-process observers
				defer wg.Done()
				var b strings.Builder
				for {
					select {
					case <-stop:
						return
					default:
					}
					telemetry.WriteProm(&b, pub.Latest())
					b.Reset()
					if prof := pub.Profile(); prof != nil {
						prof.WriteText(io.Discard)
					}
					pub.LastBeat()
				}
			}()
			go func() { // HTTP scrapes
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range []string{"/metrics", "/status", "/profile"} {
						resp, err := http.Get(srv.URL + path)
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}()

			stats, profile := telemetryFuzzRun(t, seed, shards, pub)
			close(stop)
			wg.Wait()

			if stats != refStats {
				t.Errorf("stats diverge under telemetry: got %+v want %+v", stats, refStats)
			}
			if !bytes.Equal(profile, refProfile) {
				t.Errorf("profile text diverges under telemetry (%d vs %d bytes)", len(profile), len(refProfile))
			}

			final := pub.Latest()
			if final == nil || !final.Done {
				t.Fatalf("final snapshot = %+v, want Done", final)
			}
			if final.Events != refStats.Events {
				t.Errorf("final snapshot events = %d, want %d", final.Events, refStats.Events)
			}
			if final.Pending != 0 {
				t.Errorf("final snapshot pending = %d, want 0", final.Pending)
			}
		})
	}
}

// executorPins are the executors a multi-shard run can be pinned to; one
// shard always runs inline.
var executorPins = []struct {
	name string
	host hostMode
}{{"inline", hostInline}, {"pool", hostPool}}

// telemetryFanOut builds a 7-node engine under one executor pin with a
// heavier fan-out tree than the determinism fuzz posted, so the run lasts
// long enough to be stopped or paused mid-flight.
func telemetryFanOut(t *testing.T, shards int, host hostMode, pub *telemetry.Publisher) *Engine {
	t.Helper()
	m := arch.DefaultMachine(7)
	e, err := NewEngine(m, Options{
		Shards:    shards,
		MaxTime:   1 << 40,
		Telemetry: pub,
		LaneFactory: func(id arch.NetworkID) Actor {
			return &fuzzActor{m: &m, seed: 99}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.host = host
	for r := uint64(0); r < 8; r++ {
		h := splitmix64(99 + r)
		id := m.LaneID(int(h%uint64(m.Nodes)), 0, int(h>>8)%m.LanesPerAccel)
		e.Post(arch.Cycles(h%2500), id, arch.KindEvent, h, 0, 12)
	}
	return e
}

// TestTelemetryInterrupt asks a running simulation to stop as soon as
// the first snapshot appears and checks the run parks coherently: Run
// returns an InterruptedError wrapping ErrInterrupted, and the final
// Done snapshot reflects the parked state.
func TestTelemetryInterrupt(t *testing.T) {
	for _, shards := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, pin := range executorPins {
				t.Run(pin.name, func(t *testing.T) {
					pub := &telemetry.Publisher{MinPeriod: time.Nanosecond}
					e := telemetryFanOut(t, shards, pin.host, pub)
					pub.RequestStop() // latched before the run: first reduction stops

					_, err := e.Run()
					if !errors.Is(err, ErrInterrupted) {
						t.Fatalf("Run error = %v, want ErrInterrupted", err)
					}
					var ie *InterruptedError
					if !errors.As(err, &ie) {
						t.Fatalf("Run error %T does not unwrap to *InterruptedError", err)
					}
					final := pub.Latest()
					if final == nil || !final.Done {
						t.Fatalf("no final snapshot after interrupt: %+v", final)
					}
					if final.Pending != ie.Pending {
						t.Errorf("snapshot pending %d != error pending %d", final.Pending, ie.Pending)
					}
					if ie.Pending == 0 {
						t.Error("interrupt parked no messages; stop request did not land mid-run")
					}
				})
			}
		})
	}
}

// TestTelemetryRunUntilPause: a RunUntil pause with work pending is a beat
// of a run still in progress — not Done, MaxTime the configured bound, not
// the pause cycle — and the run's real end still publishes Done.
func TestTelemetryRunUntilPause(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, pin := range executorPins {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, pin.name), func(t *testing.T) {
				pub := &telemetry.Publisher{MinPeriod: time.Nanosecond}
				e := telemetryFanOut(t, shards, pin.host, pub)
				if _, err := e.RunUntil(3000); err != nil {
					t.Fatal(err)
				}
				if e.Pending() == 0 {
					t.Fatal("nothing pending at the pause")
				}
				snap := pub.Latest()
				if snap == nil || snap.Done || snap.MaxTime != 1<<40 || snap.Pending == 0 {
					t.Fatalf("snapshot at the pause = %+v, want !Done, MaxTime 1<<40, work pending", snap)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if snap = pub.Latest(); !snap.Done || snap.Pending != 0 {
					t.Fatalf("final snapshot = %+v, want Done with nothing pending", snap)
				}
			})
		}
	}
}

// stallActor ping-pongs between two lanes, wedging (wall-clock) once on
// a marked message — from the watchdog's point of view the run goes
// silent mid-window, exactly like a livelocked OnMessage.
type stallActor struct {
	m     *arch.Machine
	sleep time.Duration
	once  sync.Once
}

func (a *stallActor) OnMessage(env *Env, msg *Message) {
	env.Charge(3)
	if msg.Event == 1 { // the marked message: wedge
		a.once.Do(func() { time.Sleep(a.sleep) })
		return
	}
	if ttl := msg.Ops[0]; ttl > 0 {
		dst := a.m.LaneID(0, 0, int(msg.Event+1)%a.m.LanesPerAccel)
		env.Send(dst, arch.KindEvent, msg.Event+2, 0, ttl-1)
	}
}

// TestWatchdogCapturesStalledRun wedges an actor mid-run and checks the
// watchdog notices the missing heartbeats and writes its diagnosis
// bundle while the run is still stuck, without affecting completion.
func TestWatchdogCapturesStalledRun(t *testing.T) {
	dir := t.TempDir()
	m := arch.DefaultMachine(2)
	pub := &telemetry.Publisher{MinPeriod: time.Nanosecond}
	act := &stallActor{m: &m, sleep: 700 * time.Millisecond}
	e, err := NewEngine(m, Options{
		Shards:    1,
		Telemetry: pub,
		LaneFactory: func(id arch.NetworkID) Actor {
			return act
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warmup traffic first so heartbeats (and a snapshot) precede the
	// wedge, then the marked message.
	e.Post(0, m.LaneID(0, 0, 0), arch.KindEvent, 2, 0, 40)
	e.Post(5000, m.LaneID(0, 0, 1), arch.KindEvent, 1, 0, 0)

	stalled := make(chan struct{}, 1)
	w := &telemetry.Watchdog{
		P: pub, Stall: 100 * time.Millisecond, Dir: dir,
		OnStall: func() {
			select {
			case stalled <- struct{}{}:
			default:
			}
		},
	}
	w.Start()
	defer w.Stop()

	done := make(chan error, 1)
	go func() {
		_, err := e.Run()
		done <- err
	}()

	select {
	case <-stalled:
	case err := <-done:
		t.Fatalf("run finished (err=%v) before the watchdog fired", err)
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog never fired for a wedged run")
	}
	// The bundle must exist while the run is still wedged.
	if _, err := os.Stat(filepath.Join(dir, "stall-stacks.txt")); err != nil {
		t.Errorf("stall-stacks.txt missing at stall time: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("wedged run failed to complete: %v", err)
	}
	for _, f := range []string{"stall-stacks.txt", "stall-status.json"} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing dump file: %v", err)
		} else if len(b) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}
