//go:build unix

package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"updown/internal/telemetry"
)

// installSignals wires POSIX signals into the telemetry plane:
//
//	SIGUSR1          dump partial artifacts at the next window barrier
//	SIGINT, SIGTERM  stop the run at the next barrier; reports and
//	                 artifacts still run, and the process exits 130.
//	                 A second stop signal force-quits immediately.
//
// Both requests are single atomic stores observed by the engine at its
// next quiesced point, so a signal can never corrupt or perturb a run —
// only end it early or snapshot it. stop uninstalls the handlers.
func installSignals(pub *telemetry.Publisher) (stop func()) {
	ch := make(chan os.Signal, 4)
	signal.Notify(ch, syscall.SIGUSR1, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		stopping := false
		for sig := range ch {
			switch sig {
			case syscall.SIGUSR1:
				fmt.Fprintln(os.Stderr, "updown-sim: SIGUSR1: dumping partial artifacts at next window")
				pub.RequestDump()
			default:
				if stopping {
					os.Exit(130)
				}
				stopping = true
				fmt.Fprintf(os.Stderr, "updown-sim: %v: stopping at next window (signal again to force quit)\n", sig)
				pub.RequestStop()
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}
