//go:build !unix

package main

import "updown/internal/telemetry"

// installSignals is a no-op on platforms without POSIX signals; the
// HTTP plane and watchdog still work there.
func installSignals(*telemetry.Publisher) (stop func()) { return func() {} }
