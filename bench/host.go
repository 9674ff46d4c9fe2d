package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance is stamped into every result so two runs can be told apart
// by machine, toolchain and load before their numbers are compared.
type provenance struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Date       string  `json:"date"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func readProvenance(seed uint64) provenance {
	p := provenance{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Seed: seed, Date: time.Now().UTC().Format(time.RFC3339), LoadAvg1: -1}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				p.LoadAvg1 = v
			}
		}
	}
	return p
}

// loadWarning returns a warning line when the machine was already busy
// at start: host-clock numbers taken then are not comparable.
func (p provenance) loadWarning() string {
	if p.LoadAvg1 > float64(p.NProc)/2 {
		return fmt.Sprintf("warning: 1-minute load average %.2f exceeds half of nproc (%d): host-clock metrics will be noisy", p.LoadAvg1, p.NProc)
	}
	return ""
}

// hostMeter samples the Go runtime and the process around a timed region.
type hostMeter struct {
	ms    runtime.MemStats
	utime float64
}

// hostUsage is what the timed region cost the host beyond wall time.
type hostUsage struct {
	AllocMB   float64
	Mallocs   float64
	GCCycles  float64
	GCPauseMs float64
	UserCPUs  float64
	PeakRSSMB float64
}

func userCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6
}

func startHostMeter() *hostMeter {
	h := &hostMeter{utime: userCPU()}
	runtime.ReadMemStats(&h.ms)
	return h
}

func (h *hostMeter) stop() hostUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		AllocMB:   float64(ms.TotalAlloc-h.ms.TotalAlloc) / 1e6,
		Mallocs:   float64(ms.Mallocs - h.ms.Mallocs),
		GCCycles:  float64(ms.NumGC - h.ms.NumGC),
		GCPauseMs: float64(ms.PauseTotalNs-h.ms.PauseTotalNs) / 1e6,
		UserCPUs:  userCPU() - h.utime,
		PeakRSSMB: peakRSSMB(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1e3
			}
		}
	}
	return 0
}
