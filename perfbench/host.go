package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"learn2scale/internal/parallel"
)

// hostSnap is one reading of the process and machine counters; the
// difference of two readings covers a measured window.
type hostSnap struct {
	cpu        time.Duration // process user + system time
	gcPause    time.Duration // cumulative stop-the-world pause
	mallocs    uint64
	allocBytes uint64
	steal      uint64 // machine-wide steal jiffies (/proc/stat)
	jiffies    uint64 // machine-wide total jiffies
}

func snapHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := hostSnap{
		cpu:        processCPU(),
		gcPause:    time.Duration(ms.PauseTotalNs),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
	s.steal, s.jiffies = readSteal()
	return s
}

// hostDelta is what the machine and the process did between two snaps.
type hostDelta struct {
	cpu, gcPause        time.Duration
	mallocs, allocBytes uint64
	stealShare          float64
}

func (a hostSnap) to(b hostSnap) hostDelta {
	return hostDelta{
		cpu:        b.cpu - a.cpu,
		gcPause:    b.gcPause - a.gcPause,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		stealShare: share(float64(b.steal-a.steal), float64(b.jiffies-a.jiffies)),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set so far, in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readSteal returns the machine's cumulative steal and total jiffies
// from the aggregate "cpu" line of /proc/stat, or zeros where the file
// does not exist.
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9, 10) are already inside user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

var probeSink float64

// probeMS times a fixed dependent floating-point chain and returns the
// median of five timings in milliseconds. The same code on the same
// machine should read the same; a run whose start and end probes differ
// ran on a drifting machine.
func probeMS() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 4_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		probeSink += x
		ts = append(ts, millis(time.Since(t0)))
	}
	return median(ts)
}

// fingerprint identifies the machine and build a run was measured on.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2SWorkers string `json:"l2s_workers"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func machineFingerprint(rev string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		L2SWorkers: os.Getenv(parallel.EnvWorkers),
		Workers:    parallel.Workers(),
		GoVersion:  runtime.Version(),
		Revision:   rev,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
