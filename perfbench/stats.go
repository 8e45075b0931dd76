package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is the Go runtime's and the kernel's account of the
// process at one instant; the difference of two samples is the cost of
// the work between them.
type runtimeSample struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs, cpu: cpuTime()}
}

// cpuTime is the CPU time the process has used so far, user and system.
// Unlike wall time it leaves out time the hypervisor gives to other
// guests, and time the process waits.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince is the process's CPU time since c0, in seconds.
func cpuSince(c0 time.Duration) float64 { return (cpuTime() - c0).Seconds() }

// perUnit reports the runtime cost between a and b divided over n units
// of work (solves or jobs) as the runtime.* per-layer metrics.
func perUnit(r *result, a, b runtimeSample, n int) {
	if n <= 0 {
		n = 1
	}
	f := float64(n)
	r.Layer["runtime.alloc_mb"] = metric{float64(b.alloc-a.alloc) / (1 << 20) / f, "MB"}
	r.Layer["runtime.gc_cycles"] = metric{float64(b.gcs-a.gcs) / f, "count"}
	r.Layer["runtime.gc_pause_s"] = metric{float64(b.pauseNs-a.pauseNs) / 1e9 / f, "s"}
	r.Layer["runtime.cpu_s"] = metric{(b.cpu - a.cpu).Seconds() / f, "s"}
}
