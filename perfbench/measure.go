package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy),
// or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat: the
// host's steal ticks and all ticks. ok is false where /proc/stat is
// unavailable.
type hostCPU struct {
	steal, total uint64
	ok           bool
}

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// rtSample reads the runtime counters behind the runtime.* layer metrics.
type rtSample struct {
	allocBytes     uint64
	gcCPU, busyCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: rtNames[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces collections and returns the live heap in MB. Three
// cycles: pooled arena slabs survive one cycle in the pools' victim
// cache, and objects with finalizers (superseded document versions) are
// freed only by the cycle after their finalizer ran.
func liveHeapMB() float64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
