package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the percentile op_ms_tail reports for n samples: p90
// when at least ten samples lie above it, otherwise the highest
// percentile that still has ten samples above it, and never below the
// median. On the reference host p99 of the same run swings by half from
// run to run with the host's scheduling hiccups; p90 does not.
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 50
	}
	return max(50, min(90, 100*float64(n-10)/float64(n)))
}

// tail returns the tail percentile of xs and which percentile it is.
func tail(xs []float64) (float64, float64) {
	p := tailPercentile(len(xs))
	return percentile(xs, p), p
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseStats samples the process around a measured phase.
type phaseStats struct {
	wall, cpu time.Duration
	rt        rtSample
}

type phaseClock struct {
	t0  time.Time
	cpu time.Duration
	rt  rtSample
}

func startPhase() phaseClock {
	return phaseClock{t0: time.Now(), cpu: cpuTime(), rt: readRuntime()}
}

func (c phaseClock) stop() phaseStats {
	return phaseStats{wall: time.Since(c.t0), cpu: cpuTime() - c.cpu, rt: readRuntime().sub(c.rt)}
}

// procUtilisation is the process's CPU time over all cores' wall time.
func (p phaseStats) procUtilisation() float64 {
	return ratio(p.cpu.Seconds(), float64(runtime.NumCPU())*p.wall.Seconds())
}

// retainedHeapMiB is the heap still allocated after full GCs, with live
// kept reachable. The second GC empties what sync.Pools kept from the
// first, so pooled buffers do not count.
func retainedHeapMiB(live ...any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(live)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample reads the Go runtime's cumulative CPU and GC figures.
type rtSample struct{ gcCPU, totalCPU, gcCycles float64 }

func (s rtSample) sub(o rtSample) rtSample {
	return rtSample{s.gcCPU - o.gcCPU, s.totalCPU - o.totalCPU, s.gcCycles - o.gcCycles}
}

func (s rtSample) gcShare() float64 { return ratio(s.gcCPU, s.totalCPU) }

func readRuntime() rtSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return rtSample{val(samples[0]), val(samples[1]), val(samples[2])}
}
