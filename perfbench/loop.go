package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// reservoirSize bounds the latency samples one phase keeps. A fixed
// reservoir keeps the benchmark's own heap independent of how many ops
// a run completes, so peak_heap_mb does not grow with speed; 2^18
// uniform samples leave tens of thousands beyond the 90th percentile.
const reservoirSize = 1 << 18

// heapSampleEvery spaces the HeapInuse samples: ReadMemStats stops the
// world, which would dominate microsecond ops if taken after each one.
const heapSampleEvery = 5 * time.Millisecond

// minOps is the fewest ops a phase completes before it may stop, so
// that at least ten latency samples lie beyond the 90th percentile.
const minOps = 100

// phase is one timed loop: a closed loop with a single client, where
// the next op starts only after the previous one has completed.
type phase struct {
	seconds  float64
	deadline time.Time
	tr       *tracer // nil in an untraced phase

	rng       *rand.Rand // reservoir replacement, seeded
	samples   []time.Duration
	attempted int64
	failed    int64

	ms0, ms1   runtime.MemStats
	lastSample time.Time

	// Windows are whole passes over the workload's op mix. Throughput
	// and peak heap are taken per window and reported as medians, so a
	// short stall elsewhere on the machine moves them less.
	winStart time.Time
	winOps   int64
	winPeak  uint64
	rates    []float64
	peaks    []float64
}

func newPhase(seconds float64, seed int64, tr *tracer) *phase {
	return &phase{
		seconds: seconds,
		tr:      tr,
		rng:     rand.New(rand.NewSource(seed)),
		samples: make([]time.Duration, 0, reservoirSize),
	}
}

// begin starts the clock and the memory baseline; a workload calls it
// right before its first timed op.
func (p *phase) begin() {
	runtime.GC()
	runtime.ReadMemStats(&p.ms0)
	p.winPeak = p.ms0.HeapInuse
	now := time.Now()
	p.lastSample, p.winStart = now, now
	p.deadline = now.Add(time.Duration(p.seconds * float64(time.Second)))
}

// endWindow closes a pass: it records the pass's throughput and the
// largest HeapInuse sampled during it.
func (p *phase) endWindow() {
	now := time.Now()
	p.sampleHeap(now)
	p.rates = append(p.rates, float64(p.attempted-p.winOps)/now.Sub(p.winStart).Seconds())
	p.peaks = append(p.peaks, float64(p.winPeak)/(1<<20))
	p.winStart, p.winOps, p.winPeak = now, p.attempted, 0
}

// done reports whether the phase has run its time and its minimum op
// count. Workloads ask it only at the end of a whole pass over their
// op mix, so every phase measures the same mix.
func (p *phase) done() bool {
	return p.attempted >= minOps && !time.Now().Before(p.deadline)
}

// record counts one op with its latency and verdict, and samples the
// heap if the last sample is old enough.
func (p *phase) record(d time.Duration, ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
	if len(p.samples) < reservoirSize {
		p.samples = append(p.samples, d)
	} else if j := p.rng.Int63n(p.attempted); j < reservoirSize {
		p.samples[j] = d
	}
	if now := time.Now(); now.Sub(p.lastSample) >= heapSampleEvery {
		p.sampleHeap(now)
	}
}

func (p *phase) sampleHeap(now time.Time) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.winPeak = max(p.winPeak, ms.HeapInuse)
	p.lastSample = now
}

// finish stops the phase clock and takes the closing memory snapshot.
func (p *phase) finish() {
	if len(p.rates) == 0 {
		p.endWindow() // a run shorter than one window
	}
	runtime.ReadMemStats(&p.ms1)
}

// opsPerSec is the median throughput over the phase's passes.
func (p *phase) opsPerSec() float64 { return median(p.rates) }

// quantileMs returns the q-quantile of the sampled op latencies in
// milliseconds (nearest rank).
func (p *phase) quantileMs(q float64) float64 {
	s := slices.Clone(p.samples)
	slices.Sort(s)
	return ms(quantile(s, q))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// endToEnd returns the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd(setup float64) []metric {
	n := float64(p.attempted)
	return []metric{
		{"ops_per_s", p.opsPerSec(), "1/s"},
		{"op_p50_ms", p.quantileMs(0.5), "ms"},
		{"op_p90_ms", p.quantileMs(0.9), "ms"},
		{"setup_s", setup, "s"},
		{"alloc_bytes_per_op", float64(p.ms1.TotalAlloc-p.ms0.TotalAlloc) / n, "B/op"},
		{"allocs_per_op", float64(p.ms1.Mallocs-p.ms0.Mallocs) / n, "allocs/op"},
		{"peak_heap_mb", median(p.peaks), "MB"},
	}
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile[T any](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
