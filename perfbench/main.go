// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the public entry points of the modules,
// the MPI runtime and the cluster simulator in a closed loop with a
// single client, checks every op's output, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload curriculum|messaging|saturation --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced for half the time, then
// traced for the other half, and reports the per-layer split; the
// traced half's spans are written out as a Chrome trace. --mix writes
// the curriculum's primitive histogram instead (see mix.json).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// split accumulates a traced phase's per-layer totals. Fields a
// workload does not touch stay zero, so every workload reports the
// same metric names.
type split struct {
	launchNs, selfNs [numModules + 1]float64 // by module
	launches         [numModules + 1]float64
	opNs             float64 // Σ op time
	coveredNs        float64 // Σ op time inside child spans (rank bodies or scheduler calls)
	kernelNs         float64 // Σ op time in application code, outside MPI primitives
	countOps         float64 // ops the tracer's counters cover
	wire, msgs       float64 // world-wide totals read after each world exited
	sched            schedSplit
}

// bench is one workload: set up (timed, repeated), then run phases.
type bench interface {
	setup() error
	run(p *phase) error
	layers() *split
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "curriculum":
		return newCurriculum(seed), nil
	case "messaging":
		return newMessaging(seed), nil
	case "saturation":
		return newSaturation(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want curriculum, messaging or saturation)", name)
}

// result is the benchmark's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "curriculum", "workload: curriculum, messaging or saturation")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer split instead of end-to-end metrics")
	spans := flag.String("spans", "", "Chrome trace of the traced phase (default .bench_build/spans-<workload>.json)")
	mixOut := flag.String("mix", "", "write the curriculum's primitive histogram to this file and exit")
	flag.Parse()

	if *mixOut != "" {
		if err := writeMix(*mixOut); err != nil {
			fail(err)
		}
		return
	}
	b, err := newBench(*name, *seed)
	if err != nil {
		fail(err)
	}
	env := environment(*name, *seed)
	fmt.Println("env", env)
	res, err := measure(b, *seed, *seconds, *trace == 1)
	if err != nil {
		fail(err)
	}
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s.json", *name)
		}
		if err := res.tr.writeChrome(path, env); err != nil {
			fail(err)
		}
		fmt.Println("spans", path)
	}
	fmt.Printf("fail_ratio %g ratio (%d of %d ops)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, m := range res.metrics {
		fmt.Printf("%s %g %s\n", m.name, m.value, m.unit)
	}
	out := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// measurement is what one run produced.
type measurement struct {
	attempted, failed int64
	metrics           []metric
	tr                *tracer
}

// measure sets b up setupReps times, then runs one untraced phase, and
// with traced a traced phase after it.
func measure(b bench, seed int64, seconds float64, traced bool) (measurement, error) {
	var m measurement
	setups := make([]time.Duration, setupReps)
	for i := range setups {
		start := time.Now()
		if err := b.setup(); err != nil {
			return m, err
		}
		setups[i] = time.Since(start)
	}
	slices.Sort(setups)
	setup := quantile(setups, 0.5).Seconds()

	if !traced {
		p := newPhase(seconds, seed, nil)
		if err := b.run(p); err != nil {
			return m, err
		}
		p.finish()
		m.attempted, m.failed, m.metrics = p.attempted, p.failed, p.endToEnd(setup)
		return m, nil
	}

	u := newPhase(seconds/2, seed, nil)
	if err := b.run(u); err != nil {
		return m, err
	}
	u.finish()
	worldUs, err := worldSetupProbe()
	if err != nil {
		return m, err
	}
	m.tr = newTracer()
	t := newPhase(seconds/2, seed+1, m.tr)
	c0 := takeCounters()
	if err := b.run(t); err != nil {
		return m, err
	}
	t.finish()
	c1 := takeCounters()
	m.attempted, m.failed = u.attempted+t.attempted, u.failed+t.failed
	m.metrics = perLayer(b.layers(), m.tr, c1.sub(c0), worldUs, t.opsPerSec()/u.opsPerSec())
	return m, nil
}

// counters are the runtime's process-wide counters, bracketed around a
// traced phase.
type counters struct {
	poolHits, poolMisses int64
	rma                  mpi.RMABatchCounters
	icoll                mpi.IcollCounters
}

func takeCounters() counters {
	ps := mpi.PoolStats()
	return counters{ps.Hits, ps.Misses, mpi.RMABatchStats(), mpi.IcollStats()}
}

func (c counters) sub(prev counters) counters {
	return counters{c.poolHits - prev.poolHits, c.poolMisses - prev.poolMisses, c.rma.Sub(prev.rma), c.icoll.Sub(prev.icoll)}
}

// worldSetupProbe returns the median microseconds of mpi.Run of an empty
// function at np=4: the fixed cost every launch pays.
func worldSetupProbe() (float64, error) {
	const n = 201
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		if err := mpi.Run(4, func(*mpi.Comm) error { return nil }); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	slices.Sort(ds)
	return float64(quantile(ds, 0.5)) / 1e3, nil
}

// perLayer assembles the traced split in BENCHMARK.json's order.
func perLayer(s *split, tr *tracer, c counters, worldUs, overhead float64) []metric {
	var out []metric
	for m := 1; m <= numModules; m++ {
		out = append(out, metric{fmt.Sprintf("core.launch_ms.m%d", m), ratio(s.launchNs[m]/1e6, s.launches[m]), "ms/op"})
	}
	out = append(out, metric{"core.world_setup_us", worldUs, "us"})
	for m := 1; m <= numModules; m++ {
		out = append(out, metric{fmt.Sprintf("modules.self_ms.m%d", m), ratio(s.selfNs[m]/1e6, s.launches[m]), "ms/op"})
	}
	out = append(out, metric{"modules.compute_share", ratio(s.kernelNs, s.opNs), "ratio"})
	out = append(out, tr.mpiMetrics(s.countOps)...)
	out = append(out,
		metric{"mpi.wire_bytes_per_op", ratio(s.wire, s.countOps), "B/op"},
		metric{"mpi.msgs_per_op", ratio(s.msgs, s.countOps), "msgs/op"},
		metric{"mpi.pool_hit_ratio", ratio(float64(c.poolHits), float64(c.poolHits+c.poolMisses)), "ratio"},
		metric{"mpi.rma_ops_per_flush", ratio(float64(c.rma.Ops), float64(c.rma.Flushes)), "ops/flush"},
		metric{"mpi.rma_direct_share", ratio(float64(c.rma.DirectApplies), float64(c.rma.Flushes)), "ratio"},
		metric{"mpi.icoll_arrival_share", ratio(float64(c.icoll.Arrivals), float64(c.icoll.Steps)), "ratio"},
	)
	out = append(out, s.sched.metrics(s.countOps)...)
	return append(out,
		metric{"trace_overhead_ratio", overhead, "ratio"},
		metric{"unattributed_share", ratio(s.opNs-s.coveredNs, s.opNs), "ratio"},
	)
}

// environment describes where a result was measured.
func environment(workload string, seed int64) string {
	env, _ := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	return string(env)
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

// writeMix launches every curriculum activity once under the tracer and
// writes its calls by primitive × size class.
func writeMix(path string) error {
	tr := newMixTracer()
	body := make([]time.Duration, maxRanks)
	for _, a := range core.All() {
		if _, err := launch(a, tr, body); err != nil {
			return err
		}
	}
	entries := tr.mix()
	var total int64
	for _, e := range entries {
		total += e.Calls
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(mixFile{
		Source:  "one traced pass over core.All() at DefaultNP on the channel transport",
		Calls:   total,
		Classes: entries,
	}); err != nil {
		return err
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// mixFile is the layout of mix.json.
type mixFile struct {
	Source  string     `json:"source"`
	Calls   int64      `json:"calls"`
	Classes []mixEntry `json:"classes"`
}

// sortMix orders histogram rows by calls, largest first.
func sortMix(m []mixEntry) {
	sort.SliceStable(m, func(i, j int) bool { return m[i].Calls > m[j].Calls })
}
