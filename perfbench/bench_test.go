package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/workload"
)

type specMetric struct {
	Name, Unit string
}

// readSpec loads the metric names and units BENCHMARK.json declares.
func readSpec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func names(ms []metric) []specMetric {
	out := make([]specMetric, len(ms))
	for i, m := range ms {
		out[i] = specMetric{m.name, m.unit}
	}
	return out
}

// TestWorkloadsPassChecks runs every workload briefly, untraced and
// traced, with its output checks on, and checks that it reports exactly
// the metrics BENCHMARK.json declares.
func TestWorkloadsPassChecks(t *testing.T) {
	endToEnd, perLayer := readSpec(t)
	for _, name := range []string{"curriculum", "messaging", "saturation"} {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				b, err := newBench(name, 3)
				if err != nil {
					t.Fatal(err)
				}
				m, err := measure(b, 3, 0.1, traced)
				if err != nil {
					t.Fatal(err)
				}
				if m.failed != 0 || m.attempted < minOps {
					t.Errorf("traced=%v: %d of %d ops failed", traced, m.failed, m.attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if got := names(m.metrics); !slices.Equal(got, want) {
					t.Errorf("traced=%v: metrics\n%v\nwant\n%v", traced, got, want)
				}
			}
		})
	}
}

// TestWrongAnswerCountsAsFailure corrupts one activity's expected wire
// count: each launch of it must count as a failed op.
func TestWrongAnswerCountsAsFailure(t *testing.T) {
	w := newCurriculum(1)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.ref[0].Wire++
	p := newPhase(0, 1, nil)
	if err := w.run(p); err != nil {
		t.Fatal(err)
	}
	p.finish()
	passes := p.attempted / int64(len(w.acts))
	if p.failed != passes || passes == 0 {
		t.Fatalf("%d of %d ops failed, want one per pass (%d)", p.failed, p.attempted, passes)
	}
}

// TestSaturationPumpMatchesEvaluate checks that the traced run's
// instrumented pump reproduces workload.Evaluate, which untraced ops
// call, at every point of the knee ladder.
func TestSaturationPumpMatchesEvaluate(t *testing.T) {
	w := newSaturation(1)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, pt := range w.ladder {
		want, err := workload.Evaluate(w.cfg, pt.Mult)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.pump(pt.Mult, tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("×%.3f: pump %+v, Evaluate %+v", pt.Mult, got.Stats, want.Stats)
		}
	}
}

// TestRotationFollowsMix checks the messaging rotation against the
// committed curriculum histogram: the one-sided step covers its two
// largest classes, and the other steps its most-called small
// point-to-point and collective primitives.
func TestRotationFollowsMix(t *testing.T) {
	raw, err := os.ReadFile("mix.json")
	if err != nil {
		t.Fatal(err)
	}
	var mix mixFile
	if err := json.Unmarshal(raw, &mix); err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, e := range mix.Classes {
		if e.Size == sizeClasses[0] {
			rank[e.Prim] = i + 1
		}
	}
	r := func(p mpi.Primitive) int {
		if n, ok := rank[p.String()]; ok {
			return n
		}
		return len(mix.Classes) + 1
	}
	if r(mpi.PrimRMACas) > 2 || r(mpi.PrimRMAPut) > 2 {
		t.Errorf("CAS/Put are not the two largest classes: %v", mix.Classes[:2])
	}
	for _, p := range []mpi.Primitive{mpi.PrimSendrecv, mpi.PrimRecv, mpi.PrimSend} {
		if r(p) > 10 {
			t.Errorf("%v ranks %d in the mix", p, r(p))
		}
	}
	for _, cl := range classes {
		if cl.name != "coll" {
			continue
		}
		for _, p := range cl.prims {
			if r(p) < r(mpi.PrimAllreduce) {
				t.Errorf("%v outranks MPI_Allreduce among small collectives", p)
			}
		}
	}
}

func TestTimingsMasked(t *testing.T) {
	for in, want := range map[string]string{
		"100 rounds of 1024 B, avg RTT 12.5µs, 812.3 MB/s": "100 rounds of 1024 B, avg RTT _, _",
		"N=256 d=90 checksum 1.234, compute 1m2.5s":        "N=256 d=90 checksum 1.234, compute _",
		"3 laps, 12 hops, token 12, 850ns":                 "3 laps, 12 hops, token 12, _",
	} {
		if got := timings.ReplaceAllString(in, "_"); got != want {
			t.Errorf("%q masked to %q, want %q", in, got, want)
		}
	}
}
