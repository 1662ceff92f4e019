package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// The EXPERIMENTS.md saturation study: its backfill knee search on this
// config lands at ×0.139.
const (
	satSpec   = "poisson:1200/h;runtime=pareto:1.5,30s,30m;tasks=zipf:64,1.15;timelimit=4x"
	satSeed   = 5
	satNodes  = 2
	satJobs   = 2500
	studyKnee = 0.139
)

// Names of the scheduler calls a traced saturation op times.
var schedCalls = [...]string{"Generator.Next", "Cluster.RunUntil", "Cluster.Submit", "Cluster.Drain"}

const (
	callNext = iota
	callRunUntil
	callSubmit
	callDrain
)

// saturation evaluates one point of the study's knee ladder per op with
// workload.Evaluate. Ops cycle through the multipliers that
// FindKnee visits; the seed shuffles the order within each cycle.
type saturation struct {
	cfg     workload.SaturationConfig
	machine perfmodel.Machine
	ladder  []workload.SaturationPoint
	rng     *rand.Rand
	split   split
}

func studyConfig() workload.SaturationConfig {
	return workload.SaturationConfig{
		Spec:          workload.MustParse(satSpec),
		Seed:          satSeed,
		Jobs:          satJobs,
		Nodes:         satNodes,
		Policy:        cluster.PolicyBackfill,
		BackfillLimit: workload.DefaultBackfillLimit,
	}
}

func newSaturation(seed int64) *saturation {
	return &saturation{cfg: studyConfig(), machine: perfmodel.DefaultMachine(), rng: rand.New(rand.NewSource(seed))}
}

// setup runs the study's knee search and checks it lands on the
// published knee.
func (w *saturation) setup() error {
	res, err := workload.FindKnee(w.cfg)
	if err != nil {
		return fmt.Errorf("saturation: %w", err)
	}
	if math.Round(res.Knee*1000)/1000 != studyKnee {
		return fmt.Errorf("saturation: knee ×%.4f, the study measured ×%.3f", res.Knee, studyKnee)
	}
	w.ladder = res.Points
	return nil
}

// pumpResult is what one traced point produced.
type pumpResult struct {
	Stats         cluster.WorkloadStats
	PeakLive      int
	Events, Stale int
}

// pump streams the config's jobs at mult into a fresh cluster with the
// calls workload.Evaluate makes, timing every scheduler call into the
// split and recording it as a span of op id. Untraced ops call
// workload.Evaluate itself; this copy exists only so that each call can
// be timed from outside.
func (w *saturation) pump(mult float64, tr *tracer, id int64) (pumpResult, error) {
	var res pumpResult
	c, err := cluster.New(w.cfg.Nodes, w.machine)
	if err != nil {
		return res, err
	}
	c.SetPolicy(w.cfg.Policy)
	c.SetBackfillLimit(w.cfg.BackfillLimit)
	c.SetRetainFinished(false)
	g := workload.NewGenerator(w.cfg.Spec, w.cfg.Seed)
	g.SetRateMultiplier(mult)
	s := &w.split.sched
	for i := 0; i < w.cfg.Jobs; i++ {
		t0 := time.Now()
		a := g.Next()
		t1 := time.Now()
		c.RunUntil(a.At)
		t2 := time.Now()
		_, err := c.Submit(a.Spec)
		t3 := time.Now()
		s.callNs[callNext] += float64(tr.interval(id, spanCall, callNext, -1, t0, t1))
		s.callNs[callRunUntil] += float64(tr.interval(id, spanCall, callRunUntil, -1, t1, t2))
		s.callNs[callSubmit] += float64(tr.interval(id, spanCall, callSubmit, -1, t2, t3))
		if err != nil {
			return res, fmt.Errorf("saturation: job %d: %w", g.Count(), err)
		}
		res.PeakLive = max(res.PeakLive, c.LiveJobs())
	}
	t0 := time.Now()
	c.Drain()
	s.callNs[callDrain] += float64(tr.interval(id, spanCall, callDrain, -1, t0, time.Now()))
	res.PeakLive = max(res.PeakLive, c.LiveJobs())
	res.Stats = c.Stats()
	res.Events, res.Stale = c.EventProbe()
	return res, nil
}

// run evaluates shuffled cycles over the ladder until the phase is
// done, checking each point's statistics against the knee search's.
func (w *saturation) run(p *phase) error {
	order := make([]int, len(w.ladder))
	for i := range order {
		order[i] = i
	}
	if p.tr != nil {
		p.tr.callNames = schedCalls[:]
		for _, pt := range w.ladder {
			p.tr.opNames = append(p.tr.opNames, fmt.Sprintf("×%.3f", pt.Mult))
		}
	}
	p.begin()
	for !p.done() {
		w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			pt := w.ladder[i]
			if p.tr == nil {
				start := time.Now()
				got, err := workload.Evaluate(w.cfg, pt.Mult)
				p.record(time.Since(start), err == nil && reflect.DeepEqual(got.Stats, pt.Stats))
				continue
			}
			id := p.attempted + 1
			start := time.Now()
			res, err := w.pump(pt.Mult, p.tr, id)
			d := p.tr.interval(id, spanOp, i, -1, start, time.Now())
			w.account(pt, d, res)
			p.record(d, err == nil && reflect.DeepEqual(res.Stats, pt.Stats))
		}
		p.endWindow()
	}
	return nil
}

// schedSplit accumulates the scheduler layers over traced ops.
type schedSplit struct {
	callNs            [len(schedCalls)]float64
	jobs              float64
	events, stale     float64
	peakLive          int
	underNs, overNs   float64
	underOps, overOps float64
}

func (w *saturation) account(pt workload.SaturationPoint, d time.Duration, res pumpResult) {
	s := &w.split.sched
	s.jobs += float64(w.cfg.Jobs)
	s.events += float64(res.Events)
	s.stale += float64(res.Stale)
	s.peakLive = max(s.peakLive, res.PeakLive)
	if pt.Saturated {
		s.overNs += float64(d)
		s.overOps++
	} else {
		s.underNs += float64(d)
		s.underOps++
	}
	var covered float64
	for _, ns := range s.callNs {
		covered += ns
	}
	sp := &w.split
	sp.countOps++
	sp.opNs += float64(d)
	sp.coveredNs = covered
}

// metrics returns the workload and cluster layers' split; on a
// workload that never schedules it reads zero throughout.
func (s *schedSplit) metrics(ops float64) []metric {
	advance := s.callNs[callRunUntil] + s.callNs[callDrain]
	return []metric{
		{"workload.gen_ns_per_job", ratio(s.callNs[callNext], s.jobs), "ns/job"},
		{"cluster.submit_ns_per_job", ratio(s.callNs[callSubmit], s.jobs), "ns/job"},
		{"cluster.advance_ns_per_event", ratio(advance, s.events), "ns/event"},
		{"cluster.events_per_op", ratio(s.events, ops), "events/op"},
		{"cluster.heap_useful_ratio", ratio(s.events, s.events+s.stale), "ratio"},
		{"cluster.peak_live_jobs", float64(s.peakLive), "jobs"},
		{"cluster.under_knee_ms", ratio(s.underNs/1e6, s.underOps), "ms/op"},
		{"cluster.over_knee_ms", ratio(s.overNs/1e6, s.overOps), "ms/op"},
	}
}

func (w *saturation) layers() *split { return &w.split }
