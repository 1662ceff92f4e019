package main

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// numModules is the number of modules core.All() spans: the paper's
// five plus the three extension modules.
const numModules = 8

// outcome is what one launch produced: the world-wide wire and message
// counts read after every rank exited, and rank 0's summary with its
// timings masked. Call counts are not compared: a CAS loop under
// contention (hash-join-rma) retries a varying number of times.
type outcome struct {
	Wire, Msgs int64
	Summary    string
}

// timings matches the wall-clock parts of an activity summary: Go
// durations ("1.5ms", "2m3.4s") and bandwidths ("812.3 MB/s"). What is
// left — checksums, counts, inertia, losses — is deterministic.
var timings = regexp.MustCompile(`\d+(\.\d+)? MB/s|(\d+(\.\d+)?(ns|µs|ms|s|m|h))+`)

// curriculum launches every activity of core.All() one at a time at its
// DefaultNP on the channel transport, as `modulerun -activity` does.
// One op is one launch; the seed shuffles the order within each pass.
type curriculum struct {
	acts []core.Activity
	ref  []outcome // per activity, from the set-up's reference pass
	rng  *rand.Rand

	split split // traced-phase accumulators
}

func newCurriculum(seed int64) *curriculum {
	return &curriculum{rng: rand.New(rand.NewSource(seed))}
}

// launch runs a in a fresh world and reads the world's counters once
// mpi.Run has returned, when no rank can still be sending. Launch
// itself snapshots from rank 0 while peers may have sends in flight, so
// its counts are not repeatable. With a tracer, each rank's body is
// timed from outside the activity into body.
func launch(a core.Activity, tr *tracer, body []time.Duration) (outcome, error) {
	var c0 *mpi.Comm
	var summary string
	var opts []mpi.Option
	if tr != nil {
		opts = append(opts, mpi.WithHook(tr))
	}
	err := mpi.Run(a.DefaultNP, func(c *mpi.Comm) error {
		start := time.Now()
		s, err := a.Run(c)
		if tr != nil {
			body[c.Rank()] = tr.interval(tr.opOf(c.Rank()), spanRank, 0, c.Rank(), start, time.Now())
		}
		if c.Rank() == 0 {
			c0, summary = c, s
		}
		return err
	}, opts...)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", a.Name, err)
	}
	snap := c0.Stats()
	return outcome{snap.TotalWire, snap.TotalMsgs, timings.ReplaceAllString(summary, "_")}, nil
}

// setup loads the registry and runs one reference pass, whose outcomes
// every timed op must repeat exactly.
func (w *curriculum) setup() error {
	acts := core.All()
	ref := make([]outcome, len(acts))
	for i, a := range acts {
		o, err := launch(a, nil, nil)
		if err != nil {
			return err
		}
		ref[i] = o
	}
	if w.ref != nil && !slices.Equal(ref, w.ref) {
		return fmt.Errorf("curriculum: reference passes disagree")
	}
	w.acts, w.ref = acts, ref
	return nil
}

// run launches shuffled passes over the activities until the phase is
// done, checking each launch against the reference.
func (w *curriculum) run(p *phase) error {
	order := make([]int, len(w.acts))
	for i := range order {
		order[i] = i
	}
	if p.tr != nil {
		for _, a := range w.acts {
			p.tr.opNames = append(p.tr.opNames, a.Name)
		}
	}
	body := make([]time.Duration, maxRanks)
	p.begin()
	for !p.done() {
		w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			a := w.acts[i]
			if p.tr == nil {
				start := time.Now()
				o, err := launch(a, nil, nil)
				p.record(time.Since(start), w.check(i, o, err))
				continue
			}
			id := p.attempted + 1
			p.tr.setOp(id)
			for r := 0; r < a.DefaultNP; r++ {
				p.tr.takeRankDur(r)
			}
			start := time.Now()
			o, err := launch(a, p.tr, body)
			d := p.tr.interval(id, spanOp, i, -1, start, time.Now())
			p.record(d, w.check(i, o, err))
			w.account(a, d, body, p.tr, o)
		}
		p.endWindow()
	}
	return nil
}

// check compares a launch with the reference and reports a mismatch on
// standard error.
func (w *curriculum) check(i int, o outcome, err error) bool {
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	case o != w.ref[i]:
		fmt.Fprintf(os.Stderr, "perfbench: %s: got %+v, want %+v\n", w.acts[i].Name, o, w.ref[i])
	default:
		return true
	}
	return false
}

// account adds one traced launch to the split: a kernel's self time on
// a rank is the rank's body minus the primitive time the hook saw on
// that rank, averaged over ranks.
func (w *curriculum) account(a core.Activity, d time.Duration, body []time.Duration, tr *tracer, o outcome) {
	var self, bodies float64
	for r := 0; r < a.DefaultNP; r++ {
		self += float64(body[r] - tr.takeRankDur(r))
		bodies += float64(body[r])
	}
	np := float64(a.DefaultNP)
	s := &w.split
	s.launchNs[a.Module] += float64(d)
	s.selfNs[a.Module] += self / np
	s.launches[a.Module]++
	s.countOps++
	s.kernelNs += self / np
	s.coveredNs += bodies / np
	s.opNs += float64(d)
	s.wire += float64(o.Wire)
	s.msgs += float64(o.Msgs)
}

func (w *curriculum) layers() *split { return &w.split }
