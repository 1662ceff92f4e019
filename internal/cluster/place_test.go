package cluster

import (
	"math/rand"
	"testing"
	"time"
)

// randomizeNodes puts every node of c into a random but well-formed
// state: idle, partly shared, full, exclusively held, or down.
func randomizeNodes(rng *rand.Rand, c *Cluster) {
	cores := c.machine.CoresPerNode
	for _, n := range c.nodes {
		*n = node{id: n.id, freeCores: cores}
		switch rng.Intn(5) {
		case 1, 2: // shared by 1-3 jobs, possibly full
			n.freeCores = rng.Intn(cores)
			n.jobs = make([]int, 1+rng.Intn(3))
		case 3: // held exclusively
			n.exclusive, n.freeCores, n.jobs = true, 0, []int{1}
		case 4: // failed (its jobs were killed)
			n.down = true
		}
	}
}

// TestCanPlaceMatchesTryPlace is canPlace's proof obligation: on seeded
// random cluster states (shared, exclusive and down nodes) and requests
// (shared or exclusive, TasksPerNode caps, widths from one task to the
// whole machine) the O(nodes) predicate answers exactly what the
// allocating greedy placement does.
func TestCanPlaceMatchesTryPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fits := 0
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		c := newTestCluster(t, 1+rng.Intn(6))
		randomizeNodes(rng, c)
		cores := c.machine.CoresPerNode
		j := &Job{Spec: JobSpec{
			Tasks:     1 + rng.Intn(len(c.nodes)*cores),
			Exclusive: rng.Intn(3) == 0,
		}}
		if rng.Intn(2) == 0 {
			j.Spec.TasksPerNode = 1 + rng.Intn(cores)
		}
		nodes, tasks := c.tryPlace(j)
		if got, want := c.canPlace(j), nodes != nil; got != want {
			t.Fatalf("trial %d: canPlace=%v, tryPlace placed=%v for %+v", trial, got, want, j.Spec)
		}
		if nodes == nil {
			continue
		}
		fits++
		sum := 0
		for _, k := range tasks {
			sum += k
		}
		if sum != j.Spec.Tasks || len(nodes) != len(tasks) {
			t.Fatalf("trial %d: allocation %v/%v does not hold %d tasks", trial, nodes, tasks, j.Spec.Tasks)
		}
	}
	// Both outcomes must be well represented for the check to mean much.
	if fits < trials/10 || fits > trials*9/10 {
		t.Fatalf("%d of %d requests fit: the state generator is lopsided", fits, trials)
	}
}

// TestAllocSchedulePass pins the scheduling pass's allocation profile:
// with a saturated queue deeper than the backfill limit, a pass that
// starts nothing allocates nothing, including the head reservation it
// computes, under both policies.
func TestAllocSchedulePass(t *testing.T) {
	for _, p := range []Policy{PolicyBackfill, PolicyFIFO} {
		t.Run(p.String(), func(t *testing.T) {
			c := newTestCluster(t, 2)
			c.SetPolicy(p)
			c.SetBackfillLimit(64)
			cores := c.machine.CoresPerNode
			// One node busy for 10 minutes; the head needs both nodes.
			mustSubmit(t, c, JobSpec{Name: "busy", Tasks: cores, BaseTime: 10 * time.Minute, TimeLimit: 10 * time.Minute})
			mustSubmit(t, c, JobSpec{Name: "head", Tasks: 2 * cores, BaseTime: time.Minute, TimeLimit: time.Minute})
			// Narrow jobs fit the idle node but would outlast the head's
			// reservation, so none may backfill.
			for i := 0; i < 100; i++ {
				mustSubmit(t, c, JobSpec{Name: "narrow", Tasks: 1 + i%4, BaseTime: time.Hour, TimeLimit: time.Hour})
			}
			if len(c.running) != 1 || len(c.order) != 101 {
				t.Fatalf("running %d, pending %d: want 1 and 101", len(c.running), len(c.order))
			}
			if allocs := testing.AllocsPerRun(100, c.schedule); allocs != 0 {
				t.Fatalf("a pass that starts nothing made %v allocations, want 0", allocs)
			}
			if len(c.running) != 1 {
				t.Fatalf("the pass started a job: %d running", len(c.running))
			}
		})
	}
}

func mustSubmit(t *testing.T, c *Cluster, spec JobSpec) {
	t.Helper()
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
}
