package kmeans

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/prof"
	"repro/internal/trace"
)

func TestSequentialConverges(t *testing.T) {
	pts, _ := data.GaussianMixture(1200, 2, 4, 0.5, 100, 1)
	res, assign, err := Sequential(pts, Config{K: 4, MaxIter: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if len(assign) != 1200 {
		t.Fatalf("%d assignments", len(assign))
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia %v", res.Inertia)
	}
}

func TestSequentialRecoversTightClusters(t *testing.T) {
	// Well-separated clusters: k-means must place a centroid near each
	// true center, making mean point-to-centroid distance ≈ stddev.
	pts, labels := data.GaussianMixture(2000, 2, 3, 0.2, 100, 2)
	res, assign, err := Sequential(pts, Config{K: 3, MaxIter: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	meanDist := math.Sqrt(res.Inertia / float64(pts.N()))
	if meanDist > 2.0 {
		t.Fatalf("poor clustering: RMS distance %v for stddev 0.2", meanDist)
	}
	// Same-label points should overwhelmingly share an assignment.
	agree, total := 0, 0
	for i := 0; i < 500; i++ {
		for j := i + 1; j < 500; j++ {
			if labels[i] == labels[j] {
				total++
				if assign[i] == assign[j] {
					agree++
				}
			}
		}
	}
	if total > 0 && float64(agree)/float64(total) < 0.9 {
		t.Fatalf("label agreement %.2f", float64(agree)/float64(total))
	}
}

func TestValidation(t *testing.T) {
	pts := data.UniformPoints(10, 2, 0, 1, 1)
	if _, _, err := Sequential(pts, Config{K: 0, MaxIter: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := Sequential(pts, Config{K: 20, MaxIter: 10}); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, _, err := Sequential(pts, Config{K: 2, MaxIter: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
}

func TestDistributedMatchesSequentialBothOptions(t *testing.T) {
	pts, _ := data.GaussianMixture(960, 2, 4, 0.8, 50, 4)
	seq, seqAssign, err := Sequential(pts, Config{K: 4, MaxIter: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 4} {
		for _, opt := range []CommOption{WeightedMeans, ExplicitAssignments} {
			np, opt := np, opt
			t.Run(fmt.Sprintf("np=%d %v", np, opt), func(t *testing.T) {
				assigns := make([][]int, np)
				offsets := make([]int, np)
				var results []Result = make([]Result, np)
				err := mpi.Run(np, func(c *mpi.Comm) error {
					res, assign, off, err := Distributed(c, pts, Config{K: 4, MaxIter: 50, Seed: 2, Option: opt})
					if err != nil {
						return err
					}
					assigns[c.Rank()] = assign
					offsets[c.Rank()] = off
					results[c.Rank()] = res
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				res := results[0]
				if res.Iterations != seq.Iterations {
					t.Fatalf("iterations %d, sequential %d", res.Iterations, seq.Iterations)
				}
				if math.Abs(res.Inertia-seq.Inertia) > 1e-6*seq.Inertia {
					t.Fatalf("inertia %v, sequential %v", res.Inertia, seq.Inertia)
				}
				for d := range res.Centroids.Coords {
					if math.Abs(res.Centroids.Coords[d]-seq.Centroids.Coords[d]) > 1e-9 {
						t.Fatalf("centroid coord %d differs: %v vs %v",
							d, res.Centroids.Coords[d], seq.Centroids.Coords[d])
					}
				}
				// Stitch distributed assignments and compare.
				full := make([]int, pts.N())
				for r := 0; r < np; r++ {
					copy(full[offsets[r]:], assigns[r])
				}
				for i := range full {
					if full[i] != seqAssign[i] {
						t.Fatalf("assignment %d differs: %d vs %d", i, full[i], seqAssign[i])
					}
				}
			})
		}
	}
}

func TestWeightedMeansCommunicatesLess(t *testing.T) {
	// The module's central claim for the two options: option 2
	// (weighted means) needs far less communication than option 1
	// (explicit assignments).
	pts, _ := data.GaussianMixture(4000, 2, 8, 1.0, 100, 5)
	wire := make(map[CommOption]int64)
	for _, opt := range []CommOption{WeightedMeans, ExplicitAssignments} {
		var bytes int64
		err := mpi.Run(4, func(c *mpi.Comm) error {
			if _, _, _, err := Distributed(c, pts, Config{K: 8, MaxIter: 30, Seed: 1, Option: opt}); err != nil {
				return err
			}
			if c.Rank() == 0 {
				bytes = c.Stats().TotalWire
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wire[opt] = bytes
	}
	if wire[WeightedMeans]*3 > wire[ExplicitAssignments] {
		t.Fatalf("weighted means moved %d bytes, explicit %d: want ≥3× separation",
			wire[WeightedMeans], wire[ExplicitAssignments])
	}
}

func TestComputeGrowsWithK(t *testing.T) {
	// Large k → computation dominates. Compute is asserted on the
	// assignment step's distance-evaluation counter, not wall clock:
	// every point meets every centroid once per iteration, so going from
	// k=2 to k=64 must multiply the work exactly 32×, on any machine
	// under any load. Communication volume grows only linearly in k (the
	// allreduce payload) and stays tiny. BenchmarkAssignByK keeps the
	// wall-clock curve.
	pts, _ := data.GaussianMixture(8192, 2, 8, 2.0, 100, 6)
	perIter := func(k int) (evals, wireBytes int64) {
		var c0 *mpi.Comm
		var iters int64
		err := mpi.Run(4, func(c *mpi.Comm) error {
			res, _, _, err := Distributed(c, pts, Config{K: k, MaxIter: 8, Seed: 1, Tol: -1})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				c0, iters, evals = c, int64(res.Iterations), res.DistEvals
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return evals / iters, c0.Stats().TotalWire / iters
	}
	lowEvals, lowWire := perIter(2)
	highEvals, highWire := perIter(64)
	if want := int64(8192 / 4 * 2); lowEvals != want {
		t.Fatalf("k=2: %d distance evaluations per iteration, want N/p·k = %d", lowEvals, want)
	}
	if highEvals != 32*lowEvals {
		t.Fatalf("compute did not grow 32× with k: k=2 → %d, k=64 → %d evaluations/iter", lowEvals, highEvals)
	}
	// Communication volume grows at most linearly with k (allreduce
	// payload), far slower than the 32× compute growth.
	if highWire > 40*lowWire {
		t.Fatalf("communication grew too fast: %d → %d bytes/iter", lowWire, highWire)
	}
}

// BenchmarkAssignByK is the wall-clock side of TestComputeGrowsWithK:
// one assignment step over a rank's 2048-point share, per k.
func BenchmarkAssignByK(b *testing.B) {
	pts, _ := data.GaussianMixture(2048, 2, 8, 2.0, 100, 6)
	assign := make([]int, pts.N())
	for _, k := range []int{2, 8, 64} {
		cent := initialCentroids(pts, k, 1)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				assignPoints(pts, cent, assign)
			}
		})
	}
}

func TestModeledCommComputeCrossover(t *testing.T) {
	// The cluster-scale half of the Section III-F claim, via the
	// roofline model with realistic MPI latency: at small k an
	// iteration is communication-dominated; at large k it is
	// compute-dominated.
	m := perfmodel.DefaultMachine()
	m.NetLatency = 50 * time.Microsecond // MPI over gigabit-class fabric
	commFraction := func(k int) float64 {
		kern := IterationKernel(100_000, 2, k, 32, WeightedMeans)
		full, err := m.Time(kern, perfmodel.Placement{Ranks: 32, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		noComm := kern
		noComm.CommBytes, noComm.CommMsgs = 0, 0
		compute, err := m.Time(noComm, perfmodel.Placement{Ranks: 32, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		return float64(full-compute) / float64(full)
	}
	low := commFraction(2)
	high := commFraction(512)
	if low < 0.5 {
		t.Fatalf("k=2 should be communication-dominated, comm fraction %.2f", low)
	}
	if high > 0.5 {
		t.Fatalf("k=512 should be compute-dominated, comm fraction %.2f", high)
	}
}

func TestDistributedRequiresDivisibleN(t *testing.T) {
	pts := data.UniformPoints(10, 2, 0, 1, 1)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		_, _, _, err := Distributed(c, pts, Config{K: 2, MaxIter: 5})
		if c.Rank() == 0 {
			if err == nil {
				return fmt.Errorf("indivisible N accepted")
			}
			c.Abort(nil)
			return nil
		}
		return nil
	})
	_ = err
}

// TestProfilerRecordsPhases checks that the runtime's hook layer alone —
// no module instrumentation — yields per-rank compute and communication
// phases for the k-means module.
func TestProfilerRecordsPhases(t *testing.T) {
	pts, _ := data.GaussianMixture(800, 2, 4, 1.0, 50, 7)
	pc := prof.New()
	err := mpi.Run(4, func(c *mpi.Comm) error {
		_, _, _, err := Distributed(c, pts, Config{K: 4, MaxIter: 20, Seed: 1})
		return err
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	splits := trace.SplitsOf(pc.Intervals())
	if len(splits) != 4 {
		t.Fatalf("traced %d ranks", len(splits))
	}
	for _, s := range splits {
		if s.Compute == 0 || s.Comm == 0 {
			t.Fatalf("rank %d missing phases: %+v", s.Rank, s)
		}
	}
}

func TestInitialCentroidsDeterministicAndDistinct(t *testing.T) {
	pts := data.UniformPoints(100, 2, 0, 1, 9)
	a := initialCentroids(pts, 5, 42)
	b := initialCentroids(pts, 5, 42)
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatal("same seed, different centroids")
		}
	}
	c := initialCentroids(pts, 5, 43)
	same := true
	for i := range a.Coords {
		if a.Coords[i] != c.Coords[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical centroids")
	}
}

func TestEmptyClusterKeepsPosition(t *testing.T) {
	cent := data.Points{Dim: 1, Coords: []float64{0, 100}}
	// All points at 0: cluster 1 is empty.
	sums := []float64{0, 0}
	counts := []float64{5, 0}
	moved := updateCentroids(cent, sums, counts, 0)
	if cent.Coords[1] != 100 {
		t.Fatalf("empty cluster moved to %v", cent.Coords[1])
	}
	if moved {
		t.Fatal("no centroid moved but update reported movement")
	}
}

func TestCommOptionStrings(t *testing.T) {
	if WeightedMeans.String() == "" || ExplicitAssignments.String() == "" || CommOption(9).String() == "" {
		t.Fatal("empty option name")
	}
}

func TestPlusPlusBeatsNaiveInit(t *testing.T) {
	// Well-separated clusters where strided initialization can start
	// poorly: k-means++ should reach equal-or-lower inertia on average.
	pts, _ := data.GaussianMixture(3000, 2, 6, 0.3, 200, 11)
	var naiveInertia, ppInertia float64
	trials := 5
	for s := int64(0); s < int64(trials); s++ {
		nres, _, err := Sequential(pts, Config{K: 6, MaxIter: 100, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		naiveInertia += nres.Inertia
		pres, _, err := SequentialWithCentroids(pts, PlusPlusCentroids(pts, 6, s), Config{K: 6, MaxIter: 100, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		ppInertia += pres.Inertia
	}
	if ppInertia > naiveInertia*1.05 {
		t.Fatalf("k-means++ mean inertia %.0f worse than naive %.0f",
			ppInertia/float64(trials), naiveInertia/float64(trials))
	}
}

func TestPlusPlusProperties(t *testing.T) {
	pts, _ := data.GaussianMixture(500, 2, 4, 1.0, 50, 13)
	cent := PlusPlusCentroids(pts, 4, 7)
	if cent.N() != 4 || cent.Dim != 2 {
		t.Fatalf("shape %d×%d", cent.N(), cent.Dim)
	}
	again := PlusPlusCentroids(pts, 4, 7)
	for i := range cent.Coords {
		if cent.Coords[i] != again.Coords[i] {
			t.Fatal("not deterministic")
		}
	}
	// Centroids must be distinct for well-spread data.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if data.SquaredDistance(cent.At(i), cent.At(j)) == 0 {
				t.Fatalf("centroids %d and %d coincide", i, j)
			}
		}
	}
}

func TestPlusPlusDegenerateData(t *testing.T) {
	// All points identical: seeding must still terminate with k centroids.
	pts := data.Points{Dim: 2, Coords: make([]float64, 200)}
	cent := PlusPlusCentroids(pts, 3, 1)
	if cent.N() != 3 {
		t.Fatalf("%d centroids", cent.N())
	}
}

func TestSequentialWithCentroidsValidation(t *testing.T) {
	pts := data.UniformPoints(20, 2, 0, 1, 1)
	bad := data.UniformPoints(3, 2, 0, 1, 2)
	if _, _, err := SequentialWithCentroids(pts, bad, Config{K: 5, MaxIter: 10}); err == nil {
		t.Fatal("mismatched init accepted")
	}
}
