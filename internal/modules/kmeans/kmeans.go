// Package kmeans implements Module 5 of the pedagogic modules:
// distributed k-means clustering with alternating phases of synchronous
// computation and communication. The module's two communication options
// are both provided: ExplicitAssignments ships every point's cluster
// assignment to rank 0 each iteration (simple, communication-heavy);
// WeightedMeans reduces per-cluster coordinate sums and counts (minimal
// communication). Students observe the compute/communication balance flip
// with k (learning outcomes 4, 8, 10–15).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// CommOption selects the module's centroid-update communication scheme.
type CommOption int

const (
	// WeightedMeans allreduces k×(dim+1) partial sums — the efficient
	// option.
	WeightedMeans CommOption = iota
	// ExplicitAssignments gathers every point assignment onto rank 0,
	// which recomputes and redistributes centroids — the explicit,
	// communication-heavy option.
	ExplicitAssignments
)

// String names the option for reports.
func (o CommOption) String() string {
	switch o {
	case WeightedMeans:
		return "weighted-means"
	case ExplicitAssignments:
		return "explicit-assignments"
	default:
		return fmt.Sprintf("CommOption(%d)", int(o))
	}
}

// Config parameterizes a clustering run.
type Config struct {
	K       int
	MaxIter int
	// Tol is the centroid-movement convergence threshold (squared
	// Euclidean). Zero means exact: stop when no centroid moves.
	Tol float64
	// Option selects the communication scheme (default WeightedMeans).
	Option CommOption
	// Seed drives the deterministic initial centroid choice.
	Seed int64
	// Checkpoint, when set on rank 0, persists (iteration, centroids)
	// every CheckpointEvery iterations during Distributed. Other ranks
	// may leave it nil.
	Checkpoint ckpt.Checkpointer
	// CheckpointEvery is the iteration period between saves; 0 disables
	// checkpointing even when Checkpoint is set.
	CheckpointEvery int
	// Restart resumes Distributed from rank 0's latest checkpoint
	// instead of the initial centroids. It must be set on every rank
	// (the restored state is broadcast); the resumed run reproduces the
	// uninterrupted run's centroids bit for bit. If no checkpoint
	// exists the run starts from the beginning.
	Restart bool
}

// Result reports one clustering run.
type Result struct {
	K          int
	NP         int
	N          int // global point count
	Iterations int
	Converged  bool
	Inertia    float64 // sum of squared distances to assigned centroids
	Elapsed    time.Duration
	ComputeDur time.Duration // this rank's assignment/update time
	CommDur    time.Duration // this rank's communication time
	Centroids  data.Points
	// DistEvals counts the point-to-centroid distances this rank's
	// assignment steps evaluated: the deterministic measure of compute,
	// N/p·k per iteration.
	DistEvals int64
}

// Sequential runs Lloyd's algorithm on one process — the module's
// baseline and the reference the distributed tests compare against.
func Sequential(pts data.Points, cfg Config) (Result, []int, error) {
	if err := validate(pts.N(), cfg); err != nil {
		return Result{}, nil, err
	}
	cent := initialCentroids(pts, cfg.K, cfg.Seed)
	assign := make([]int, pts.N())
	sums := make([]float64, cfg.K*pts.Dim)
	counts := make([]float64, cfg.K)
	res := Result{K: cfg.K, NP: 1, N: pts.N()}
	start := time.Now()
	for it := 0; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1
		res.DistEvals += assignPoints(pts, cent, assign)
		partialSumsInto(pts, assign, sums, counts)
		moved := updateCentroids(cent, sums, counts, cfg.Tol)
		if !moved {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(start)
	res.Inertia = inertia(pts, cent, assign)
	res.Centroids = cent
	return res, assign, nil
}

// Distributed runs the module's distributed k-means. Every rank holds
// the full dataset (the module prescribes a single input dataset each
// rank reads); MPI_Scatter hands each rank its N/p-point share, and
// initial centroids are computed locally from the shared dataset, so the
// prescribed weighted-means configuration touches exactly Table II's
// Module 5 primitives (MPI_Scatter, MPI_Allreduce). Each iteration
// alternates local assignment with the selected global update. Every
// rank returns the same centroids; assignments are returned for the
// local share along with its global offset.
func Distributed(c *mpi.Comm, pts data.Points, cfg Config) (Result, []int, int, error) {
	p, r := c.Size(), c.Rank()
	if err := validate(pts.N(), cfg); err != nil {
		return Result{}, nil, 0, err
	}
	if pts.N()%p != 0 {
		return Result{}, nil, 0, fmt.Errorf("kmeans: N=%d not divisible by %d ranks (the module prescribes N/p points per rank)", pts.N(), p)
	}
	n, dim := pts.N(), pts.Dim

	start := time.Now()
	var sendCoords []float64
	if r == 0 {
		sendCoords = pts.Coords
	}
	localCoords, err := mpi.Scatter(c, sendCoords, 0)
	if err != nil {
		return Result{}, nil, 0, err
	}
	local := data.Points{Dim: dim, Coords: localCoords}
	offset := r * (n / p)

	// Initial centroids are a deterministic function of the shared
	// dataset: every rank computes the same ones with no communication.
	cent := initialCentroids(pts, cfg.K, cfg.Seed)

	// Restart: rank 0 restores the latest checkpoint and broadcasts
	// (iteration, centroids); every rank resumes mid-trajectory. The
	// remaining iterations recompute exactly what the uninterrupted run
	// would have, so the final centroids are bit-identical.
	startIter := 0
	if cfg.Restart {
		var state []float64
		if r == 0 {
			if cfg.Checkpoint == nil {
				return Result{}, nil, 0, fmt.Errorf("kmeans: Restart requires a Checkpointer on rank 0")
			}
			step, payload, ok, lerr := cfg.Checkpoint.Load()
			if lerr != nil {
				return Result{}, nil, 0, lerr
			}
			if ok {
				coords, derr := ckpt.DecodeFloat64s(payload)
				if derr != nil {
					return Result{}, nil, 0, derr
				}
				if len(coords) != cfg.K*dim {
					return Result{}, nil, 0, fmt.Errorf("kmeans: checkpoint holds %d centroid values, want %d (k or dim changed?)", len(coords), cfg.K*dim)
				}
				state = append([]float64{float64(step)}, coords...)
			} else {
				state = []float64{-1} // no checkpoint yet: cold start
			}
		}
		state, err = mpi.Bcast(c, state, 0)
		if err != nil {
			return Result{}, nil, 0, err
		}
		if state[0] >= 0 {
			startIter = int(state[0])
			copy(cent.Coords, state[1:])
			c.Lifecycle(mpi.LifeRecovery, fmt.Sprintf("kmeans restart from iteration %d", startIter))
		}
	}

	assign := make([]int, local.N())
	res := Result{K: cfg.K, NP: p, N: n}
	var computeDur, commDur time.Duration

	// Per-iteration scratch, hoisted out of the loop so the steady state
	// allocates nothing: partial sums and counts, the packed allreduce
	// payload, and (for the explicit option) the wire-typed assignments.
	sums := make([]float64, cfg.K*dim)
	counts := make([]float64, cfg.K)
	payload := make([]float64, cfg.K*(dim+1))
	var assign64 []int64
	if cfg.Option == ExplicitAssignments {
		assign64 = make([]int64, local.N())
	}

	for it := startIter; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1

		computeStart := time.Now()
		res.DistEvals += assignPoints(local, cent, assign)
		partialSumsInto(local, assign, sums, counts)
		computeDur += time.Since(computeStart)

		commStart := time.Now()
		var moved bool
		switch cfg.Option {
		case WeightedMeans:
			moved, err = weightedMeansUpdate(c, cent, sums, counts, cfg.Tol, payload)
		case ExplicitAssignments:
			moved, err = explicitUpdate(c, local, cent, assign, assign64, cfg.Tol, n)
		default:
			err = fmt.Errorf("kmeans: unknown comm option %d", int(cfg.Option))
		}
		if err != nil {
			return Result{}, nil, 0, err
		}
		commDur += time.Since(commStart)

		// The checkpoint captures the post-update state: a restart
		// resumes at iteration it+1 with these exact centroids.
		if r == 0 && cfg.Checkpoint != nil && cfg.CheckpointEvery > 0 && (it+1)%cfg.CheckpointEvery == 0 {
			if err := cfg.Checkpoint.Save(it+1, ckpt.EncodeFloat64s(cent.Coords)); err != nil {
				return Result{}, nil, 0, err
			}
			c.Lifecycle(mpi.LifeCheckpoint, fmt.Sprintf("kmeans iteration %d", it+1))
		}
		if !moved {
			res.Converged = true
			break
		}
	}

	// Global inertia for verification (MPI_Allreduce, the module's
	// optional primitive).
	tot := [1]float64{inertia(local, cent, assign)}
	if err := mpi.AllreduceInto(c, tot[:], mpi.OpSum); err != nil {
		return Result{}, nil, 0, err
	}
	res.Inertia = tot[0]
	res.Elapsed = time.Since(start)
	res.ComputeDur = computeDur
	res.CommDur = commDur
	res.Centroids = cent
	return res, assign, offset, nil
}

// DistributedResilient is Distributed wrapped in the runtime's respawn
// recovery loop: when a rank dies mid-run, the survivors rebuild the
// world at full width (mpi.Comm.RespawnAndRestore), the replacement rank
// joins, and the whole clustering restarts from rank 0's latest
// checkpoint — so the final centroids are bit-identical to an
// uninterrupted run. Every rank must pass the same cfg, and for
// recovery to survive the death of rank 0 itself the Checkpointer must
// be reachable from every rank (a shared ckpt.Mem or a shared path).
// The killed rank's call still returns ErrRankKilled — its replacement
// runs on a fresh goroutine and its copy of the results is discarded;
// survivors return the post-recovery result.
func DistributedResilient(c *mpi.Comm, pts data.Points, cfg Config) (Result, []int, int, error) {
	var (
		res    Result
		assign []int
		off    int
	)
	myRank := c.Rank()
	err := c.RunResilient(func(rc *mpi.Comm, restart bool) error {
		rcfg := cfg
		// Post-failure retries resume from the checkpoint when there is
		// one; without a checkpointer they recompute from scratch, which
		// is equally bit-identical — the algorithm is deterministic.
		rcfg.Restart = cfg.Restart || (restart && cfg.Checkpoint != nil)
		r, a, o, err := Distributed(rc, pts, rcfg)
		if err == nil && rc.Rank() == myRank {
			res, assign, off = r, a, o
		}
		return err
	})
	if err != nil {
		return Result{}, nil, 0, err
	}
	return res, assign, off, nil
}

// weightedMeansUpdate is the efficient option: one in-place Allreduce of
// k×(dim+1) values updates every rank's centroids identically. payload is
// caller-provided scratch of that length, reused across iterations.
func weightedMeansUpdate(c *mpi.Comm, cent data.Points, sums []float64, counts []float64, tol float64, payload []float64) (bool, error) {
	k, dim := cent.N(), cent.Dim
	copy(payload[:k*dim], sums)
	copy(payload[k*dim:], counts)
	if err := mpi.AllreduceInto(c, payload, mpi.OpSum); err != nil {
		return false, err
	}
	return updateCentroids(cent, payload[:k*dim], payload[k*dim:], tol), nil
}

// explicitUpdate is the communication-heavy option: every rank ships its
// point coordinates and assignments to rank 0 (describing the assignment
// of points to centroids explicitly), which recomputes centroids and
// broadcasts them back.
func explicitUpdate(c *mpi.Comm, local data.Points, cent data.Points, assign []int, assign64 []int64, tol float64, n int) (bool, error) {
	k, dim := cent.N(), cent.Dim
	for i, a := range assign {
		assign64[i] = int64(a)
	}
	allAssign, err := mpi.Gather(c, assign64, 0)
	if err != nil {
		return false, err
	}
	allCoords, err := mpi.Gather(c, local.Coords, 0)
	if err != nil {
		return false, err
	}
	var moved float64
	var newCent []float64
	if c.Rank() == 0 {
		sums := make([]float64, k*dim)
		counts := make([]float64, k)
		for i := 0; i < n; i++ {
			a := int(allAssign[i])
			counts[a]++
			for d := 0; d < dim; d++ {
				sums[a*dim+d] += allCoords[i*dim+d]
			}
		}
		centCopy := data.Points{Dim: dim, Coords: append([]float64(nil), cent.Coords...)}
		if updateCentroids(centCopy, sums, counts, tol) {
			moved = 1
		}
		newCent = centCopy.Coords
	}
	newCent, err = mpi.Bcast(c, newCent, 0)
	if err != nil {
		return false, err
	}
	copy(cent.Coords, newCent)
	mv, err := mpi.Bcast(c, []float64{moved}, 0)
	if err != nil {
		return false, err
	}
	return mv[0] == 1, nil
}

// IterationKernel characterizes one k-means iteration for the roofline
// model: the module's Section III-F analysis of when the algorithm is
// compute-bound (large k) versus communication-bound (small k) on a real
// cluster, where per-collective latency is significant. Assignment costs
// ≈3·dim flops per point per centroid; the weighted-means option moves
// 2·log2(p) latency-bound messages of k·(dim+1) floats per iteration,
// while the explicit option gathers every point and assignment to rank 0
// and broadcasts centroids back.
func IterationKernel(n, dim, k, p int, opt CommOption) perfmodel.Kernel {
	flops := float64(n) * float64(k) * float64(3*dim)
	bytes := float64(n) * float64(dim) * 8 // stream the local points
	kern := perfmodel.Kernel{
		Name:  fmt.Sprintf("kmeans-n%d-k%d-%s", n, k, opt),
		Flops: flops,
		Bytes: bytes,
	}
	logp := 0
	for q := 1; q < p; q <<= 1 {
		logp++
	}
	switch opt {
	case ExplicitAssignments:
		kern.CommBytes = float64(n)*float64(dim+1)*8 + float64(k*dim*8*p)
		kern.CommMsgs = 2 * p
	default: // WeightedMeans
		kern.CommBytes = float64(2*logp) * float64(k*(dim+1)*8)
		kern.CommMsgs = 2 * logp
	}
	return kern
}

// validate checks configuration invariants.
func validate(n int, cfg Config) error {
	if cfg.K <= 0 {
		return fmt.Errorf("kmeans: k=%d must be positive", cfg.K)
	}
	if n < cfg.K {
		return fmt.Errorf("kmeans: %d points for k=%d clusters", n, cfg.K)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("kmeans: max iterations %d must be positive", cfg.MaxIter)
	}
	return nil
}

// PlusPlusCentroids implements k-means++ seeding (Arthur & Vassilvitskii):
// centroids are drawn with probability proportional to squared distance
// from the nearest chosen centroid. It is the "improve the algorithm
// beyond the module" initialization (learning outcome 15), typically
// converging in fewer iterations with lower inertia than the module's
// naive strided choice. Deterministic for a fixed seed.
func PlusPlusCentroids(pts data.Points, k int, seed int64) data.Points {
	rng := rand.New(rand.NewSource(seed))
	n, dim := pts.N(), pts.Dim
	coords := make([]float64, 0, k*dim)
	first := rng.Intn(n)
	coords = append(coords, pts.At(first)...)
	// dist2[i] tracks squared distance to the nearest chosen centroid.
	dist2 := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		dist2[i] = data.SquaredDistance(pts.At(i), pts.At(first))
		total += dist2[i]
	}
	for c := 1; c < k; c++ {
		var idx int
		if total <= 0 {
			idx = rng.Intn(n) // all points coincide with a centroid
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i := 0; i < n; i++ {
				acc += dist2[i]
				if acc >= target {
					idx = i
					break
				}
			}
		}
		chosen := pts.At(idx)
		coords = append(coords, chosen...)
		for i := 0; i < n; i++ {
			if d := data.SquaredDistance(pts.At(i), chosen); d < dist2[i] {
				total -= dist2[i] - d
				dist2[i] = d
			}
		}
	}
	return data.Points{Dim: dim, Coords: coords}
}

// SequentialWithCentroids runs Lloyd's algorithm from the given initial
// centroids — the hook the k-means++ ablation uses.
func SequentialWithCentroids(pts data.Points, init data.Points, cfg Config) (Result, []int, error) {
	if err := validate(pts.N(), cfg); err != nil {
		return Result{}, nil, err
	}
	if init.N() != cfg.K || init.Dim != pts.Dim {
		return Result{}, nil, fmt.Errorf("kmeans: init centroids %d×%d, want %d×%d", init.N(), init.Dim, cfg.K, pts.Dim)
	}
	cent := data.Points{Dim: init.Dim, Coords: append([]float64(nil), init.Coords...)}
	assign := make([]int, pts.N())
	sums := make([]float64, cfg.K*pts.Dim)
	counts := make([]float64, cfg.K)
	res := Result{K: cfg.K, NP: 1, N: pts.N()}
	start := time.Now()
	for it := 0; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1
		res.DistEvals += assignPoints(pts, cent, assign)
		partialSumsInto(pts, assign, sums, counts)
		if !updateCentroids(cent, sums, counts, cfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(start)
	res.Inertia = inertia(pts, cent, assign)
	res.Centroids = cent
	return res, assign, nil
}

// initialCentroids picks k distinct points deterministically from the
// dataset (evenly strided with a seed-driven start), so sequential and
// distributed runs start identically.
func initialCentroids(pts data.Points, k int, seed int64) data.Points {
	n := pts.N()
	stride := n / k
	if stride == 0 {
		stride = 1
	}
	startIdx := int(seed % int64(stride))
	if startIdx < 0 {
		startIdx += stride
	}
	coords := make([]float64, 0, k*pts.Dim)
	for i := 0; i < k; i++ {
		idx := (startIdx + i*stride) % n
		coords = append(coords, pts.At(idx)...)
	}
	return data.Points{Dim: pts.Dim, Coords: coords}
}

// assignPoints writes each point's nearest-centroid index into assign
// and returns the number of distances it evaluated.
func assignPoints(pts data.Points, cent data.Points, assign []int) int64 {
	var evals int64
	for i := 0; i < pts.N(); i++ {
		pt := pts.At(i)
		best, bestDist := 0, math.Inf(1)
		for c := 0; c < cent.N(); c++ {
			if d := data.SquaredDistance(pt, cent.At(c)); d < bestDist {
				best, bestDist = c, d
			}
		}
		evals += int64(cent.N())
		assign[i] = best
	}
	return evals
}

// partialSumsInto accumulates per-cluster coordinate sums and counts
// into caller-provided slices (len k·dim and k), zeroing them first.
func partialSumsInto(pts data.Points, assign []int, sums, counts []float64) {
	dim := pts.Dim
	for i := range sums {
		sums[i] = 0
	}
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < pts.N(); i++ {
		a := assign[i]
		counts[a]++
		base := a * dim
		pt := pts.At(i)
		for d := 0; d < dim; d++ {
			sums[base+d] += pt[d]
		}
	}
}

// updateCentroids moves centroids to their cluster means and reports
// whether any moved more than tol (squared distance). Empty clusters keep
// their previous position.
func updateCentroids(cent data.Points, sums []float64, counts []float64, tol float64) bool {
	dim := cent.Dim
	moved := false
	buf := make([]float64, dim)
	for c := 0; c < cent.N(); c++ {
		if counts[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			buf[d] = sums[c*dim+d] / counts[c]
		}
		if data.SquaredDistance(buf, cent.At(c)) > tol {
			moved = true
		}
		copy(cent.At(c), buf)
	}
	return moved
}

// inertia sums squared distances from points to their assigned centroids.
func inertia(pts data.Points, cent data.Points, assign []int) float64 {
	var s float64
	for i := 0; i < pts.N(); i++ {
		s += data.SquaredDistance(pts.At(i), cent.At(assign[i]))
	}
	return s
}
