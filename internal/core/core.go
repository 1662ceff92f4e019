// Package core is the hub of the reproduction: a registry of the five
// pedagogic modules and their activities, runnable on the in-process or
// TCP message-passing runtime, and the machinery that verifies Table II
// of the paper against the MPI primitives the implementations actually
// invoke.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"math/rand"

	"repro/internal/curriculum"
	"repro/internal/data"
	"repro/internal/modules/comm"
	"repro/internal/modules/ddp"
	"repro/internal/modules/distmatrix"
	"repro/internal/modules/distsort"
	"repro/internal/modules/hashjoin"
	"repro/internal/modules/kmeans"
	"repro/internal/modules/latencyhiding"
	"repro/internal/modules/rangequery"
	"repro/internal/mpi"
)

// Activity is one runnable activity of a pedagogic module.
type Activity struct {
	Module      int // 1-based module number
	Name        string
	Description string
	DefaultNP   int
	// Discretionary marks activities the paper leaves to student
	// discretion ("some modules leave aspects of communication to the
	// discretion of the student"); they are exempt from the strict
	// Table II primitive check.
	Discretionary bool
	// Run executes a small instance of the activity on the given
	// communicator and returns a one-line summary.
	Run func(c *mpi.Comm) (string, error)
}

// Launch runs the activity in its own world at np ranks (0 = default)
// and returns rank 0's summary plus the world's communication snapshot.
// The snapshot is read after every rank has exited, when no send of the
// final collective can still be in flight, so its counts repeat exactly
// from launch to launch. Extra runtime options (e.g. mpi.WithTracer)
// pass through.
func (a Activity) Launch(np int, tcp bool, opts ...mpi.Option) (string, mpi.Snapshot, error) {
	if np <= 0 {
		np = a.DefaultNP
	}
	var summary string
	var c0 *mpi.Comm
	fn := func(c *mpi.Comm) error {
		s, err := a.Run(c)
		if c.Rank() == 0 {
			summary, c0 = s, c
		}
		return err
	}
	var err error
	if tcp {
		err = mpi.RunTCP(np, fn, opts...)
	} else {
		err = mpi.Run(np, fn, opts...)
	}
	var snap mpi.Snapshot
	if c0 != nil {
		snap = c0.Stats()
	}
	return summary, snap, err
}

// Registry returns every module activity, in module order. Workloads are
// sized to finish in well under a second so the Table II verification and
// the modulerun CLI stay interactive.
func Registry() []Activity {
	return []Activity{
		{
			Module: 1, Name: "ping-pong", DefaultNP: 2,
			Description: "bounce a message between ranks 0 and 1, timing round trips",
			Run: func(c *mpi.Comm) (string, error) {
				res, err := comm.PingPong(c, 100, 1024)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d rounds of %d B, avg RTT %v, %.1f MB/s",
					res.Rounds, res.Bytes, res.AvgRTT, res.Bandwidth/1e6), nil
			},
		},
		{
			Module: 1, Name: "ring", DefaultNP: 4,
			Description: "circulate an incrementing token around all ranks",
			Run: func(c *mpi.Comm) (string, error) {
				res, err := comm.Ring(c, 10)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d laps, %d hops, token %d, %v",
					res.Laps, res.Hops, res.Token, res.Elapsed), nil
			},
		},
		{
			Module: 1, Name: "random-known-sources", DefaultNP: 4,
			Description: "random communication; receivers learn senders via a count exchange (no MPI_ANY_SOURCE)",
			Run: func(c *mpi.Comm) (string, error) {
				res, err := comm.RandomKnownSources(c, 50, 7)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d msgs, checksum %d, %v", res.TotalMsgs, res.Checksum, res.Elapsed), nil
			},
		},
		{
			Module: 1, Name: "random-any-source", DefaultNP: 4,
			Description: "random communication received with MPI_ANY_SOURCE",
			Run: func(c *mpi.Comm) (string, error) {
				res, err := comm.RandomAnySource(c, 50, 7)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d msgs, checksum %d, %v", res.TotalMsgs, res.Checksum, res.Elapsed), nil
			},
		},
		{
			Module: 2, Name: "distance-matrix-rowwise", DefaultNP: 4,
			Description: "N×N distance matrix on 90-d points, row-wise access pattern",
			Run: func(c *mpi.Comm) (string, error) {
				pts := data.UniformPoints(256, distmatrix.DefaultDim, 0, 1, 42)
				res, err := distmatrix.Distributed(c, pts, 0)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("N=%d d=%d checksum %.3f, compute %v",
					res.N, res.Dim, res.Checksum, res.ComputeDur), nil
			},
		},
		{
			Module: 2, Name: "distance-matrix-tiled", DefaultNP: 4,
			Description: "the same matrix with loop tiling for cache locality",
			Run: func(c *mpi.Comm) (string, error) {
				pts := data.UniformPoints(256, distmatrix.DefaultDim, 0, 1, 42)
				res, err := distmatrix.Distributed(c, pts, distmatrix.DefaultTile)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("N=%d d=%d tile=%d checksum %.3f, compute %v",
					res.N, res.Dim, res.Tile, res.Checksum, res.ComputeDur), nil
			},
		},
		{
			Module: 3, Name: "sort-uniform", DefaultNP: 4,
			Description: "bucket sort of uniform keys with equal-width buckets (balanced)",
			Run:         sortActivity(data.UniformKeys(20_000, 0, 1000, 11), distsort.EqualWidth),
		},
		{
			Module: 3, Name: "sort-exponential", DefaultNP: 4,
			Description: "bucket sort of exponential keys with equal-width buckets (imbalanced)",
			Run:         sortActivity(data.ExponentialKeys(20_000, 1, 12), distsort.EqualWidth),
		},
		{
			Module: 3, Name: "sort-histogram", DefaultNP: 4,
			Description: "exponential keys rebalanced with histogram equi-depth buckets",
			Run:         sortActivity(data.ExponentialKeys(20_000, 1, 12), distsort.Histogram),
		},
		{
			Module: 3, Name: "sort-sampled", DefaultNP: 4, Discretionary: true,
			Description: "ablation: sample-based splitters (beyond the paper's activities)",
			Run:         sortActivity(data.ExponentialKeys(20_000, 1, 12), distsort.Sampled),
		},
		{
			Module: 4, Name: "range-query-brute", DefaultNP: 4,
			Description: "brute-force range queries (compute-bound, scalable)",
			Run:         queryActivity(rangequery.BruteForce),
		},
		{
			Module: 4, Name: "range-query-rtree", DefaultNP: 4,
			Description: "R-tree range queries (efficient, memory-bound)",
			Run:         queryActivity(rangequery.RTree),
		},
		{
			Module: 4, Name: "range-query-kdtree", DefaultNP: 4, Discretionary: true,
			Description: "ablation: kd-tree index (cited alternative)",
			Run:         queryActivity(rangequery.KDTree),
		},
		{
			Module: 4, Name: "range-query-quadtree", DefaultNP: 4, Discretionary: true,
			Description: "ablation: quadtree index (cited alternative)",
			Run:         queryActivity(rangequery.QuadTree),
		},
		{
			Module: 5, Name: "kmeans-weighted-means", DefaultNP: 4,
			Description: "distributed k-means, weighted-means communication option",
			Run:         kmeansActivity(kmeans.WeightedMeans),
		},
		{
			Module: 5, Name: "kmeans-explicit", DefaultNP: 4, Discretionary: true,
			Description: "distributed k-means, explicit-assignment communication option (student-discretion design)",
			Run:         kmeansActivity(kmeans.ExplicitAssignments),
		},
	}
}

func sortActivity(keys []float64, sp distsort.Splitter) func(*mpi.Comm) (string, error) {
	return func(c *mpi.Comm) (string, error) {
		var local []float64
		for i := c.Rank(); i < len(keys); i += c.Size() {
			local = append(local, keys[i])
		}
		mine, res, err := distsort.Sort(c, local, sp)
		if err != nil {
			return "", err
		}
		ok, err := distsort.VerifyDistributedSorted(c, mine)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", errors.New("distributed order violated")
		}
		return fmt.Sprintf("%s splitter: %d keys, imbalance %.2f, exchange %v, sort %v",
			res.Splitter, len(keys), res.Imbalance, res.ExchangeDur, res.SortDur), nil
	}
}

func queryActivity(m rangequery.Method) func(*mpi.Comm) (string, error) {
	return func(c *mpi.Comm) (string, error) {
		pts := data.UniformPoints(5000, 2, 0, 100, 21)
		queries := data.UniformRects(200, 2, 0, 100, 6, 22)
		res, err := rangequery.Distributed(c, pts, queries, m)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v: %d hits over %d queries, pruned %.1f%%, search %v",
			res.Method, res.TotalHits, res.NQueries, res.WorkPruned*100, res.SearchDur), nil
	}
}

func kmeansActivity(opt kmeans.CommOption) func(*mpi.Comm) (string, error) {
	return func(c *mpi.Comm) (string, error) {
		pts, _ := data.GaussianMixture(4096, 2, 5, 1.0, 100, 31)
		res, _, _, err := kmeans.Distributed(c, pts, kmeans.Config{
			K: 5, MaxIter: 50, Seed: 2, Option: opt,
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v: %d iters (converged=%v), inertia %.1f, compute %v, comm %v",
			opt, res.Iterations, res.Converged, res.Inertia, res.ComputeDur, res.CommDur), nil
	}
}

// Extensions returns the activities implementing the paper's future-work
// directions as modules 6-8: latency hiding (future work i), a further
// data-intensive choice algorithm (future work ii), and data-parallel
// training where both threads meet (bucketed nonblocking collectives
// overlapping backward compute). They are exempt from the Table II
// check, which covers only the published five modules.
func Extensions() []Activity {
	return []Activity{
		{
			Module: 6, Name: "stencil-blocking", DefaultNP: 4, Discretionary: true,
			Description: "1-D heat stencil, blocking halo exchange (future-work module: latency hiding)",
			Run:         stencilActivity(latencyhiding.Blocking),
		},
		{
			Module: 6, Name: "stencil-overlapped", DefaultNP: 4, Discretionary: true,
			Description: "the same stencil with communication/computation overlap",
			Run:         stencilActivity(latencyhiding.Overlapped),
		},
		{
			Module: 7, Name: "hash-join", DefaultNP: 4, Discretionary: true,
			Description: "distributed partitioned hash join (future-work module: algorithm choice)",
			Run: func(c *mpi.Comm) (string, error) {
				build, probe := joinInputs(c, 20_000)
				_, res, err := hashjoin.Join(c, build, probe)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d matches, imbalance %.2f, partition %v, build %v, probe %v",
					res.Matches, res.Imbalance, res.PartitionDur, res.BuildDur, res.ProbeDur), nil
			},
		},
		{
			Module: 7, Name: "hash-join-rma", DefaultNP: 4, Discretionary: true,
			Description: "the same join with a one-sided build phase: chunk-reserved batched deposits into remote RMA windows",
			Run:         hashJoinRMAActivity(hashjoin.JoinRMA),
		},
		{
			Module: 7, Name: "hash-join-rma-pertuple", DefaultNP: 4, Discretionary: true,
			Description: "the one-sided join's per-tuple deposit (one CAS + Put round trip per tuple) — the \"before\" of the batching study in HANDOUT.md",
			Run:         hashJoinRMAActivity(hashjoin.JoinRMAPerTuple),
		},
		{
			Module: 8, Name: "ddp", DefaultNP: 4, Discretionary: true,
			Description: "data-parallel MLP training: bucketed gradient Iallreduce overlapped with backward compute (future-work module: latency hiding at scale)",
			Run:         ddpActivity(ddp.Config{Overlap: true}),
		},
		{
			Module: 8, Name: "ddp-zero1", DefaultNP: 4, Discretionary: true,
			Description: "the same training with a ZeRO-1 sharded optimizer: reduce-scatter gradients, update one shard, allgather parameters",
			Run:         ddpActivity(ddp.Config{Overlap: true, Zero1: true}),
		},
	}
}

// ddpActivity builds the module-8 training activity around a sync
// strategy (full DDP or ZeRO-1); DDPActivityConfig applies the
// modulerun -overlap and -bucket-bytes substitutions before launch.
func ddpActivity(cfg ddp.Config) func(*mpi.Comm) (string, error) {
	return func(c *mpi.Comm) (string, error) {
		res, err := ddp.Train(c, cfg)
		if err != nil {
			return "", err
		}
		mode := "ddp"
		if cfg.Zero1 {
			mode = "zero1"
		}
		sync := "sequential"
		if cfg.Overlap {
			sync = "overlap"
		}
		return fmt.Sprintf("%s/%s: %d params in %d buckets, %d steps, loss %.4f → %.4f, %v/step",
			mode, sync, res.Params, res.Buckets, res.Steps, res.FirstLoss, res.LastLoss, res.PerStep), nil
	}
}

// DDPActivityConfig rebuilds a module-8 activity with the given overlap
// and bucket-size settings, the hook for modulerun's -overlap and
// -bucket-bytes flags (mirroring the RMA substitution pattern).
func DDPActivityConfig(a Activity, overlap bool, bucketBytes int) Activity {
	cfg := ddp.Config{Overlap: overlap, BucketBytes: bucketBytes, Zero1: a.Name == "ddp-zero1"}
	a.Run = ddpActivity(cfg)
	return a
}

// hashJoinRMAActivity builds the module-7 one-sided join activity around
// a deposit strategy (hashjoin.JoinRMA or hashjoin.JoinRMAPerTuple), so
// the batched and per-tuple variants run identical inputs and report the
// same phase breakdown — the only variable is the deposit design.
func hashJoinRMAActivity(join func(*mpi.Comm, []hashjoin.Tuple, []hashjoin.Tuple) ([]hashjoin.Pair, hashjoin.Result, error)) func(*mpi.Comm) (string, error) {
	return func(c *mpi.Comm) (string, error) {
		// Smaller than the two-sided activity: the per-tuple deposit pays
		// one CAS round-trip per tuple, which is the point of the
		// RMA-vs-two-sided study, but keeps the demo snappy.
		build, probe := joinInputs(c, 5_000)
		_, res, err := join(c, build, probe)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d matches, imbalance %.2f, rma build %v, probe exchange %v, probe %v",
			res.Matches, res.Imbalance, res.BuildDur, res.PartitionDur, res.ProbeDur), nil
	}
}

// joinInputs draws this rank's n build and n probe tuples for the
// module-7 activities, keys uniform over 5000 values, each relation
// allocated once at full size.
func joinInputs(c *mpi.Comm, n int) (build, probe []hashjoin.Tuple) {
	rng := rand.New(rand.NewSource(int64(c.Rank()) + 77))
	build = make([]hashjoin.Tuple, n)
	probe = make([]hashjoin.Tuple, n)
	for i := range build {
		build[i] = hashjoin.Tuple{Key: rng.Int63n(5000), Payload: rng.Int63()}
		probe[i] = hashjoin.Tuple{Key: rng.Int63n(5000), Payload: rng.Int63()}
	}
	return build, probe
}

func stencilActivity(v latencyhiding.Variant) func(*mpi.Comm) (string, error) {
	return func(c *mpi.Comm) (string, error) {
		res, _, err := latencyhiding.Run(c, 4096, 200, 0.25, v)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v: %d cells/rank × %d steps, checksum %.6f, %v",
			res.Variant, res.CellsPer, res.Steps, res.Checksum, res.Elapsed), nil
	}
}

// All returns the published modules plus the extension modules.
func All() []Activity {
	return append(Registry(), Extensions()...)
}

// Find returns the activity with the given name, searching extensions
// too.
func Find(name string) (Activity, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return Activity{}, false
}

// ModuleCheck is the Table II verification verdict for one module.
type ModuleCheck struct {
	Module          int
	Used            []string // primitives invoked by the prescribed activities
	MissingRequired []string // Table II 'R' primitives never invoked
	Unexpected      []string // invoked primitives outside Table II's R/N sets
	Elapsed         time.Duration
}

// OK reports whether the module matches Table II.
func (mc ModuleCheck) OK() bool {
	return len(mc.MissingRequired) == 0 && len(mc.Unexpected) == 0
}

// infrastructureAllowance lists primitives permitted in any module
// because the harness (not the student solution) uses them: Barrier
// synchronizes timing measurements.
var infrastructureAllowance = map[string]bool{"MPI_Barrier": true}

// VerifyTableII runs every non-discretionary activity of every module and
// compares the union of primitives each module invoked against the
// paper's Table II.
func VerifyTableII() ([]ModuleCheck, error) {
	used := make(map[int]map[string]bool)
	elapsed := make(map[int]time.Duration)
	for _, a := range Registry() {
		if a.Discretionary {
			continue
		}
		start := time.Now()
		_, snap, err := a.Launch(0, false)
		if err != nil {
			return nil, fmt.Errorf("core: activity %s: %w", a.Name, err)
		}
		elapsed[a.Module] += time.Since(start)
		if used[a.Module] == nil {
			used[a.Module] = make(map[string]bool)
		}
		for _, p := range snap.PrimitivesUsed() {
			used[a.Module][p.String()] = true
		}
	}
	var checks []ModuleCheck
	for m := 1; m <= curriculum.NumModules; m++ {
		mc := ModuleCheck{Module: m, Elapsed: elapsed[m]}
		for p := range used[m] {
			mc.Used = append(mc.Used, p)
			if infrastructureAllowance[p] {
				continue
			}
			if curriculum.RequirementFor(p, m) == curriculum.No {
				mc.Unexpected = append(mc.Unexpected, p)
			}
		}
		for _, req := range curriculum.RequiredPrimitives(m) {
			if !used[m][req] {
				mc.MissingRequired = append(mc.MissingRequired, req)
			}
		}
		sort.Strings(mc.Used)
		sort.Strings(mc.Unexpected)
		sort.Strings(mc.MissingRequired)
		checks = append(checks, mc)
	}
	return checks, nil
}
