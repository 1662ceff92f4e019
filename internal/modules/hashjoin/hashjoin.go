// Package hashjoin implements the paper's second future-work direction
// ("modules with other data-intensive algorithms so students have some
// choice"): a distributed partitioned hash join, the equi-join workhorse
// of the database systems the modules' motivation keeps returning to.
//
// The plan is the textbook GRACE join: both relations are hash-partitioned
// on the join key across ranks (MPI_Alltoallv-style exchange built from
// the module-level primitives), each rank builds an in-memory hash table
// over its build-side partition and probes it with its probe-side
// partition, and the global result cardinality is reduced onto rank 0.
package hashjoin

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/mpi"
)

const (
	tagBuild = 51
	tagProbe = 52
)

// Tuple is a relation row: a join key and a payload identifier.
type Tuple struct {
	Key     int64
	Payload int64
}

// Pair is one join match: the payloads of the joined build and probe
// tuples.
type Pair struct {
	BuildPayload, ProbePayload int64
}

// Result reports one distributed join.
type Result struct {
	NP           int
	BuildN       int   // local build tuples before partitioning
	ProbeN       int   // local probe tuples before partitioning
	Matches      int64 // global match count (rank 0; via MPI_Reduce)
	LocalMatches int
	Elapsed      time.Duration
	PartitionDur time.Duration
	BuildDur     time.Duration
	ProbeDur     time.Duration
	// Imbalance is max/mean local build-partition size across ranks.
	Imbalance float64
}

// hashKey maps a join key to its owning rank. Splitmix-style finalizer:
// adjacent keys land on different ranks, so skew comes only from true
// key-frequency skew.
func hashKey(k int64, p int) int {
	x := uint64(k) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(p))
}

// Join executes the distributed hash join. Each rank contributes its
// local fragments of the build and probe relations; the returned pairs
// are the matches assigned to this rank (all matches for keys it owns).
// Only rank 0's Matches is the global count.
func Join(c *mpi.Comm, build, probe []Tuple) ([]Pair, Result, error) {
	p := c.Size()
	start := time.Now()
	res := Result{NP: p, BuildN: len(build), ProbeN: len(probe)}

	// Partition both relations by key hash and exchange.
	partStart := time.Now()
	myBuild, err := exchange(c, build, tagBuild)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: build exchange: %w", err)
	}
	myProbe, err := exchange(c, probe, tagProbe)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: probe exchange: %w", err)
	}
	res.PartitionDur = time.Since(partStart)

	// Build.
	buildStart := time.Now()
	tab := newTable(myBuild)
	res.BuildDur = time.Since(buildStart)

	// Probe.
	probeStart := time.Now()
	out := tab.probe(myProbe)
	res.ProbeDur = time.Since(probeStart)
	res.LocalMatches = len(out)

	if err := finishStats(c, &res, len(out), len(myBuild)); err != nil {
		return nil, res, err
	}
	res.Elapsed = time.Since(start)
	return out, res, nil
}

// finishStats reduces the global match count and build balance onto rank
// 0, in place (MPI_Reduce via the allocation-free ReduceInto variant).
func finishStats(c *mpi.Comm, res *Result, localMatches, myBuildN int) error {
	counts := []int64{int64(localMatches), int64(myBuildN)}
	if err := mpi.ReduceInto(c, counts, mpi.OpSum, 0); err != nil {
		return err
	}
	maxBuild := []int64{int64(myBuildN)}
	if err := mpi.ReduceInto(c, maxBuild, mpi.OpMax, 0); err != nil {
		return err
	}
	if c.Rank() == 0 {
		res.Matches = counts[0]
		mean := float64(counts[1]) / float64(res.NP)
		if mean > 0 {
			res.Imbalance = float64(maxBuild[0]) / mean
		} else {
			res.Imbalance = 1
		}
	}
	return nil
}

// table is a join's build side in compressed sparse row (CSR) form:
// each distinct key is a group, and group g's payloads are
// payloads[offsets[g]:offsets[g+1]] in the order the build tuples
// arrived. Keys are located through an open-addressing index (linear
// probing at load factor <= 1/2), so a build allocates the same few
// arrays however many distinct keys the relation holds.
type table struct {
	index    []int32 // slot → group+1; 0 marks an empty slot
	keys     []int64 // group → key
	offsets  []int32 // group boundaries into payloads, len(keys)+1
	payloads []int64 // every build payload, grouped by key
}

// newTable builds the table in two passes over tuples: the first
// assigns every tuple its group and counts the group sizes, the second
// scatters the payloads into their groups.
func newTable(tuples []Tuple) *table {
	n := len(tuples)
	t := &table{
		index:    make([]int32, nextPow2(2*n)),
		keys:     make([]int64, 0, n),
		offsets:  make([]int32, n+1),
		payloads: make([]int64, n),
	}
	group := make([]int32, n)
	for i, tup := range tuples {
		g := t.insert(tup.Key)
		group[i] = g
		t.offsets[g+1]++
	}
	ng := len(t.keys)
	t.offsets = t.offsets[:ng+1]
	for g := 0; g < ng; g++ {
		t.offsets[g+1] += t.offsets[g]
	}
	// offsets[g] doubles as group g's fill cursor; once every payload
	// is placed it holds group g's end, and a shift by one restores
	// the starts.
	for i, tup := range tuples {
		g := group[i]
		t.payloads[t.offsets[g]] = tup.Payload
		t.offsets[g]++
	}
	copy(t.offsets[1:], t.offsets[:ng])
	t.offsets[0] = 0
	return t
}

// insert returns key's group, opening a new one on first sight.
func (t *table) insert(key int64) int32 {
	g, slot := t.lookup(key)
	if g < 0 {
		t.keys = append(t.keys, key)
		t.index[slot] = int32(len(t.keys))
		g = int32(len(t.keys) - 1)
	}
	return g
}

// find returns key's group, or -1 when no build tuple has the key.
func (t *table) find(key int64) int32 {
	g, _ := t.lookup(key)
	return g
}

// lookup probes the index for key. It returns key's group and slot, or
// -1 and the empty slot that ended the probe sequence.
func (t *table) lookup(key int64) (int32, int) {
	mask := len(t.index) - 1
	for s := hashSlot(key, len(t.index)); ; s = (s + 1) & mask {
		g := t.index[s]
		if g == 0 {
			return -1, s
		}
		if t.keys[g-1] == key {
			return g - 1, s
		}
	}
}

// group returns the payloads of group g in insertion order.
func (t *table) group(g int32) []int64 {
	return t.payloads[t.offsets[g]:t.offsets[g+1]]
}

// probe joins probe against the table. It counts the matches first and
// then fills a result of exactly that size: probe order, and build
// insertion order within a key.
func (t *table) probe(probe []Tuple) []Pair {
	n := 0
	for _, p := range probe {
		if g := t.find(p.Key); g >= 0 {
			n += int(t.offsets[g+1] - t.offsets[g])
		}
	}
	out := make([]Pair, n)
	i := 0
	for _, p := range probe {
		g := t.find(p.Key)
		if g < 0 {
			continue
		}
		for _, bp := range t.group(g) {
			out[i] = Pair{BuildPayload: bp, ProbePayload: p.Payload}
			i++
		}
	}
	return out
}

// partition packs tuples into one flat key/payload buffer grouped by
// owning rank, keeping input order within an owner: owner d's tuples
// are send[2*bounds[d]:2*bounds[d+1]].
func partition(tuples []Tuple, p int) (send []int64, bounds []int) {
	bounds = make([]int, p+1)
	for _, t := range tuples {
		bounds[hashKey(t.Key, p)+1]++
	}
	for d := 0; d < p; d++ {
		bounds[d+1] += bounds[d]
	}
	next := make([]int, p)
	copy(next, bounds)
	send = make([]int64, 2*len(tuples))
	for _, t := range tuples {
		d := hashKey(t.Key, p)
		i := 2 * next[d]
		send[i], send[i+1] = t.Key, t.Payload
		next[d]++
	}
	return send, bounds
}

// exchange hash-partitions tuples by key and redistributes them with the
// module-level point-to-point pattern (Isend every partition, receive one
// block from every peer). The received wire blocks are held until all
// have arrived, so the result is allocated once at its final size.
func exchange(c *mpi.Comm, tuples []Tuple, tag int) ([]Tuple, error) {
	p, r := c.Size(), c.Rank()
	send, bounds := partition(tuples, p)
	reqs := make([]*mpi.Request, 0, p-1)
	for dst := 0; dst < p; dst++ {
		if dst == r {
			continue
		}
		req, err := mpi.Isend(c, send[2*bounds[dst]:2*bounds[dst+1]], dst, tag)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	n := bounds[r+1] - bounds[r]
	blocks := make([][]byte, 0, p-1)
	for i := 0; i < p-1; i++ {
		b, _, err := c.RecvBytes(mpi.AnySource, tag)
		if err != nil {
			return nil, err
		}
		if len(b)%tupleBytes != 0 {
			return nil, fmt.Errorf("hashjoin: tuple stream of %d bytes is not whole tuples", len(b))
		}
		blocks = append(blocks, b)
		n += len(b) / tupleBytes
	}
	if err := mpi.Waitall(reqs...); err != nil {
		return nil, err
	}
	out := make([]Tuple, 0, n)
	own := send[2*bounds[r] : 2*bounds[r+1]]
	for i := 0; i < len(own); i += 2 {
		out = append(out, Tuple{Key: own[i], Payload: own[i+1]})
	}
	for _, b := range blocks {
		out = decodeTuples(out, b)
		mpi.Release(b)
	}
	return out, nil
}

// decodeTuples appends the key/payload pairs of b — little-endian int64
// words, tupleBytes per tuple — to dst.
func decodeTuples(dst []Tuple, b []byte) []Tuple {
	for i := 0; i+tupleBytes <= len(b); i += tupleBytes {
		dst = append(dst, Tuple{
			Key:     int64(binary.LittleEndian.Uint64(b[i:])),
			Payload: int64(binary.LittleEndian.Uint64(b[i+8:])),
		})
	}
	return dst
}

// Sequential joins the full relations on one process — the reference for
// tests and the scaling baseline.
func Sequential(build, probe []Tuple) []Pair {
	return newTable(build).probe(probe)
}

// RMA build phase: instead of exchanging build tuples with two-sided
// sends and building a local map, every rank deposits its build tuples
// directly into the owning rank's window. The probe side stays
// two-sided, so the equivalence tests compare exactly the phase the
// ISSUE swaps. Two deposit strategies are implemented — they are the
// before and after of the module's measure → explain → optimize study:
//
//   - JoinRMAPerTuple claims a window slot per tuple with
//     CompareAndSwap and Puts the tuple body into it: a distributed
//     open-addressing hash table, and a faithful rendition of the naive
//     one-sided pattern. Every claim is a synchronous round trip, so
//     the build phase pays per-op latency × tuples and loses to the
//     two-sided exchange by an order of magnitude.
//
//   - JoinRMA reserves one contiguous run of slots per owner — a single
//     CompareAndSwap loop on a tail counter — and deposits the whole
//     run with one Put. The runtime coalesces those Puts per target and
//     flushes them as single batch frames at the Fence, so the entire
//     build costs O(ranks) round trips instead of O(tuples), and the
//     one-sided build reaches parity with the two-sided exchange.

// slotBytes is the window footprint of one build tuple: state, key,
// payload — three little-endian int64 words.
const slotBytes = 24

// hashSlot maps a key to its home slot with a different mixer than
// hashKey, so the owner assignment and the in-window position are
// independent.
func hashSlot(k int64, slots int) int {
	x := uint64(k) * 0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x & uint64(slots-1))
}

// nextPow2 returns the smallest power of two >= n (and >= 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// tupleBytes is the window footprint of one deposited tuple in the
// chunk-reserved layout: key and payload, two little-endian int64
// words. The tail counter occupies the first 8 bytes of the region.
const tupleBytes = 16

// JoinRMA executes the distributed hash join with a one-sided build
// phase over an RMA window, using the chunk-reserved deposit: one
// CompareAndSwap loop per owner to reserve a run of slots on the
// owner's tail counter, one Put per owner carrying every tuple bound
// there, one Fence. The Puts coalesce in the runtime's per-target
// batches and cross as single frames, so the build performs O(ranks)
// round trips regardless of relation size. The returned pairs are this
// rank's matches, exactly as Join produces (up to ordering).
func JoinRMA(c *mpi.Comm, build, probe []Tuple) ([]Pair, Result, error) {
	p := c.Size()
	start := time.Now()
	res := Result{NP: p, BuildN: len(build), ProbeN: len(probe)}

	// Pack this rank's deposits by owner, and size the window: after
	// the Allreduce, perOwner[r] is exactly how many tuples rank r will
	// own, so each region is provisioned tight — a tail counter plus
	// that many tuple slots.
	send, bounds := partition(build, p)
	perOwner := make([]int64, p)
	for d := range perOwner {
		perOwner[d] = int64(bounds[d+1] - bounds[d])
	}
	if err := mpi.AllreduceInto(c, perOwner, mpi.OpSum); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma sizing: %w", err)
	}

	buildStart := time.Now()
	win, err := c.WinCreate(8 + int(perOwner[c.Rank()])*tupleBytes)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma window: %w", err)
	}
	// Deposit: reserve a contiguous run of this rank's slots by
	// advancing the owner's tail counter with CAS (the loop converges in
	// at most np attempts: every failure means another rank reserved its
	// run), then Put the whole run at the reserved offset. The kv
	// scratch is reused and Put captures it into the target's batch
	// before returning, so the loop does not allocate per owner beyond
	// the marshal buffer's high-water mark.
	var kv []byte
	for owner := 0; owner < p; owner++ {
		n := int64(bounds[owner+1] - bounds[owner])
		if n == 0 {
			continue
		}
		base := int64(0)
		for {
			old, err := win.CompareAndSwap(owner, 0, base, base+n)
			if err != nil {
				return nil, res, fmt.Errorf("hashjoin: rma reserve: %w", err)
			}
			if old == base {
				break
			}
			base = old
		}
		kv = mpi.AppendMarshal(kv[:0], send[2*bounds[owner]:2*bounds[owner+1]])
		if err := win.Put(owner, 8+int(base)*tupleBytes, kv); err != nil {
			return nil, res, fmt.Errorf("hashjoin: rma put: %w", err)
		}
	}
	if err := win.Fence(); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma fence: %w", err)
	}
	// Scan the local region: the tail counter says how many tuples
	// landed; they are dense from offset 8.
	local := win.Local()
	myBuildN := int(binary.LittleEndian.Uint64(local))
	myBuild := decodeTuples(make([]Tuple, 0, myBuildN), local[8:8+myBuildN*tupleBytes])
	tab := newTable(myBuild)
	res.BuildDur = time.Since(buildStart)

	return probeAndFinish(c, win, tab, probe, &res, start)
}

// JoinRMAPerTuple is the un-optimized one-sided build the module's
// performance study starts from: a distributed open-addressing hash
// table where every tuple claims its own 24-byte slot with
// CompareAndSwap (linear probing on contention) before its body is Put.
// Each claim is a synchronous round trip to the owner, so the build
// phase pays per-op latency × tuples — the behavior whose profile
// (rma-target-wait dominating) motivates the batched deposit JoinRMA
// uses. It produces output identical to Join and JoinRMA; it is kept so
// the before/after gap stays reproducible.
func JoinRMAPerTuple(c *mpi.Comm, build, probe []Tuple) ([]Pair, Result, error) {
	p := c.Size()
	start := time.Now()
	res := Result{NP: p, BuildN: len(build), ProbeN: len(probe)}

	// Size the table: every rank counts its build tuples per owner, an
	// Allreduce sums the vector, and the window is provisioned for twice
	// the most loaded owner (load factor <= 0.5, uniform across ranks so
	// slot arithmetic needs no per-target metadata).
	perOwner := make([]int64, p)
	for _, t := range build {
		perOwner[hashKey(t.Key, p)]++
	}
	if err := mpi.AllreduceInto(c, perOwner, mpi.OpSum); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma sizing: %w", err)
	}
	maxLoad := int64(1)
	for _, n := range perOwner {
		if n > maxLoad {
			maxLoad = n
		}
	}
	slots := nextPow2(int(2 * maxLoad))

	buildStart := time.Now()
	win, err := c.WinCreate(slots * slotBytes)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma window: %w", err)
	}
	// Deposit: claim a slot at the owner with CAS (linear probing on
	// contention), then Put the tuple body. The kv scratch is reused, so
	// the deposit loop does not allocate per tuple.
	var kv []byte
	for _, t := range build {
		owner := hashKey(t.Key, p)
		slot := hashSlot(t.Key, slots)
		for {
			old, err := win.CompareAndSwap(owner, slot*slotBytes, 0, 1)
			if err != nil {
				return nil, res, fmt.Errorf("hashjoin: rma claim: %w", err)
			}
			if old == 0 {
				break
			}
			slot = (slot + 1) & (slots - 1)
		}
		kv = mpi.AppendMarshal(kv[:0], []int64{t.Key, t.Payload})
		if err := win.Put(owner, slot*slotBytes+8, kv); err != nil {
			return nil, res, fmt.Errorf("hashjoin: rma put: %w", err)
		}
	}
	if err := win.Fence(); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma fence: %w", err)
	}
	// Scan the local region: every claimed slot holds one build tuple
	// owned by this rank. A counting pass sizes the tuple list exactly.
	local := win.Local()
	myBuildN := 0
	for s := 0; s < slots; s++ {
		if binary.LittleEndian.Uint64(local[s*slotBytes:]) != 0 {
			myBuildN++
		}
	}
	myBuild := make([]Tuple, 0, myBuildN)
	for s := 0; s < slots; s++ {
		if b := local[s*slotBytes:]; binary.LittleEndian.Uint64(b) != 0 {
			myBuild = decodeTuples(myBuild, b[8:slotBytes])
		}
	}
	tab := newTable(myBuild)
	res.BuildDur = time.Since(buildStart)

	return probeAndFinish(c, win, tab, probe, &res, start)
}

// probeAndFinish is the tail both one-sided joins share: the two-sided
// probe exchange, the local probe, window retirement and the global
// reductions.
func probeAndFinish(c *mpi.Comm, win *mpi.Win, tab *table, probe []Tuple, res *Result, start time.Time) ([]Pair, Result, error) {
	partStart := time.Now()
	myProbe, err := exchange(c, probe, tagProbe)
	if err != nil {
		return nil, *res, fmt.Errorf("hashjoin: probe exchange: %w", err)
	}
	res.PartitionDur = time.Since(partStart)

	probeStart := time.Now()
	out := tab.probe(myProbe)
	res.ProbeDur = time.Since(probeStart)
	res.LocalMatches = len(out)

	if err := win.Free(); err != nil {
		return nil, *res, fmt.Errorf("hashjoin: rma free: %w", err)
	}
	if err := finishStats(c, res, len(out), len(tab.payloads)); err != nil {
		return nil, *res, err
	}
	res.Elapsed = time.Since(start)
	return out, *res, nil
}
