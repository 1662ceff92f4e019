package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// maxRanks bounds the per-rank accumulators; every workload runs at
// most four ranks.
const maxRanks = 8

// spanCap bounds the spans kept in memory. The per-layer metrics come
// from the atomic buckets, which see every event; the spans are the
// explanation of a run's first ops, written out when the run ends.
const spanCap = 1 << 16

// Size classes of the primitive histogram.
var sizeClasses = [...]string{"<=1KiB", "<=64KiB", ">64KiB"}

func sizeClass(bytes int) int {
	switch {
	case bytes <= 1<<10:
		return 0
	case bytes <= 64<<10:
		return 1
	}
	return 2
}

// Span kinds: the root span of an op, one rank's body inside a launched
// world, one primitive event, and one scheduler call.
const (
	spanOp = iota
	spanRank
	spanPrim
	spanCall
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's base; op is the id of the root op span the interval belongs
// to, and name indexes the name table of its kind.
type span struct {
	op, start, dur, blocked int64
	kind                    uint8
	name                    uint16
	rank                    int16
}

// primBucket aggregates one rank's events of one primitive, padded to
// a cache line.
type primBucket struct {
	calls, dur, blocked, queued atomic.Int64
	_                           [32]byte
}

// rankTrace is one rank's accumulators. The padding keeps two ranks'
// counters off a shared cache line.
type rankTrace struct {
	prims []primBucket
	dur   atomic.Int64 // Σ primitive Dur since reset
	op    atomic.Int64 // op id the rank is working on
	_     [64]byte
}

// tracer is the traced run's mpi.Hook and span store. Event does no
// formatting and takes no lock: it adds into the calling rank's
// per-primitive atomics and, while slots remain, claims a span slot
// with one atomic increment.
type tracer struct {
	base  time.Time
	ranks [maxRanks]rankTrace
	sizes [][len(sizeClasses)]atomic.Int64 // calls by primitive × size class; only for the mix

	spans     []span
	next      atomic.Int64
	opNames   []string // root span names, indexed by span.name
	callNames []string
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, spanCap)}
	for r := range t.ranks {
		t.ranks[r].prims = make([]primBucket, len(mpi.Primitives()))
	}
	return t
}

// newMixTracer returns a tracer that also counts calls by size class.
func newMixTracer() *tracer {
	t := newTracer()
	t.sizes = make([][len(sizeClasses)]atomic.Int64, len(mpi.Primitives()))
	return t
}

// isMirror reports a target-side mirror of a one-sided op: emitted with
// the target's rank, no duration and only a receive-side flow id. It is
// skipped, so calls_per_op counts the calls ranks made.
func isMirror(e mpi.Event) bool {
	return e.Prim >= mpi.PrimRMAPut && e.Prim <= mpi.PrimRMAWinFree &&
		e.Dur == 0 && e.SendID == 0 && e.RecvID != 0
}

// Event implements mpi.Hook.
func (t *tracer) Event(e mpi.Event) {
	if isMirror(e) {
		return
	}
	rt := &t.ranks[e.Rank%maxRanks]
	b := &rt.prims[e.Prim]
	b.calls.Add(1)
	b.dur.Add(int64(e.Dur))
	b.blocked.Add(int64(e.Blocked))
	b.queued.Add(int64(e.Queued))
	rt.dur.Add(int64(e.Dur))
	if t.sizes != nil {
		t.sizes[e.Prim][sizeClass(e.Bytes)].Add(1)
	}
	t.add(span{
		op: rt.op.Load(), start: int64(e.Start.Sub(t.base)), dur: int64(e.Dur),
		blocked: int64(e.Blocked), kind: spanPrim, name: uint16(e.Prim), rank: int16(e.Rank),
	})
}

// add claims the next span slot; once the slots are used up, spans are
// dropped without touching the shared counter.
func (t *tracer) add(s span) {
	if t.next.Load() >= spanCap {
		return
	}
	if i := t.next.Add(1) - 1; i < spanCap {
		t.spans[i] = s
	}
}

// interval records a span of the given kind and returns its length.
func (t *tracer) interval(op int64, kind uint8, name int, rank int, start, end time.Time) time.Duration {
	d := end.Sub(start)
	t.add(span{op: op, start: int64(start.Sub(t.base)), dur: int64(d), kind: kind, name: uint16(name), rank: int16(rank)})
	return d
}

// setOp marks every rank as working on op id.
func (t *tracer) setOp(id int64) {
	for r := range t.ranks {
		t.ranks[r].op.Store(id)
	}
}

// setRankOp marks rank as working on op id.
func (t *tracer) setRankOp(rank int, id int64) { t.ranks[rank%maxRanks].op.Store(id) }

// opOf returns the op id rank is working on.
func (t *tracer) opOf(rank int) int64 { return t.ranks[rank%maxRanks].op.Load() }

// takeRankDur returns and resets rank's primitive time.
func (t *tracer) takeRankDur(rank int) time.Duration {
	return time.Duration(t.ranks[rank%maxRanks].dur.Swap(0))
}

// classes groups the primitives for the per-layer split.
var classes = []struct {
	name  string
	prims []mpi.Primitive
}{
	{"p2p", []mpi.Primitive{mpi.PrimSend, mpi.PrimRecv, mpi.PrimIsend, mpi.PrimIrecv, mpi.PrimWait,
		mpi.PrimSendrecv, mpi.PrimProbe, mpi.PrimIprobe, mpi.PrimGetCount}},
	{"coll", []mpi.Primitive{mpi.PrimBcast, mpi.PrimScatter, mpi.PrimScatterv, mpi.PrimGather,
		mpi.PrimGatherv, mpi.PrimAllgather, mpi.PrimReduce, mpi.PrimAllreduce, mpi.PrimScan,
		mpi.PrimAlltoall, mpi.PrimAlltoallv, mpi.PrimBarrier, mpi.PrimReduceScatter}},
	{"icoll", []mpi.Primitive{mpi.PrimIallreduce, mpi.PrimIbcast, mpi.PrimIreduce, mpi.PrimIbarrier,
		mpi.PrimIallgather, mpi.PrimWaitColl}},
	{"rma", []mpi.Primitive{mpi.PrimRMAPut, mpi.PrimRMAGet, mpi.PrimRMAAcc, mpi.PrimRMACas,
		mpi.PrimRMAFence, mpi.PrimRMALock, mpi.PrimRMAUnlock, mpi.PrimRMAFlush,
		mpi.PrimRMAWinCreate, mpi.PrimRMAWinFree}},
}

// mpiMetrics returns the runtime layer's per-class calls, self and
// blocked time over ops, plus the queued time per op.
func (t *tracer) mpiMetrics(ops float64) []metric {
	var out []metric
	var queued int64
	for _, cl := range classes {
		var calls, dur, blocked int64
		for r := range t.ranks {
			for _, p := range cl.prims {
				b := &t.ranks[r].prims[p]
				calls += b.calls.Load()
				dur += b.dur.Load()
				blocked += b.blocked.Load()
				queued += b.queued.Load()
			}
		}
		n := float64(calls)
		out = append(out,
			metric{"mpi." + cl.name + ".calls_per_op", ratio(n, ops), "calls/op"},
			metric{"mpi." + cl.name + ".self_ns", ratio(float64(dur-blocked), n), "ns/call"},
			metric{"mpi." + cl.name + ".blocked_ns", ratio(float64(blocked), n), "ns/call"},
		)
	}
	return append(out, metric{"mpi.queued_ms_per_op", ratio(float64(queued)/1e6, ops), "ms/op"})
}

// mixEntry is one row of the primitive histogram.
type mixEntry struct {
	Prim  string  `json:"prim"`
	Size  string  `json:"size"`
	Calls int64   `json:"calls"`
	Share float64 `json:"share"`
}

// mix returns the calls by primitive × size class, largest first.
func (t *tracer) mix() []mixEntry {
	var out []mixEntry
	var total int64
	for p := range t.sizes {
		for c := range sizeClasses {
			if n := t.sizes[p][c].Load(); n > 0 {
				out = append(out, mixEntry{Prim: mpi.Primitive(p).String(), Size: sizeClasses[c], Calls: n})
				total += n
			}
		}
	}
	for i := range out {
		out[i].Share = float64(out[i].Calls) / float64(total)
	}
	sortMix(out)
	return out
}

// writeChrome writes the kept spans as a Chrome trace (one process,
// one thread per rank; the benchmark's own spans on thread -1), so a
// run opens in Perfetto. Each span carries its op id; the run's
// environment rides in otherData.
func (t *tracer) writeChrome(path, env string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	n := min(t.next.Load(), spanCap)
	for i, s := range t.spans[:int(n)] {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"blocked_ns":%d}}`,
			t.spanName(s), [...]string{"op", "rank", "mpi", "sched"}[s.kind], s.rank,
			float64(s.start)/1e3, float64(s.dur)/1e3, s.op, s.blocked)
	}
	fmt.Fprintf(w, "],\"otherData\":{\"env\":%s,\"spans\":%d,\"dropped\":%d}}\n", env, n, t.next.Load()-n)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func (t *tracer) spanName(s span) string {
	switch s.kind {
	case spanOp:
		return t.opNames[s.name]
	case spanRank:
		return fmt.Sprintf("rank %d", s.rank)
	case spanPrim:
		return mpi.Primitive(s.name).String()
	}
	return t.callNames[s.name]
}
