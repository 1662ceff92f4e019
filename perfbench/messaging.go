package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

const (
	msgRanks = 4
	// warmOps ops run untimed at the start of every messaging world
	// (a multiple of the rotation, so timing starts on its first step).
	warmOps = 1 << 15
	// reduceLen is the allreduce length; its last element carries rank
	// 0's stop decision, so ending the loop adds no calls to the mix.
	reduceLen = 64
	// msgWindow timed ops (a multiple of the rotation) make one
	// throughput window. Its last op is an allreduce, where rank 0 may
	// stop the loop, so a phase measures whole windows only.
	msgWindow = 1 << 16
	gatherTag = 7
	ringTag   = 5
)

// The rotation of small-message steps, in the order one op of each
// runs. Its primitives are the curriculum's most-called classes in
// mix.json: CAS/Put from the one-sided join, small point-to-point, then
// small collectives. A rank checks its neighbour's one-sided deposit on
// the ring shift right after it, which receives from that neighbour;
// the neighbour cannot deposit again before the allreduce, which needs
// every rank's contribution.
var rotation = [...]string{"anysource-gather", "rma-cas-put-flush", "ring-sendrecv", "allreduce-64"}

// Indices of the rotation's steps.
const (
	opGather = iota
	opRMA
	opRing
	opReduce
)

// messaging runs one long-lived 4-rank world in which rank 0 times each
// op of the rotation. Every rank checks the values it receives.
type messaging struct {
	seed  int64
	split split
}

func newMessaging(seed int64) *messaging { return &messaging{seed: seed} }

// val is the value rank r contributes at op k: seeded, and small enough
// that sums of four stay exact in float64.
func (w *messaging) val(k, r int) int64 {
	x := uint64(w.seed)*0x9e3779b97f4a7c15 + uint64(k*msgRanks+r+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 44) // 20 bits
}

// setup brings up a world, creates its window and runs the warm-up ops.
func (w *messaging) setup() error { return w.world(nil) }

func (w *messaging) run(p *phase) error {
	if p.tr != nil {
		p.tr.opNames = rotation[:]
	}
	return w.world(p)
}

// rankState is one rank's buffers and checking state.
type rankState struct {
	c      *mpi.Comm
	win    *mpi.Win
	one    []int64
	in     []int64
	reduce []float64
	word   [8]byte
	bad    int64 // ops on this rank that saw a wrong value
}

// world runs warmOps untimed ops and, with a phase, timed ops until
// rank 0 decides the phase is done. The world's counters are read once
// mpi.Run has returned.
func (w *messaging) world(p *phase) error {
	var c0 *mpi.Comm
	var ops int64
	var otherBad atomic.Int64
	var opts []mpi.Option
	warm := warmOps
	if p != nil && p.tr != nil {
		// A traced world follows an untraced one in the same process,
		// so it starts warm; its hook then counts timed ops only.
		opts = append(opts, mpi.WithHook(p.tr))
		warm = 0
	}
	err := mpi.Run(msgRanks, func(c *mpi.Comm) error {
		win, err := c.WinCreate(16)
		if err != nil {
			return err
		}
		s := &rankState{c: c, win: win, one: make([]int64, 1), in: make([]int64, 1), reduce: make([]float64, reduceLen)}
		k := 0
		for ; k < warm; k++ {
			if _, err := w.step(s, k, false); err != nil {
				return err
			}
		}
		if p != nil {
			if c.Rank() == 0 {
				c0 = c
				p.begin()
			}
			for t, stop := 0, false; !stop; k, t = k+1, t+1 {
				if stop, err = w.timedStep(s, p, k, t); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			ops = int64(k)
		} else {
			otherBad.Add(s.bad)
		}
		return win.Free()
	}, opts...)
	if err != nil {
		return fmt.Errorf("messaging: %w", err)
	}
	switch {
	case p == nil && otherBad.Load() > 0:
		return fmt.Errorf("messaging: %d warm-up ops saw wrong values", otherBad.Load())
	case p == nil:
		return nil
	}
	p.failed = min(p.failed+otherBad.Load(), p.attempted)
	if p.tr != nil {
		snap := c0.Stats()
		w.split.countOps += float64(ops)
		w.split.wire += float64(snap.TotalWire)
		w.split.msgs += float64(snap.TotalMsgs)
	}
	return nil
}

// timedStep runs op k, the phase's t-th, on any rank; rank 0 times it,
// records it and, on the window's closing allreduce, decides whether
// the phase is done.
func (w *messaging) timedStep(s *rankState, p *phase, k, t int) (bool, error) {
	tr := p.tr
	if tr != nil {
		tr.setRankOp(s.c.Rank(), int64(k))
	}
	if s.c.Rank() != 0 {
		return w.step(s, k, false)
	}
	bad := s.bad
	start := time.Now()
	stop, err := w.step(s, k, t%msgWindow == msgWindow-1 && p.done())
	if err != nil {
		return false, err
	}
	if t%msgWindow == msgWindow-1 {
		defer p.endWindow()
	}
	if tr == nil {
		p.record(time.Since(start), s.bad == bad)
		return stop, nil
	}
	d := tr.interval(int64(k), spanOp, k%len(rotation), -1, start, time.Now())
	p.record(d, s.bad == bad)
	// Rank 0's own work in the op (filling buffers, checking values) is
	// the op time its primitives do not cover.
	sp := &w.split
	sp.opNs += float64(d)
	sp.coveredNs += float64(d)
	sp.kernelNs += float64(d - tr.takeRankDur(0))
	return stop, nil
}

// step runs op k of the rotation on one rank. wantStop is rank 0's stop
// decision, shared through the allreduce; step reports whether the loop
// ends after this op.
func (w *messaging) step(s *rankState, k int, wantStop bool) (bool, error) {
	c := s.c
	r, n := c.Rank(), c.Size()
	next, prev := (r+1)%n, (r+n-1)%n
	switch k % len(rotation) {
	case opGather: // gather of 8-byte sends received with AnySource
		if r != 0 {
			s.one[0] = w.val(k, r)
			return false, mpi.Send(c, s.one, 0, gatherTag)
		}
		// Recv, not RecvInto: the curriculum's AnySource receives
		// (comm.RandomAnySource) allocate a fresh slice per message.
		var seen uint
		ok := true
		for j := 1; j < n; j++ {
			got, st, err := mpi.Recv[int64](c, mpi.AnySource, gatherTag)
			if err != nil {
				return false, err
			}
			ok = ok && len(got) == 1 && got[0] == w.val(k, st.Source) && seen&(1<<st.Source) == 0
			seen |= 1 << st.Source
		}
		s.check(ok)
	case opRMA: // compare-and-swap, put and flush on the neighbour's window
		var prevSwap int64
		if k >= len(rotation) {
			prevSwap = w.val(k-len(rotation), r)
		}
		old, err := s.win.CompareAndSwap(next, 0, prevSwap, w.val(k, r))
		if err != nil {
			return false, err
		}
		binary.LittleEndian.PutUint64(s.word[:], uint64(-w.val(k, r)))
		if err := s.win.Put(next, 8, s.word[:]); err != nil {
			return false, err
		}
		if err := s.win.Flush(); err != nil {
			return false, err
		}
		s.check(old == prevSwap)
	case opRing: // ring shift; also check the neighbour's last one-sided deposit
		s.one[0] = w.val(k, r)
		got, _, err := mpi.SendrecvInto(c, s.one, next, ringTag, prev, ringTag, s.in)
		if err != nil {
			return false, err
		}
		dep := k - opRing + opRMA
		local := s.win.Local()
		s.check(len(got) == 1 && got[0] == w.val(k, prev) &&
			int64(binary.LittleEndian.Uint64(local[0:])) == w.val(dep, prev) &&
			int64(binary.LittleEndian.Uint64(local[8:])) == -w.val(dep, prev))
	case opReduce: // 64-float64 allreduce; the last element carries the stop flag
		v := w.val(k, r)
		for i := range s.reduce {
			s.reduce[i] = float64(v + int64(i))
		}
		s.reduce[reduceLen-1] = 0
		if r == 0 && wantStop {
			s.reduce[reduceLen-1] = 1
		}
		if err := mpi.AllreduceInto(c, s.reduce, mpi.OpSum[float64]); err != nil {
			return false, err
		}
		var sum int64
		for q := 0; q < n; q++ {
			sum += w.val(k, q)
		}
		ok := true
		for i := 0; i < reduceLen-1; i++ {
			ok = ok && s.reduce[i] == float64(sum+int64(n*i))
		}
		flag := s.reduce[reduceLen-1]
		s.check(ok && (flag == 0 || flag == 1))
		return flag == 1, nil
	}
	return false, nil
}

func (s *rankState) check(ok bool) {
	if !ok {
		s.bad++
	}
}

func (w *messaging) layers() *split { return &w.split }
