package main

import (
	"sort"
	"sync"
	"time"
)

// opKind classifies a user operation. Reads and writes carry a latency;
// meta operations (mkdir, stat, readdir, remove) count toward ops/s only.
type opKind int

const (
	kRead opKind = iota
	kWrite
	kMeta
	nKinds
)

// linePad separates per-client state in memory. Clients update their
// own counters on every operation; two clients' counters in one cache
// line (or one prefetched pair of lines) would bounce it between cores,
// and how much that costs depends on where the host happens to place
// the two vCPUs — noise the harness would add to a sub-microsecond op.
type linePad [128]byte

// padded is a per-client value that shares no cache line with the next.
type padded[T any] struct {
	v T
	_ linePad
}

// tally is one client's record of one segment. Each client owns its
// tally, so the hot loop takes no lock.
type tally struct {
	ops       [nKinds]int64
	bytes     [nKinds]int64
	keepLat   bool
	lat       [2][]float64 // µs per acknowledged read / write, if keepLat
	attempted int64
	failed    int64
	_         linePad
}

// done records one finished operation. bad is the number of blocks (or
// files) whose contents did not verify; an error, a refusal or any bad
// block makes it a failed op.
func (t *tally) done(k opKind, bytes int64, t0, t1 time.Time, bad int, err error) {
	t.attempted++
	if err != nil || bad > 0 {
		t.failed++
		return
	}
	t.ops[k]++
	t.bytes[k] += bytes
	if t.keepLat && k < kMeta {
		t.lat[k] = append(t.lat[k], float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
}

// seg is one timed stretch of a workload, all clients together.
type seg struct {
	degraded bool // array members were failed while it ran
	dur      time.Duration
	cpu      float64 // process CPU seconds spent while it ran
	ops      [nKinds]int64
	bytes    [nKinds]int64
	lat      [2][]float64
}

// account totals attempts and failures over a whole run, timed or not.
// It also keeps the per-client tallies between segments, so the timed
// loop appends latencies into arrays that already have their capacity
// and the harness adds no garbage of its own to the program's.
//
// Latencies are kept only when lat is set, which the reference window of
// the traced run does for the tail.* metrics. An end-to-end run reports
// none, and eight bytes per operation (30 MiB over a session_cache run)
// would be a third of that workload's peak_rss_mib and all of its
// run-to-run spread.
type account struct {
	attempted, failed int64
	lat               bool
	tallies           []tally
}

// step performs exactly one user operation for client c and returns the
// time it completed (the loop reuses that reading for its deadline
// check, so an op costs two clock reads, not three).
type step func(c int, t *tally) time.Time

// runSeg is the closed loop: clients goroutines each issue their next
// operation as soon as the previous one returns, until dur has elapsed.
// flush, when non-nil, then runs inside the timed stretch, so work a
// layer moved to a background lane or a write-back queue still counts
// against throughput; op latency excludes it, because that is the
// acknowledgement the caller saw.
func runSeg(dur time.Duration, clients int, fn step, flush func() error, acc *account) seg {
	if len(acc.tallies) < clients {
		acc.tallies = make([]tally, clients)
	}
	tallies := acc.tallies[:clients]
	for i := range tallies {
		t := &tallies[i]
		t.ops, t.bytes, t.attempted, t.failed = [nKinds]int64{}, [nKinds]int64{}, 0, 0
		t.keepLat = acc.lat
		t.lat[0], t.lat[1] = t.lat[0][:0], t.lat[1][:0]
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for now := start; now.Before(deadline); {
				now = fn(c, t)
			}
		}(c)
	}
	wg.Wait()
	var flushErr error
	if flush != nil {
		flushErr = flush()
	}
	s := seg{dur: time.Since(start), cpu: cpuSeconds() - cpu0}
	if flush != nil {
		acc.attempted++
		if flushErr != nil {
			acc.failed++
		}
	}
	for i := range tallies {
		t := &tallies[i]
		acc.attempted += t.attempted
		acc.failed += t.failed
		for k := opKind(0); k < nKinds; k++ {
			s.ops[k] += t.ops[k]
			s.bytes[k] += t.bytes[k]
		}
		for k := 0; k < 2; k++ {
			s.lat[k] = append(s.lat[k], t.lat[k]...)
		}
	}
	return s
}

// samples maps a metric name to its per-round values.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// addRound turns one round — the i-th slice of every phase of a
// workload — into one sample per metric:
//
//	write_mbps          user bytes written ÷ time of the segments that wrote
//	read_mbps           same for reads, healthy segments only
//	degraded_read_mbps  same, segments that ran with failed members
//	ops_per_s           all operations ÷ all time
//	cpu_s_per_gib       process CPU seconds ÷ GiB of user data moved
//	*_p50_us, *_p99_us  over every read / write of the round
//
// A metric whose segments are absent from the round gets no sample.
func (s samples) addRound(round []seg) {
	var wBytes, rBytes, dBytes int64
	var wDur, rDur, dDur, allDur time.Duration
	var allOps, allBytes int64
	var cpu float64
	var lat [2][]float64
	for _, g := range round {
		allDur += g.dur
		cpu += g.cpu
		allBytes += g.bytes[kRead] + g.bytes[kWrite]
		for k := opKind(0); k < nKinds; k++ {
			allOps += g.ops[k]
		}
		if g.bytes[kWrite] > 0 {
			wBytes += g.bytes[kWrite]
			wDur += g.dur
		}
		if g.bytes[kRead] > 0 {
			if g.degraded {
				dBytes += g.bytes[kRead]
				dDur += g.dur
			} else {
				rBytes += g.bytes[kRead]
				rDur += g.dur
			}
		}
		for k := 0; k < 2; k++ {
			lat[k] = append(lat[k], g.lat[k]...)
		}
	}
	mbps := func(b int64, d time.Duration) float64 { return float64(b) / 1e6 / d.Seconds() }
	if wDur > 0 {
		s.add("write_mbps", mbps(wBytes, wDur))
	}
	if rDur > 0 {
		s.add("read_mbps", mbps(rBytes, rDur))
	}
	if dDur > 0 {
		s.add("degraded_read_mbps", mbps(dBytes, dDur))
	}
	if allDur > 0 {
		s.add("ops_per_s", float64(allOps)/allDur.Seconds())
	}
	if allBytes > 0 {
		s.add("cpu_s_per_gib", cpu/(float64(allBytes)/(1<<30)))
	}
	for k, name := range [2]string{"read", "write"} {
		if len(lat[k]) == 0 {
			continue
		}
		sort.Float64s(lat[k])
		s.add(name+"_p50_us", percentile(lat[k], 50))
		s.add(name+"_p99_us", percentile(lat[k], 99))
	}
}
