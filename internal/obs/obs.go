// Package obs is the array's observability substrate: allocation-free
// atomic counters, bounded latency histograms, gauges, and a ring-buffer
// event log for health-state transitions, gathered into a Registry whose
// Snapshot serializes to JSON for the raidxnode /stats endpoint and the
// raidxctl stats command.
//
// Design constraints, in order:
//
//   - The hot path (per-I/O counting, latency observation) must not
//     allocate and must not take locks. Counters and histogram buckets
//     are single atomic adds; instruments are resolved by name once, at
//     component construction, never per operation.
//   - Everything is nil-safe. A component built without a registry holds
//     nil instrument pointers and every method is a no-op, so
//     instrumentation never forces configuration.
//   - Snapshots are read-only and internally consistent enough for
//     monitoring (counters are read individually, not under a global
//     lock — exactness across instruments is not promised).
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (zero for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets bounds a Histogram: bucket b counts observations whose
// microsecond value has bit length b, i.e. durations in
// [2^(b-1) µs, 2^b µs). Bucket 0 holds sub-microsecond observations and
// the last bucket absorbs everything from ~36 minutes up, so the
// histogram never grows and never allocates.
const histBuckets = 32

// Histogram is a bounded latency histogram with exponential
// (power-of-two microsecond) buckets. Observe is a pair of atomic adds;
// percentiles are computed from snapshots with ~2x resolution, ample
// for p50/p95/p99 monitoring. A nil *Histogram discards observations.
//
// A histogram optionally carries one exemplar: the trace ID of a recent
// slow observation (ObserveTraced), so a dashboard showing a p99 can
// link straight to the trace that explains it.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64

	exDur atomic.Int64  // duration of the current exemplar (ns)
	exAt  atomic.Int64  // unix-nano when it was recorded
	exID  atomic.Uint64 // its trace ID (0 = no exemplar)
}

// exemplarTTL bounds how long an exemplar is defended by its duration:
// after this long even a faster traced observation replaces it, so the
// exemplar tracks *recent* slowness rather than the all-time maximum.
const exemplarTTL = 60 * time.Second

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// ObserveTraced records one duration and offers traceID as an
// exemplar. The exemplar slot keeps the slowest traced observation of
// the last exemplarTTL; a zero traceID degrades to plain Observe. The
// fast path (observation not slower than the current exemplar, which is
// still fresh) adds two atomic loads over Observe.
func (h *Histogram) ObserveTraced(d time.Duration, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(d)
	if traceID == 0 {
		return
	}
	now := time.Now().UnixNano()
	if int64(d) <= h.exDur.Load() && now-h.exAt.Load() < int64(exemplarTTL) {
		return
	}
	// Composite store: dur first (it defends the slot), ID last. A racing
	// slower observation may interleave, leaving a mixed (dur, id) pair
	// for one snapshot — exemplars are diagnostics, not accounting, and
	// the next slow op repairs it.
	h.exDur.Store(int64(d))
	h.exAt.Store(now)
	h.exID.Store(traceID)
}

// Exemplar links a histogram to one recent slow traced operation.
type Exemplar struct {
	TraceID uint64        `json:"trace_id,omitempty"`
	Dur     time.Duration `json:"dur_ns,omitempty"`
	At      int64         `json:"at_unix_ns,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Exemplar = Exemplar{
		TraceID: h.exID.Load(),
		Dur:     time.Duration(h.exDur.Load()),
		At:      h.exAt.Load(),
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count    int64
	Sum      time.Duration
	Buckets  [histBuckets]int64
	Exemplar Exemplar
}

// Sub reports the histogram delta s - prev: the observations that
// landed between the two snapshots. Counters are monotonic, so the
// difference is itself a valid snapshot — this is how windowed
// percentiles are derived from the SLO tracker's ring. The exemplar of
// the newer snapshot is kept.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := s
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	return out
}

// Merge adds another snapshot bucket-wise (cross-node aggregation: the
// power-of-two edges are shared by construction). The slower exemplar
// wins.
func (s HistogramSnapshot) Merge(other HistogramSnapshot) HistogramSnapshot {
	out := s
	out.Count += other.Count
	out.Sum += other.Sum
	for i := range out.Buckets {
		out.Buckets[i] += other.Buckets[i]
	}
	if other.Exemplar.Dur > out.Exemplar.Dur {
		out.Exemplar = other.Exemplar
	}
	return out
}

// CountAbove reports how many observations fell in buckets strictly
// above d — buckets whose full range exceeds d. With power-of-two
// edges this is exact when d is an edge and conservative (over-counts)
// otherwise, the safe direction for SLO burn detection.
func (s HistogramSnapshot) CountAbove(d time.Duration) int64 {
	var below int64
	for b := 0; b < histBuckets; b++ {
		if bucketUpper(b) > d {
			break
		}
		below += s.Buckets[b]
	}
	return s.Count - below
}

// FractionAbove is CountAbove over Count (0 for an empty snapshot).
func (s HistogramSnapshot) FractionAbove(d time.Duration) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.CountAbove(d)) / float64(s.Count)
}

// bucketUpper is the (exclusive) upper edge of bucket b.
func bucketUpper(b int) time.Duration {
	if b <= 0 {
		return time.Microsecond
	}
	return time.Duration(uint64(1)<<uint(b)) * time.Microsecond
}

// Mean reports the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Percentile reports the upper edge of the bucket containing the p-th
// percentile observation (p in [0,100]). Resolution is one power of two
// in microseconds.
func (s HistogramSnapshot) Percentile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for b, n := range s.Buckets {
		seen += n
		if seen > rank {
			return bucketUpper(b)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Max reports the upper edge of the highest non-empty bucket.
func (s HistogramSnapshot) Max() time.Duration {
	for b := histBuckets - 1; b >= 0; b-- {
		if s.Buckets[b] != 0 {
			return bucketUpper(b)
		}
	}
	return 0
}

// Gauge is a read-on-demand instrument: a callback sampled at snapshot
// time, for values that are cheaper to ask for than to track (queue
// backlogs, pool depths).
type Gauge func() int64

// Registry is a named collection of instruments plus one event log.
// Lookups take a lock and may allocate; callers resolve instruments once
// at construction and hold the pointers. All methods are safe on a nil
// *Registry (they return nil instruments, which in turn discard
// updates).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]Gauge
	events   *EventLog
}

// NewRegistry creates an empty registry with a DefaultEventCap event
// log.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]Gauge{},
		events:   NewEventLog(DefaultEventCap),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterGauge installs (or replaces) the named gauge callback.
func (r *Registry) RegisterGauge(name string, g Gauge) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// Events returns the registry's event log (nil for a nil registry).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Event appends one event to the registry's log.
func (r *Registry) Event(kind EventKind, subject, detail string) {
	if r != nil {
		r.events.Append(kind, subject, detail)
	}
}
