// Package trace is the array's per-request tracing substrate:
// lightweight, always-on sampled span recording across the whole SIOS
// data path (array op → striped fan-out → CDD client call → transport
// frame → remote manager → disk model).
//
// Aggregate counters and histograms (internal/obs) say *that* a p99
// exists; traces say *where the time went* for one specific slow
// operation — local disk vs. remote hop vs. retry backoff vs. mirror
// failover. The design follows the same constraints as obs:
//
//   - Recording is allocation-free on the hot path: spans land in a
//     fixed-size ring of slots, allocated by the first span recorded (a
//     tracer that never records holds none); names and subjects are
//     static or pre-computed strings; claiming a slot is one atomic add
//     plus one uncontended per-slot lock (the lock makes snapshots
//     race-free under the race detector without a seqlock).
//   - Everything is nil-safe. Starting a span from an untraced context
//     (or a nil tracer) returns a no-op Handle and the original
//     context, so instrumented code never branches on configuration.
//   - Sampling bounds the cost: a Tracer records 1-in-SampleEvery new
//     traces; an unsampled operation pays one atomic add and nothing
//     else. Resumed traces (arriving over the wire) are always
//     recorded — the client already made the sampling decision.
//
// Completed traces whose root span exceeds a configurable threshold are
// promoted to a bounded slow log, surviving ring wrap-around until
// pushed out by newer slow traces.
package trace

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end operation across processes.
type TraceID uint64

// SpanID identifies one span within a trace. IDs are allocated from a
// randomly-seeded per-process counter, so spans recorded by different
// processes for the same trace do not collide when merged.
type SpanID uint64

// Span is one timed section of a trace. Spans form a tree through
// Parent; the root (or a subtree top resumed from the wire) has Top set.
type Span struct {
	Trace   TraceID `json:"trace"`
	ID      SpanID  `json:"id"`
	Parent  SpanID  `json:"parent,omitempty"`
	Top     bool    `json:"top,omitempty"`
	Name    string  `json:"name"`
	Subject string  `json:"subject,omitempty"`
	// Val is an op-defined annotation: bytes moved for I/O spans, the
	// attempt number for retry spans, the fan-out width for par spans.
	Val   int64         `json:"val,omitempty"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Err   string        `json:"err,omitempty"`
	// Origin names the process that recorded the span; set only when a
	// span was merged in from another node's tracer.
	Origin string `json:"origin,omitempty"`
}

// End reports when the span finished.
func (s Span) End() time.Time { return s.Start.Add(s.Dur) }

// Trace is one assembled operation: the root span plus every span
// recorded for its TraceID, start-ordered.
type Trace struct {
	ID    TraceID `json:"id"`
	Root  Span    `json:"root"`
	Spans []Span  `json:"spans"`
}

// Defaults for Config zero fields.
const (
	DefaultRing          = 4096
	DefaultSlowThreshold = 20 * time.Millisecond
	DefaultSlowCap       = 32
)

// Config sizes a Tracer. The zero value takes the defaults: a
// 4096-span ring, every trace sampled, 20 ms slow threshold, 32 slow
// traces retained.
type Config struct {
	// Ring is the span ring capacity (spans, not traces).
	Ring int
	// SampleEvery records 1 in N new traces (1 = all).
	SampleEvery int
	// SlowThreshold promotes completed traces whose root span lasted at
	// least this long to the slow log. Negative disables the slow log.
	SlowThreshold time.Duration
	// SlowCap bounds the slow log (traces).
	SlowCap int
}

// slot is one ring entry. The per-slot mutex is uncontended on the hot
// path (writers claim distinct slots via the atomic cursor) and exists
// so snapshot readers are race-free.
type slot struct {
	mu sync.Mutex
	ok bool
	sp Span
}

// Tracer records spans into a fixed ring and assembles slow traces. A
// nil *Tracer is inert: every method is a no-op or returns zero values.
type Tracer struct {
	ring  atomic.Pointer[[]slot] // nil until the first span is recorded
	size  int                    // ring capacity
	next  atomic.Uint64          // ring cursor (total spans ever recorded)
	ids   atomic.Uint64          // trace/span ID allocator, randomly seeded
	tick  atomic.Uint64          // sampling counter
	every atomic.Int64           // sample 1 in N
	slow  atomic.Int64           // slow threshold (ns); <0 disables

	mu       sync.Mutex
	slowRing []Trace // newest-first bounded slow log
	slowCap  int
}

// New creates a Tracer; zero cfg fields take the package defaults.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SlowCap <= 0 {
		cfg.SlowCap = DefaultSlowCap
	}
	t := &Tracer{size: cfg.Ring, slowCap: cfg.SlowCap}
	t.ids.Store(rand.Uint64())
	t.every.Store(int64(cfg.SampleEvery))
	t.slow.Store(int64(cfg.SlowThreshold))
	return t
}

// SetSampleEvery changes the sampling rate to 1-in-n (n < 1 means all).
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.every.Store(int64(n))
}

// SampleEvery reports the current sampling rate.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every.Load())
}

// SetSlowThreshold changes the slow-log promotion threshold (negative
// disables promotion).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.slow.Store(int64(d))
}

// SlowThreshold reports the current slow-log promotion threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slow.Load())
}

// Handle is an in-flight span. The zero Handle (from an untraced
// context) is a no-op; End may be called exactly once.
type Handle struct {
	// Val annotates the span (bytes moved, attempt number, fan-out
	// width); set it before End.
	Val int64

	t       *Tracer
	trace   TraceID
	id      SpanID
	parent  SpanID
	top     bool
	name    string
	subject string
	start   time.Time
}

// On reports whether the span is live (recording on End).
func (h *Handle) On() bool { return h.t != nil }

// End finishes the span and records it. err, when non-nil, marks the
// span failed with its message. Ending the root of a trace whose
// duration reaches the tracer's slow threshold promotes the whole trace
// to the slow log.
func (h *Handle) End(err error) {
	if h.t == nil {
		return
	}
	sp := Span{
		Trace:   h.trace,
		ID:      h.id,
		Parent:  h.parent,
		Top:     h.top,
		Name:    h.name,
		Subject: h.subject,
		Val:     h.Val,
		Start:   h.start,
		Dur:     time.Since(h.start),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	h.t.record(sp)
	if h.top {
		if st := h.t.slow.Load(); st >= 0 && sp.Dur >= time.Duration(st) {
			h.t.promote(sp)
		}
	}
}

// Sibling begins a span beside h: the same trace, parent and start, its
// own ID. It records work h's call carried along (an image run riding a
// grouped write); ended after h's call, it lasts as long. From a no-op h
// it is a no-op.
func (h *Handle) Sibling(name, subject string) Handle {
	if h.t == nil {
		return Handle{}
	}
	s := *h
	s.Val, s.id, s.name, s.subject = 0, SpanID(h.t.ids.Add(1)), name, subject
	return s
}

// record claims the next ring slot and stores the span, allocating the
// ring first if this is the tracer's first span.
func (t *Tracer) record(sp Span) {
	if t.ring.Load() == nil {
		fresh := make([]slot, t.size)
		t.ring.CompareAndSwap(nil, &fresh) // or a concurrent first span's ring stays
	}
	slots := t.slots()
	i := t.next.Add(1) - 1
	s := &slots[i%uint64(len(slots))]
	s.mu.Lock()
	s.sp = sp
	s.ok = true
	s.mu.Unlock()
}

// slots is the ring, nil while no span has been recorded.
func (t *Tracer) slots() []slot {
	if r := t.ring.Load(); r != nil {
		return *r
	}
	return nil
}

// Recorded reports how many spans were ever recorded (including ones
// the ring has overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// StartRoot begins a new trace rooted at the returned span — the entry
// point of every array operation. If ctx already carries a trace (a
// nested engine, or a resumed wire context) the call degrades to Start,
// nesting instead of starting a second trace. A nil tracer, or an
// operation skipped by sampling, returns ctx unchanged and a no-op
// Handle.
func (t *Tracer) StartRoot(ctx context.Context, name, subject string) (context.Context, Handle) {
	if sc, ok := fromContext(ctx); ok && sc.t != nil {
		return Start(ctx, name, subject)
	}
	if t == nil {
		return ctx, Handle{}
	}
	n := t.tick.Add(1)
	if every := t.every.Load(); every > 1 && n%uint64(every) != 0 {
		return ctx, Handle{}
	}
	h := Handle{
		t:       t,
		trace:   TraceID(t.ids.Add(1)),
		id:      SpanID(t.ids.Add(1)),
		top:     true,
		name:    name,
		subject: subject,
		start:   time.Now(),
	}
	return withSpan(ctx, spanCtx{t: t, trace: h.trace, span: h.id}), h
}

// Start begins a child span under the trace carried by ctx and returns
// a derived context for the span's own children. From an untraced
// context it is a no-op returning ctx unchanged.
func Start(ctx context.Context, name, subject string) (context.Context, Handle) {
	sc, ok := fromContext(ctx)
	if !ok || sc.t == nil {
		return ctx, Handle{}
	}
	h := Handle{
		t:       sc.t,
		trace:   sc.trace,
		id:      SpanID(sc.t.ids.Add(1)),
		parent:  sc.span,
		top:     sc.fromWire,
		name:    name,
		subject: subject,
		start:   time.Now(),
	}
	return withSpan(ctx, spanCtx{t: sc.t, trace: sc.trace, span: h.id}), h
}

// StartLeaf begins a child span that will have no children of its own:
// no derived context, zero allocation.
func StartLeaf(ctx context.Context, name, subject string) Handle {
	sc, ok := fromContext(ctx)
	if !ok || sc.t == nil {
		return Handle{}
	}
	return Handle{
		t:       sc.t,
		trace:   sc.trace,
		id:      SpanID(sc.t.ids.Add(1)),
		parent:  sc.span,
		top:     sc.fromWire,
		name:    name,
		subject: subject,
		start:   time.Now(),
	}
}

// collect gathers every retained span of one trace, start-ordered.
func (t *Tracer) collect(id TraceID) []Span {
	var out []Span
	slots := t.slots()
	for i := range slots {
		s := &slots[i]
		s.mu.Lock()
		if s.ok && s.sp.Trace == id {
			out = append(out, s.sp)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// promote copies a completed slow trace into the slow log.
func (t *Tracer) promote(root Span) {
	tr := Trace{ID: root.Trace, Root: root, Spans: t.collect(root.Trace)}
	t.mu.Lock()
	t.slowRing = append([]Trace{tr}, t.slowRing...)
	if len(t.slowRing) > t.slowCap {
		t.slowRing = t.slowRing[:t.slowCap]
	}
	t.mu.Unlock()
}

// Slow returns the slow log, newest first.
func (t *Tracer) Slow() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Trace(nil), t.slowRing...)
}

// Spans dumps every retained span in the ring (unordered across
// traces) — the raw feed a peer merges via OpTraceSpans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	slots := t.slots()
	for i := range slots {
		s := &slots[i]
		s.mu.Lock()
		if s.ok {
			out = append(out, s.sp)
		}
		s.mu.Unlock()
	}
	return out
}

// Traces assembles the most recently completed traces (those whose top
// span is still in the ring), newest first, at most limit (<=0 means
// all).
func (t *Tracer) Traces(limit int) []Trace {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	byTrace := map[TraceID][]Span{}
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	var out []Trace
	for id, sps := range byTrace {
		sort.Slice(sps, func(i, j int) bool { return sps[i].Start.Before(sps[j].Start) })
		root, ok := topOf(sps)
		if !ok {
			continue // top span already overwritten (or still running)
		}
		out = append(out, Trace{ID: id, Root: root, Spans: sps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root.Start.After(out[j].Root.Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// topOf picks a trace's local root: the earliest span marked Top.
func topOf(sps []Span) (Span, bool) {
	for _, sp := range sps {
		if sp.Top {
			return sp, true
		}
	}
	return Span{}, false
}

// Snapshot is the /trace endpoint body: recent completed traces plus
// the slow log, with the tracer's current settings.
type Snapshot struct {
	Time          time.Time     `json:"time"`
	SampleEvery   int           `json:"sample_every"`
	SlowThreshold time.Duration `json:"slow_threshold_ns"`
	Recorded      uint64        `json:"spans_recorded"`
	Recent        []Trace       `json:"recent,omitempty"`
	Slow          []Trace       `json:"slow,omitempty"`
}

// Snapshot assembles at most limit recent traces plus the slow log.
func (t *Tracer) Snapshot(limit int) Snapshot {
	s := Snapshot{Time: time.Now()}
	if t == nil {
		return s
	}
	s.SampleEvery = t.SampleEvery()
	s.SlowThreshold = t.SlowThreshold()
	s.Recorded = t.Recorded()
	s.Recent = t.Traces(limit)
	s.Slow = t.Slow()
	return s
}
