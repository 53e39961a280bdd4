package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	raidx "repro"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// the calls into each layer, from wrappers the benchmark hands to the
// program in place of the real Array and Dev. Spans inside the program
// are a later change (ROADMAP item 5); until then parity and the volume
// windows, which cannot be interposed from outside, count as engine
// self time.
//
// Span names carry their layer as a prefix:
//
//	op.*    one user operation (root)
//	fsim.*  one file-system call (root on fs_andrew)
//	array.* one call into an Array
//	dev.*   one call into a Dev

// span is one timed call. Times are nanoseconds since the tracer epoch.
type span struct {
	Name   string
	Start  int64
	End    int64
	ID     int32
	Parent int32 // -1 for a root
	Op     int32 // ID of the root span of this operation
	Bytes  int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<20)}
}

type spanCtxKey struct{}

// spanRef is what travels in the context: the current span and its root.
type spanRef struct{ id, op int32 }

// start opens a span under the span carried by ctx (a root if none) and
// returns a context carrying the new span. A nil tracer records nothing.
func (t *tracer) start(ctx context.Context, name string, bytes int64) (context.Context, int32) {
	if t == nil {
		return ctx, -1
	}
	parent := spanRef{id: -1, op: -1}
	if p, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		parent = p
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	op := parent.op
	if op < 0 {
		op = id
	}
	t.spans = append(t.spans, span{Name: name, Start: now, ID: id, Parent: parent.id, Op: op, Bytes: bytes})
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, op: op}), id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the finished spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// maxTraceFileSpans caps the span file: a 4 s mirror_small run records
// over half a million spans, and the first 200k (about 12 MB) are
// plenty to read a waterfall from. The analysis always uses all spans.
const maxTraceFileSpans = 200_000

// writeTraceFile writes spans as JSON: a header object, then one
// [name,start_ns,end_ns,id,parent,op,bytes] row per span.
func writeTraceFile(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := len(spans)
	if n > maxTraceFileSpans {
		n = maxTraceFileSpans
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"spans_total\":%d,\"spans_written\":%d,\n", workload, len(spans), n)
	fmt.Fprintf(w, "\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"id\",\"parent\",\"op\",\"bytes\"],\n\"spans\":[\n")
	var line []byte
	for i := 0; i < n; i++ {
		s := spans[i]
		line = line[:0]
		line = append(line, '[')
		line = strconv.AppendQuote(line, s.Name)
		for _, v := range []int64{s.Start, s.End, int64(s.ID), int64(s.Parent), int64(s.Op), s.Bytes} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, ']')
		if i < n-1 {
			line = append(line, ',')
		}
		line = append(line, '\n')
		w.Write(line)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, clipped to
// [lo,hi): overlapping children are counted once, which is what makes
// "span minus children" a self time when the children run in parallel.
func unionLen(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	cur := lo
	for _, x := range iv {
		if x.lo < cur {
			x.lo = cur
		}
		if x.hi > hi {
			x.hi = hi
		}
		if x.hi > x.lo {
			total += x.hi - x.lo
			cur = x.hi
		}
	}
	return total
}

func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// layerTimes is the span arithmetic of one traced window.
type layerTimes struct {
	// selfNS is each layer's summed self time: span minus the union of
	// its direct children's intervals.
	selfNS map[string]int64
	// childNS is, per layer, the summed union of its children's
	// intervals — the time the layer spent waiting on the layer below.
	childNS map[string]int64
	// sumNS is each layer's summed span durations (overlaps counted
	// twice: this is work, not wall time).
	sumNS map[string]int64
	calls map[string]int64
	bytes map[string]int64
	// stragglers holds, for every span with at least two dev children,
	// slowest child ÷ median child.
	stragglers []float64
}

// analyze computes per-layer self time, waiting time, fan-out and
// straggler ratios from the spans with Start in [from,to).
func analyze(spans []span, from, to int64) layerTimes {
	lt := layerTimes{
		selfNS:  map[string]int64{},
		childNS: map[string]int64{},
		sumNS:   map[string]int64{},
		calls:   map[string]int64{},
		bytes:   map[string]int64{},
	}
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	kids := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			if _, ok := byID[s.Parent]; ok {
				kids[s.Parent] = append(kids[s.Parent], i)
			}
		}
	}
	var iv []interval
	var devDur []float64
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		layer := layerOf(s.Name)
		lt.calls[layer]++
		lt.bytes[layer] += s.Bytes
		lt.sumNS[layer] += s.dur()
		iv = iv[:0]
		devDur = devDur[:0]
		for _, k := range kids[s.ID] {
			c := spans[k]
			iv = append(iv, interval{c.Start, c.End})
			if layerOf(c.Name) == "dev" {
				devDur = append(devDur, float64(c.dur()))
			}
		}
		covered := unionLen(iv, s.Start, s.End)
		lt.childNS[layer] += covered
		lt.selfNS[layer] += s.dur() - covered
		if len(devDur) >= 2 {
			sort.Float64s(devDur)
			med := percentile(devDur, 50)
			if med > 0 {
				lt.stragglers = append(lt.stragglers, devDur[len(devDur)-1]/med)
			}
		}
	}
	return lt
}

// tracedDev is the Dev handed to an engine in place of a RemoteDev. It
// forwards the optional vectored and backlog interfaces: an engine that
// finds them missing falls back to a coalescing copy and a zero
// backlog, and the trace would then measure a different program.
type tracedDev struct {
	inner vecCapableDev
	tr    *tracer
}

// vecDev and the backlog interfaces mirror the optional interfaces the
// engines probe for; they are declared here because the facade does not
// export them by name.
type vecDev interface {
	ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error
	WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error
}

// vecCapableDev is what a tracedDev wraps: requiring the vectored
// methods at compile time means the wrapper can never silently turn a
// vectored call into a coalescing one.
type vecCapableDev interface {
	raidx.Dev
	vecDev
}

type queueReporter interface{ QueueBacklog() time.Duration }
type bgQueueReporter interface{ BgQueueBacklog() time.Duration }

var (
	_ raidx.Dev       = (*tracedDev)(nil)
	_ vecDev          = (*tracedDev)(nil)
	_ queueReporter   = (*tracedDev)(nil)
	_ bgQueueReporter = (*tracedDev)(nil)
)

func (d *tracedDev) BlockSize() int   { return d.inner.BlockSize() }
func (d *tracedDev) NumBlocks() int64 { return d.inner.NumBlocks() }
func (d *tracedDev) Healthy() bool    { return d.inner.Healthy() }

func (d *tracedDev) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	ctx, id := d.tr.start(ctx, "dev.read", int64(len(buf)))
	err := d.inner.ReadBlocks(ctx, b, buf)
	d.tr.end(id)
	return err
}

func (d *tracedDev) WriteBlocks(ctx context.Context, b int64, data []byte) error {
	ctx, id := d.tr.start(ctx, "dev.write", int64(len(data)))
	err := d.inner.WriteBlocks(ctx, b, data)
	d.tr.end(id)
	return err
}

func (d *tracedDev) WriteBlocksBackground(ctx context.Context, b int64, data []byte) error {
	ctx, id := d.tr.start(ctx, "dev.write_bg", int64(len(data)))
	err := d.inner.WriteBlocksBackground(ctx, b, data)
	d.tr.end(id)
	return err
}

func (d *tracedDev) Flush(ctx context.Context) error {
	ctx, id := d.tr.start(ctx, "dev.flush", 0)
	err := d.inner.Flush(ctx)
	d.tr.end(id)
	return err
}

func segBytes(segs [][]byte) int64 {
	var n int64
	for _, s := range segs {
		n += int64(len(s))
	}
	return n
}

func (d *tracedDev) ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	ctx, id := d.tr.start(ctx, "dev.read", segBytes(segs))
	err := d.inner.ReadBlocksVec(ctx, b, segs)
	d.tr.end(id)
	return err
}

func (d *tracedDev) WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	ctx, id := d.tr.start(ctx, "dev.write", segBytes(segs))
	err := d.inner.WriteBlocksVec(ctx, b, segs)
	d.tr.end(id)
	return err
}

func (d *tracedDev) QueueBacklog() time.Duration {
	if q, ok := d.inner.(queueReporter); ok {
		return q.QueueBacklog()
	}
	return 0
}

func (d *tracedDev) BgQueueBacklog() time.Duration {
	if q, ok := d.inner.(bgQueueReporter); ok {
		return q.BgQueueBacklog()
	}
	return 0
}

// tracedArray is the Array the workloads (and fsim) call in place of
// the engine.
type tracedArray struct {
	inner raidx.Array
	tr    *tracer
}

var _ raidx.Array = (*tracedArray)(nil)

func (a *tracedArray) Name() string   { return a.inner.Name() }
func (a *tracedArray) BlockSize() int { return a.inner.BlockSize() }
func (a *tracedArray) Blocks() int64  { return a.inner.Blocks() }

func (a *tracedArray) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	ctx, id := a.tr.start(ctx, "array.read", int64(len(p)))
	err := a.inner.ReadBlocks(ctx, b, p)
	a.tr.end(id)
	return err
}

func (a *tracedArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	ctx, id := a.tr.start(ctx, "array.write", int64(len(p)))
	err := a.inner.WriteBlocks(ctx, b, p)
	a.tr.end(id)
	return err
}

func (a *tracedArray) Flush(ctx context.Context) error {
	ctx, id := a.tr.start(ctx, "array.flush", 0)
	err := a.inner.Flush(ctx)
	a.tr.end(id)
	return err
}
