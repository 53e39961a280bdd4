package trace

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRootChildHierarchy(t *testing.T) {
	tr := New(Config{})
	ctx := context.Background()

	rctx, root := tr.StartRoot(ctx, "raidx.read", "raidx")
	if !root.On() {
		t.Fatal("root handle not live")
	}
	cctx, child := Start(rctx, "par.do", "")
	leaf := StartLeaf(cctx, "disk.read", "d0")
	leaf.Val = 4096
	leaf.End(nil)
	child.End(nil)
	root.End(nil)

	if got := tr.Recorded(); got != 3 {
		t.Fatalf("recorded %d spans, want 3", got)
	}
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Root.Name != "raidx.read" || !got.Root.Top {
		t.Fatalf("root = %+v", got.Root)
	}
	byName := map[string]Span{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
		if sp.Trace != got.ID {
			t.Fatalf("span %s has trace %x, want %x", sp.Name, sp.Trace, got.ID)
		}
	}
	if byName["par.do"].Parent != got.Root.ID {
		t.Error("par.do not parented under root")
	}
	if byName["disk.read"].Parent != byName["par.do"].ID {
		t.Error("disk.read not parented under par.do")
	}
	if byName["disk.read"].Val != 4096 {
		t.Errorf("leaf Val = %d, want 4096", byName["disk.read"].Val)
	}
	if byName["par.do"].Top || byName["disk.read"].Top {
		t.Error("child spans marked Top")
	}
}

func TestStartRootNestsInsideExistingTrace(t *testing.T) {
	tr := New(Config{})
	rctx, root := tr.StartRoot(context.Background(), "outer", "")
	_, inner := tr.StartRoot(rctx, "inner", "")
	inner.End(nil)
	root.End(nil)

	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("nested StartRoot split the trace: %d traces", len(traces))
	}
	for _, sp := range traces[0].Spans {
		if sp.Name == "inner" {
			if sp.Top {
				t.Error("nested root marked Top")
			}
			if sp.Parent != traces[0].Root.ID {
				t.Error("nested root not a child of the outer root")
			}
		}
	}
}

func TestUntracedAndNilNoOps(t *testing.T) {
	ctx := context.Background()

	// Untraced context: Start/StartLeaf are inert and return ctx as-is.
	c2, h := Start(ctx, "x", "")
	if h.On() || c2 != ctx {
		t.Fatal("Start from untraced context was not a no-op")
	}
	leaf := StartLeaf(ctx, "y", "")
	if leaf.On() {
		t.Fatal("StartLeaf from untraced context live")
	}
	h.End(errors.New("ignored"))
	leaf.End(nil)

	// Nil tracer: every method inert.
	var nilT *Tracer
	c3, rh := nilT.StartRoot(ctx, "z", "")
	if rh.On() || c3 != ctx {
		t.Fatal("nil tracer StartRoot was not a no-op")
	}
	rh.End(nil)
	nilT.SetSampleEvery(3)
	nilT.SetSlowThreshold(time.Second)
	if nilT.Recorded() != 0 || nilT.Spans() != nil || nilT.Slow() != nil || nilT.Traces(0) != nil {
		t.Fatal("nil tracer produced data")
	}
	if s := nilT.Snapshot(5); s.Recorded != 0 || s.Recent != nil {
		t.Fatal("nil tracer snapshot produced data")
	}

	// Resume with a nil tracer leaves the context untraced.
	if rc := Resume(ctx, nil, 1, 2); rc != ctx {
		t.Fatal("Resume with nil tracer derived a context")
	}
	if _, ok := FromContext(ctx); ok {
		t.Fatal("untraced context reported a span context")
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	hits := 0
	for i := 0; i < 40; i++ {
		ctx, h := tr.StartRoot(context.Background(), "op", "")
		if h.On() {
			hits++
			if _, ok := FromContext(ctx); !ok {
				t.Fatal("sampled op's context carries no trace")
			}
		} else if _, ok := FromContext(ctx); ok {
			t.Fatal("unsampled op's context carries a trace")
		}
		h.End(nil)
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 40 ops at 1-in-4, want 10", hits)
	}
	tr.SetSampleEvery(1)
	if tr.SampleEvery() != 1 {
		t.Fatal("SetSampleEvery not applied")
	}
	_, h := tr.StartRoot(context.Background(), "op", "")
	if !h.On() {
		t.Fatal("1-in-1 sampling skipped an op")
	}
	h.End(nil)
}

func TestSlowLogPromotion(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Nanosecond, SlowCap: 2})

	finish := func(name string, err error) {
		ctx, root := tr.StartRoot(context.Background(), name, "")
		leaf := StartLeaf(ctx, "child", "")
		leaf.End(nil)
		root.End(err)
	}
	finish("op1", nil)
	finish("op2", errors.New("boom"))
	finish("op3", nil)

	slow := tr.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow log holds %d traces, want cap 2", len(slow))
	}
	// Newest first; op1 was pushed out.
	if slow[0].Root.Name != "op3" || slow[1].Root.Name != "op2" {
		t.Fatalf("slow log order: %s, %s", slow[0].Root.Name, slow[1].Root.Name)
	}
	if slow[1].Root.Err != "boom" {
		t.Fatalf("error not recorded on root: %+v", slow[1].Root)
	}
	if len(slow[0].Spans) != 2 {
		t.Fatalf("promoted trace carries %d spans, want 2", len(slow[0].Spans))
	}

	// Negative threshold disables promotion.
	tr.SetSlowThreshold(-1)
	finish("op4", nil)
	if len(tr.Slow()) != 2 || tr.Slow()[0].Root.Name != "op3" {
		t.Fatal("disabled slow log still promoted")
	}

	// A fast op under a positive threshold is not promoted.
	tr.SetSlowThreshold(time.Hour)
	finish("op5", nil)
	if tr.Slow()[0].Root.Name != "op3" {
		t.Fatal("fast op promoted to slow log")
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(Config{Ring: 8, SlowThreshold: -1})
	for i := 0; i < 20; i++ {
		_, h := tr.StartRoot(context.Background(), "op", "")
		h.End(nil)
	}
	if got := tr.Recorded(); got != 20 {
		t.Fatalf("recorded = %d, want 20", got)
	}
	if got := len(tr.Spans()); got != 8 {
		t.Fatalf("ring retains %d spans, want 8", got)
	}

	// The default ring, allocated by its first span, wraps the same way.
	tr = New(Config{SlowThreshold: -1})
	for i := 0; i < DefaultRing+1; i++ {
		_, h := tr.StartRoot(context.Background(), "op", "")
		h.End(nil)
	}
	if got := len(tr.Spans()); got != DefaultRing {
		t.Fatalf("default ring retains %d spans, want %d", got, DefaultRing)
	}
}

func TestResumeMarksSubtreeTop(t *testing.T) {
	server := New(Config{SlowThreshold: time.Nanosecond})
	const traceID, parentID = TraceID(7), SpanID(9)

	ctx := Resume(context.Background(), server, traceID, parentID)
	sctx, serve := Start(ctx, "transport.serve", "client")
	// Children of the resumed top are ordinary spans.
	leaf := StartLeaf(sctx, "disk.read", "d0")
	leaf.End(nil)
	serve.End(nil)

	spans := server.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	var top, child Span
	for _, sp := range spans {
		if sp.Name == "transport.serve" {
			top = sp
		} else {
			child = sp
		}
	}
	if top.Trace != traceID || top.Parent != parentID {
		t.Fatalf("resumed span identity wrong: %+v", top)
	}
	if !top.Top {
		t.Error("first span under Resume not marked Top")
	}
	if child.Top {
		t.Error("grandchild of Resume marked Top")
	}
	if child.Parent != top.ID {
		t.Error("child not parented under the resumed top")
	}
	// The server-side subtree promotes to the server's own slow log.
	if len(server.Slow()) != 1 {
		t.Fatal("resumed slow subtree not promoted server-side")
	}
}

func TestMergeAligns(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := Trace{
		ID:   42,
		Root: Span{Trace: 42, ID: 1, Top: true, Name: "raidx.read", Start: base, Dur: 10 * time.Millisecond},
		Spans: []Span{
			{Trace: 42, ID: 1, Top: true, Name: "raidx.read", Start: base, Dur: 10 * time.Millisecond},
			{Trace: 42, ID: 2, Parent: 1, Name: "transport.call", Start: base.Add(time.Millisecond), Dur: 8 * time.Millisecond},
		},
	}
	// Remote spans on an unrelated clock, parented (via the wire ids)
	// under span 2. The serve span is the subtree top; the disk span is
	// interior and must shift with it.
	remoteBase := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	remote := []Span{
		{Trace: 42, ID: 100, Parent: 2, Top: true, Name: "transport.serve", Start: remoteBase, Dur: 4 * time.Millisecond},
		{Trace: 42, ID: 101, Parent: 100, Name: "disk.read", Start: remoteBase.Add(time.Millisecond), Dur: 2 * time.Millisecond},
		{Trace: 43, ID: 200, Name: "other-trace", Start: remoteBase},
		{Trace: 42, ID: 2, Name: "duplicate-of-local", Start: remoteBase},
	}
	tr.Merge(remote, "n1")

	if len(tr.Spans) != 4 {
		t.Fatalf("merged to %d spans, want 4 (foreign trace and duplicate dropped)", len(tr.Spans))
	}
	var serve, disk Span
	for _, sp := range tr.Spans {
		switch sp.ID {
		case 100:
			serve = sp
		case 101:
			disk = sp
		}
	}
	if serve.Origin != "n1" || disk.Origin != "n1" {
		t.Fatalf("origins not stamped: %q %q", serve.Origin, disk.Origin)
	}
	// Centered inside the local parent: parent start 1ms + (8ms-4ms)/2.
	wantServe := base.Add(time.Millisecond).Add(2 * time.Millisecond)
	if !serve.Start.Equal(wantServe) {
		t.Fatalf("serve re-based to %v, want %v", serve.Start, wantServe)
	}
	// Interior span keeps its offset relative to the subtree top (1ms).
	if got := disk.Start.Sub(serve.Start); got != time.Millisecond {
		t.Fatalf("interior span offset = %v, want 1ms", got)
	}
	// Start-sorted after merge.
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].Start.Before(tr.Spans[i-1].Start) {
			t.Fatal("merged spans not start-sorted")
		}
	}
}

func TestWriteWaterfall(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := Trace{
		ID:   0xabc,
		Root: Span{Trace: 0xabc, ID: 1, Top: true, Name: "raidx.read", Subject: "raidx", Val: 65536, Start: base, Dur: 12 * time.Millisecond},
		Spans: []Span{
			{Trace: 0xabc, ID: 1, Top: true, Name: "raidx.read", Subject: "raidx", Val: 65536, Start: base, Dur: 12 * time.Millisecond},
			{Trace: 0xabc, ID: 2, Parent: 1, Name: "raidx.failover", Subject: "d3", Start: base.Add(2 * time.Millisecond), Dur: 6 * time.Millisecond, Err: "disk failed"},
			{Trace: 0xabc, ID: 3, Parent: 2, Name: "disk.read", Subject: "d1", Start: base.Add(3 * time.Millisecond), Dur: time.Millisecond, Origin: "n1"},
			{Trace: 0xabc, ID: 4, Parent: 999, Name: "orphan", Start: base.Add(8 * time.Millisecond), Dur: time.Millisecond},
		},
	}
	var sb strings.Builder
	WriteWaterfall(&sb, tr)
	out := sb.String()

	for _, want := range []string{
		"trace 0000000000000abc  raidx.read  12.00ms  (4 spans)",
		"raidx.read raidx [65536]",
		"  raidx.failover d3  ERR: disk failed",
		"    disk.read d1 @n1",
		"  orphan", // missing parent hangs off the root
		"2.00ms",   // failover offset column
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("waterfall has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500µs",
		1500 * time.Microsecond: "1.50ms",
		2 * time.Second:         "2.000s",
		-300 * time.Microsecond: "-300µs",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(Config{Ring: 64, SlowThreshold: time.Nanosecond, SlowCap: 4})
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx, root := tr.StartRoot(context.Background(), "op", "")
				leaf := StartLeaf(ctx, "leaf", "d0")
				leaf.End(nil)
				root.End(nil)
				// Readers race the writers on purpose.
				if i%10 == 0 {
					tr.Spans()
					tr.Traces(4)
					tr.Slow()
					tr.Snapshot(2)
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Recorded(); got != workers*per*2 {
		t.Fatalf("recorded = %d, want %d", got, workers*per*2)
	}
	if got := len(tr.Spans()); got != 64 {
		t.Fatalf("ring retains %d spans, want 64", got)
	}
	if got := len(tr.Slow()); got != 4 {
		t.Fatalf("slow log = %d, want cap 4", got)
	}
}
