package trace

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/race"
)

// TestAllocsIdleTracer pins the lazy ring: a tracer that has never
// recorded, and every read of it, costs under 4 KiB (a ring of
// DefaultRing slots is ≈ 700 KB); once a span has allocated the ring,
// recording another allocates nothing.
func TestAllocsIdleTracer(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(Config{})
	if tr.Spans() != nil || tr.Traces(0) != nil || tr.Slow() != nil || tr.collect(1) != nil {
		t.Fatal("an idle tracer returned spans")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<10 {
		t.Fatalf("an idle tracer and its reads allocated %d bytes, want < 4096", grew)
	}

	ctx, root := tr.StartRoot(context.Background(), "op", "")
	defer root.End(nil)
	leaf := StartLeaf(ctx, "first", "")
	leaf.End(nil) // allocates the ring
	if n := testing.AllocsPerRun(100, func() {
		h := StartLeaf(ctx, "disk.read", "d0")
		h.End(nil)
	}); n != 0 {
		t.Fatalf("%.1f allocs per span after the first, want 0", n)
	}
}
