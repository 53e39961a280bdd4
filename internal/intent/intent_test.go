package intent

import (
	"sync"
	"testing"
)

func TestMarkAndCollect(t *testing.T) {
	l := NewLog(4, 1000, 10)
	if l.AnyDirty() {
		t.Fatal("fresh log reports dirty")
	}
	// Blocks 5..24 span regions 0..2 (blocks 0..29).
	l.MarkRange(2, 5, 20)
	if got := l.DirtyRegions(2); got != 3 {
		t.Fatalf("dirty regions = %d, want 3", got)
	}
	regions := l.Dirty(2)
	if len(regions) != 1 || regions[0] != (Region{Start: 0, Count: 30}) {
		t.Fatalf("regions = %+v, want one run [0,30)", regions)
	}
	// Disjoint mark coalesces separately.
	l.MarkRange(2, 500, 1)
	regions = l.Dirty(2)
	if len(regions) != 2 || regions[1] != (Region{Start: 500, Count: 10}) {
		t.Fatalf("regions = %+v, want second run [500,510)", regions)
	}
	// Other devices are untouched.
	if l.DirtyRegions(0) != 0 || len(l.Dirty(0)) != 0 {
		t.Fatal("mark leaked to another device")
	}
}

func TestTakeDirtyClears(t *testing.T) {
	l := NewLog(2, 100, 10)
	l.MarkRange(1, 0, 100)
	got := l.TakeDirty(1)
	if len(got) != 1 || got[0] != (Region{Start: 0, Count: 100}) {
		t.Fatalf("take = %+v", got)
	}
	if l.AnyDirty() || len(l.TakeDirty(1)) != 0 {
		t.Fatal("take did not clear")
	}
	// Re-marking after a take (the failure path) restores the intents.
	for _, r := range got {
		l.MarkRange(1, r.Start, r.Count)
	}
	if l.DirtyRegions(1) != 10 {
		t.Fatalf("re-mark restored %d regions, want 10", l.DirtyRegions(1))
	}
}

func TestEndOfDeviceClamp(t *testing.T) {
	// 95 blocks at granularity 10: the last region is a short one.
	l := NewLog(1, 95, 10)
	l.MarkRange(0, 90, 50) // overshoots the device
	regions := l.Dirty(0)
	if len(regions) != 1 || regions[0] != (Region{Start: 90, Count: 5}) {
		t.Fatalf("regions = %+v, want clamped [90,95)", regions)
	}
	l.MarkRange(0, -5, 3) // entirely out of range low side after clamp? [0,?) no: [-5,-2) clamps empty
	if l.DirtyRegions(0) != 1 {
		t.Fatalf("out-of-range mark changed the log: %d regions", l.DirtyRegions(0))
	}
}

func TestMarshalMerge(t *testing.T) {
	a := NewLog(3, 640, 64)
	b := NewLog(3, 640, 64)
	a.MarkRange(0, 0, 64)
	b.MarkRange(0, 128, 64)
	b.MarkRange(2, 0, 640)
	snap, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(snap); err != nil {
		t.Fatal(err)
	}
	if got := a.DirtyRegions(0); got != 2 {
		t.Fatalf("dev 0 regions after merge = %d, want 2", got)
	}
	if got := a.DirtyRegions(2); got != 10 {
		t.Fatalf("dev 2 regions after merge = %d, want 10", got)
	}
	// Geometry mismatch is rejected.
	c := NewLog(3, 640, 32)
	if err := c.Merge(snap); err == nil {
		t.Fatal("mismatched geometry merged")
	}
	// Garbage is rejected.
	if err := a.Merge([]byte("nonsense")); err == nil {
		t.Fatal("garbage snapshot merged")
	}
}

func TestGenTracksMutation(t *testing.T) {
	l := NewLog(1, 100, 10)
	g0 := l.Gen()
	l.MarkRange(0, 0, 1)
	if l.Gen() == g0 {
		t.Fatal("mark did not bump generation")
	}
	g1 := l.Gen()
	l.TakeDirty(0)
	if l.Gen() == g1 {
		t.Fatal("take did not bump generation")
	}
	g2 := l.Gen()
	l.TakeDirty(0) // nothing dirty, but it ends the first take's hold on snapshots
	if l.Gen() == g2 {
		t.Fatal("releasing a take did not bump generation")
	}
	g3 := l.Gen()
	l.TakeDirty(0) // no-op: nothing dirty, nothing held
	if l.Gen() != g3 {
		t.Fatal("empty take bumped generation")
	}
}

// TestTakeDirtySnapshotHoldsTaken: regions a TakeDirty handed out stay in
// snapshots until the next take on that device, which releases them, so a
// snapshot saved mid-replay loses nothing; marks made meanwhile are new
// dirt, not held regions.
func TestTakeDirtySnapshotHoldsTaken(t *testing.T) {
	l := NewLog(2, 100, 10)
	snapDirty := func(dev int) int64 {
		t.Helper()
		snap, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		probe := NewLog(2, 100, 10)
		if err := probe.Merge(snap); err != nil {
			t.Fatal(err)
		}
		return probe.DirtyRegions(dev)
	}
	l.MarkRange(1, 0, 30)
	l.MarkRange(0, 50, 10)
	if got := l.TakeDirty(1); len(got) != 1 || got[0] != (Region{Start: 0, Count: 30}) {
		t.Fatalf("take = %+v", got)
	}
	if l.DirtyRegions(1) != 0 || snapDirty(1) != 3 || snapDirty(0) != 1 {
		t.Fatalf("after a take: live %d, snapshot %d / %d regions, want 0, 3 / 1", l.DirtyRegions(1), snapDirty(1), snapDirty(0))
	}
	l.MarkRange(1, 90, 10) // a write missed the device mid-replay
	if got := l.TakeDirty(1); len(got) != 1 || got[0] != (Region{Start: 90, Count: 10}) {
		t.Fatalf("second take = %+v, want only the new mark", got)
	}
	if snapDirty(1) != 1 {
		t.Fatalf("snapshot holds %d regions after the second take, want its 1", snapDirty(1))
	}
	if l.TakeDirty(1) != nil || snapDirty(1) != 0 {
		t.Fatalf("an empty take left %d regions held", snapDirty(1))
	}
	l.MarkRange(1, 0, 10)
	l.TakeDirty(1)
	l.ClearDev(1)
	if snapDirty(1) != 0 {
		t.Fatal("ClearDev left a take held")
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.MarkRange(0, 0, 10)
	if l.AnyDirty() || l.Dirty(0) != nil || l.TakeDirty(0) != nil ||
		l.DirtyRegions(0) != 0 || l.DirtyBlocks(0) != 0 ||
		l.RegionBlocks() != 0 || l.Devices() != 0 || l.Gen() != 0 {
		t.Fatal("nil log not inert")
	}
	l.ClearDev(0)
	if _, err := l.MarshalBinary(); err == nil {
		t.Fatal("nil marshal succeeded")
	}
	if err := l.Merge(nil); err == nil {
		t.Fatal("nil merge succeeded")
	}
}

func TestConcurrentMarks(t *testing.T) {
	l := NewLog(4, 10000, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				l.MarkRange(g%4, i*7%10000, 5)
				if i%100 == 0 {
					l.Dirty(g % 4)
				}
			}
		}(g)
	}
	wg.Wait()
	for dev := 0; dev < 4; dev++ {
		var n int64
		for _, r := range l.Dirty(dev) {
			n += r.Count
		}
		if n != l.DirtyBlocks(dev) {
			t.Fatalf("dev %d: inconsistent dirty accounting", dev)
		}
	}
}
