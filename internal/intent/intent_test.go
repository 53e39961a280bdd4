package intent

import (
	"sync"
	"testing"
)

// snapped returns the runs of blocks of dev that l's snapshot carries:
// whole regions, a short one at the device end.
func snapped(t testing.TB, l *Log, dev int) []Region {
	t.Helper()
	snap, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	probe := NewLog(len(l.load()), l.deviceBlocks, l.regionBlocks)
	if err := probe.Merge(snap); err != nil {
		t.Fatal(err)
	}
	return probe.collect(dev, missed)
}

// snapRegions counts the regions of dev that l's snapshot carries.
func snapRegions(t testing.TB, l *Log, dev int) int64 {
	t.Helper()
	var n int64
	for _, r := range snapped(t, l, dev) {
		n += (r.Count + l.regionBlocks - 1) / l.regionBlocks
	}
	return n
}

func TestMarkAndCollect(t *testing.T) {
	l := NewLog(4, 1000, 10)
	if l.MissedBlocks(2) != 0 || snapRegions(t, l, 2) != 0 {
		t.Fatal("fresh log reports marks")
	}
	// Blocks 5..24: missed block by block, snapshotted as regions 0..2.
	l.MarkRange(2, 5, 20)
	if got := l.MissedBlocks(2); got != 20 || l.Missed(2, 0, 5) || !l.Missed(2, 24, 1) || l.Missed(2, 25, 5) {
		t.Fatalf("missed blocks = %d, want exactly 5..24", got)
	}
	if got := snapped(t, l, 2); len(got) != 1 || got[0] != (Region{Start: 0, Count: 30}) {
		t.Fatalf("snapshot = %+v, want one run [0,30)", got)
	}
	// Disjoint mark coalesces separately.
	l.MarkRange(2, 500, 1)
	if got := l.collect(2, missed); len(got) != 2 || got[0] != (Region{5, 20}) || got[1] != (Region{500, 1}) {
		t.Fatalf("runs = %+v, want [5,25) and [500,501)", got)
	}
	if got := snapped(t, l, 2); len(got) != 2 || got[1] != (Region{Start: 500, Count: 10}) {
		t.Fatalf("snapshot = %+v, want second run [500,510)", got)
	}
	// Other devices are untouched.
	if l.MissedBlocks(0) != 0 || snapRegions(t, l, 0) != 0 {
		t.Fatal("mark leaked to another device")
	}
}

func TestTakeDirtyClears(t *testing.T) {
	l := NewLog(2, 100, 10)
	l.MarkBlank(1)
	got := l.TakeDirty(1)
	if len(got) != 1 || got[0] != (Region{Start: 0, Count: 100}) {
		t.Fatalf("take = %+v", got)
	}
	// Taken is not committed: the blocks stay missed for reads.
	if !l.Missed(1, 50, 1) || l.MissedBlocks(1) != 100 || !l.Blank(1) || l.collect(1, held) == nil {
		t.Fatal("a take made the blocks fresh before its job committed")
	}
	// A job that fails commits nothing: the next take hands them out again.
	if again := l.TakeDirty(1); len(again) != 1 || again[0] != got[0] {
		t.Fatalf("take after a failed job = %+v, want %+v", again, got)
	}
	l.Release(1)
	if l.Blank(1) || l.collect(1, held) != nil || l.Missed(1, 0, 100) || l.MissedBlocks(1) != 0 || len(l.TakeDirty(1)) != 0 {
		t.Fatal("release did not commit the take")
	}
}

// TestMissedSurvivesJob: a mark made while a job holds a take is new: the
// job's commit leaves it missed.
func TestMissedSurvivesJob(t *testing.T) {
	l := NewLog(1, 100, 10)
	l.MarkRange(0, 0, 30)
	l.TakeDirty(0)
	l.MarkRange(0, 20, 1) // held and missed again
	l.MarkRange(0, 90, 1) // new
	l.Release(0)
	if got := l.TakeDirty(0); len(got) != 2 || got[0] != (Region{20, 1}) || got[1] != (Region{90, 1}) {
		t.Fatalf("after the commit: %+v, want the two marks made mid-job", got)
	}
	if l.MissedBlocks(0) != 2 || l.Missed(0, 0, 20) || !l.Missed(0, 20, 1) || l.Missed(0, 21, 60) {
		t.Fatalf("after the commit: %d missed blocks", l.MissedBlocks(0))
	}
}

// TestAheadIsNotMissed: ahead marks ride snapshots only; a snapshot
// loads every mark as missed, and never as blank.
func TestAheadIsNotMissed(t *testing.T) {
	l := NewLog(2, 100, 10)
	l.MarkAhead(0, 0, 100)
	if l.Missed(0, 0, 100) || l.MissedBlocks(0) != 0 || len(l.TakeDirty(0)) != 0 {
		t.Fatal("an ahead mark reads as missed")
	}
	if snapRegions(t, l, 0) != 10 {
		t.Fatalf("ahead marks: %d regions snapshotted, want 10", snapRegions(t, l, 0))
	}
	snap, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	probe := NewLog(2, 100, 10)
	if err := probe.Merge(snap); err != nil {
		t.Fatal(err)
	}
	if probe.MissedBlocks(0) != 100 || probe.Blank(0) || probe.MissedBlocks(1) != 0 {
		t.Fatalf("recovered: %d / %d missed blocks, want 100 / 0 and no blank member", probe.MissedBlocks(0), probe.MissedBlocks(1))
	}
}

// TestAheadAges: an ahead mark leaves the snapshots after two AgeAhead
// calls that saw it untouched; a write that renews it keeps it.
func TestAheadAges(t *testing.T) {
	l := NewLog(1, 100, 10)
	l.MarkAhead(0, 0, 10)
	l.MarkAhead(0, 50, 10)
	l.MarkRange(0, 90, 1)
	l.AgeAhead()
	l.MarkAhead(0, 50, 1) // a write touches region 5 again
	l.AgeAhead()
	if got := snapped(t, l, 0); len(got) != 2 || got[0] != (Region{50, 10}) || got[1] != (Region{90, 10}) {
		t.Fatalf("after two ages: %+v, want the renewed region and the missed one", got)
	}
	l.AgeAhead()
	if got := snapped(t, l, 0); len(got) != 1 || got[0] != (Region{90, 10}) || l.MissedBlocks(0) != 1 {
		t.Fatalf("after three ages: %+v, want only the missed region", got)
	}
	// A quiet log skips its scan; a mark made after it ages all the same.
	l.AgeAhead()
	l.MarkAhead(0, 0, 1)
	l.AgeAhead()
	if snapRegions(t, l, 0) != 2 {
		t.Fatal("a mark made after a quiet age was dropped at once")
	}
	l.AgeAhead()
	if snapRegions(t, l, 0) != 1 {
		t.Fatal("a mark made after a quiet age never aged out")
	}
}

func TestEndOfDeviceClamp(t *testing.T) {
	// 95 blocks at granularity 10: the last region is a short one.
	l := NewLog(1, 95, 10)
	l.MarkRange(0, 90, 50) // overshoots the device
	if got := snapped(t, l, 0); len(got) != 1 || got[0] != (Region{Start: 90, Count: 5}) {
		t.Fatalf("regions = %+v, want clamped [90,95)", got)
	}
	l.MarkRange(0, -5, 3) // [-5,-2) clamps empty
	if l.MissedBlocks(0) != 5 {
		t.Fatalf("out-of-range mark changed the log: %d blocks", l.MissedBlocks(0))
	}
}

func TestMarshalMerge(t *testing.T) {
	a := NewLog(3, 640, 64)
	b := NewLog(3, 640, 64)
	a.MarkRange(0, 0, 64)
	b.MarkRange(0, 128, 1)
	b.MarkRange(2, 0, 640)
	snap, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(snap); err != nil {
		t.Fatal(err)
	}
	if got := a.MissedBlocks(0); got != 128 {
		t.Fatalf("dev 0 blocks after merge = %d, want two regions' 128", got)
	}
	if got := a.MissedBlocks(2); got != 640 {
		t.Fatalf("dev 2 blocks after merge = %d, want 640", got)
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
	l.MarkRange(0, 0, 1) // already missed
	if l.Gen() != g1 {
		t.Fatal("a mark that changed nothing bumped generation")
	}
	l.TakeDirty(0)
	if l.Gen() == g1 {
		t.Fatal("take did not bump generation")
	}
	g2 := l.Gen()
	l.TakeDirty(0) // nothing new: the held blocks are handed out again
	if l.Gen() != g2 {
		t.Fatal("a take that moved nothing bumped generation")
	}
	l.Release(0)
	if l.Gen() == g2 {
		t.Fatal("release did not bump generation")
	}
	g3 := l.Gen()
	l.Release(0) // nothing held
	l.AgeAhead() // nothing ahead
	if l.Gen() != g3 {
		t.Fatal("empty release or age bumped generation")
	}
}

// TestTakeDirtySnapshotHoldsTaken: blocks a TakeDirty handed out stay in
// snapshots until a job commits them (Release), so a snapshot saved
// mid-replay loses nothing; marks made meanwhile outlive the commit.
func TestTakeDirtySnapshotHoldsTaken(t *testing.T) {
	l := NewLog(2, 100, 10)
	l.MarkRange(1, 0, 30)
	l.MarkRange(0, 50, 10)
	if got := l.TakeDirty(1); len(got) != 1 || got[0] != (Region{Start: 0, Count: 30}) {
		t.Fatalf("take = %+v", got)
	}
	if snapRegions(t, l, 1) != 3 || snapRegions(t, l, 0) != 1 {
		t.Fatalf("after a take: snapshot %d / %d regions, want 3 / 1", snapRegions(t, l, 1), snapRegions(t, l, 0))
	}
	l.MarkRange(1, 90, 10) // a write missed the device mid-replay
	if snapRegions(t, l, 1) != 4 {
		t.Fatalf("mid-replay snapshot holds %d regions, want 4", snapRegions(t, l, 1))
	}
	l.Release(1)
	if snapRegions(t, l, 1) != 1 {
		t.Fatalf("snapshot holds %d regions after the commit, want the new 1", snapRegions(t, l, 1))
	}
	if got := l.TakeDirty(1); len(got) != 1 || got[0] != (Region{Start: 90, Count: 10}) {
		t.Fatalf("second take = %+v, want only the new mark", got)
	}
	l.Release(1)
	if snapRegions(t, l, 1) != 0 {
		t.Fatal("a committed take stayed in the snapshot")
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.MarkRange(0, 0, 10)
	l.MarkAhead(0, 0, 10)
	l.MarkBlank(0)
	l.AgeAhead()
	if l.TakeDirty(0) != nil || l.MissedBlocks(0) != 0 || l.Missed(0, 0, 10) ||
		l.Blank(0) || l.Gen() != 0 {
		t.Fatal("nil log not inert")
	}
	l.Release(0)
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
					l.Missed(g%4, i, 16)
					l.AgeAhead()
				}
			}
		}(g)
	}
	wg.Wait()
	for dev := 0; dev < 4; dev++ {
		var n int64
		for _, r := range l.collect(dev, missed) {
			n += r.Count
		}
		if n != l.MissedBlocks(dev) || n != 1000*5 {
			t.Fatalf("dev %d: %d blocks listed, %d counted", dev, n, l.MissedBlocks(dev))
		}
	}
}
