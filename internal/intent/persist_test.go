package intent

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

func TestLogSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "intent.snap")
	l := NewLog(4, 1000, 8)
	l.MarkRange(1, 16, 24)
	l.MarkRange(3, 990, 10)
	if err := l.SaveTo(nil, path); err != nil {
		t.Fatal(err)
	}
	l2 := NewLog(4, 1000, 8)
	if err := l2.LoadFrom(nil, path); err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 4; dev++ {
		if got, want := l2.collect(dev, missed), snapped(t, l, dev); !reflect.DeepEqual(got, want) {
			t.Fatalf("dev %d: loaded %+v, want %+v", dev, got, want)
		}
	}
	// Loading merges by union: pre-existing marks survive.
	l3 := NewLog(4, 1000, 8)
	l3.MarkRange(0, 0, 8)
	if err := l3.LoadFrom(nil, path); err != nil {
		t.Fatal(err)
	}
	if snapRegions(t, l3, 0) != 1 || snapRegions(t, l3, 1) != snapRegions(t, l, 1) {
		t.Fatal("load clobbered pre-existing marks")
	}
}

func TestLogLoadMissingFileIsClean(t *testing.T) {
	l := NewLog(2, 100, 8)
	if err := l.LoadFrom(nil, filepath.Join(t.TempDir(), "nope.snap")); err != nil {
		t.Fatalf("missing snapshot: %v", err)
	}
	if l.MissedBlocks(0)+l.MissedBlocks(1) != 0 {
		t.Fatal("missing snapshot dirtied the log")
	}
}

func TestLogLoadGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "intent.snap")
	l := NewLog(4, 1000, 8)
	l.MarkRange(0, 0, 1)
	if err := l.SaveTo(store.OS, path); err != nil {
		t.Fatal(err)
	}
	// A snapshot tracking FEWER devices than the log is a snapshot taken
	// before an online grow: device indices are stable across grows, so
	// it merges as a prefix rather than refusing.
	wide := NewLog(5, 1000, 8)
	if err := wide.LoadFrom(store.OS, path); err != nil {
		t.Fatalf("pre-grow snapshot refused: %v", err)
	}
	if wide.MissedBlocks(0) == 0 {
		t.Fatal("pre-grow snapshot dirty bits lost in prefix merge")
	}
	if wide.MissedBlocks(4) != 0 {
		t.Fatal("grown device dirtied by a snapshot that predates it")
	}
	if err := NewLog(3, 1000, 8).LoadFrom(store.OS, path); err == nil {
		t.Fatal("snapshot tracking MORE devices than the log loaded silently")
	}
	if err := NewLog(4, 999, 8).LoadFrom(store.OS, path); err == nil {
		t.Fatal("device-size mismatch loaded silently")
	}
}

// TestLogSaveCrashSafe: a crash at any point during SaveTo leaves either
// the previous snapshot or the new one readable — never a torn file that
// poisons recovery.
func TestLogSaveCrashSafe(t *testing.T) {
	for failAt := int64(1); failAt <= 6; failAt++ {
		for _, op := range []store.FaultOp{store.FaultWrite, store.FaultSync, store.FaultRename, store.FaultSyncDir} {
			ffs := store.NewFaultFS(store.OS)
			path := filepath.Join(t.TempDir(), "intent.snap")
			l1 := NewLog(2, 256, 8)
			l1.MarkRange(0, 0, 16)
			if err := l1.SaveTo(ffs, path); err != nil {
				t.Fatal(err)
			}
			l1.MarkRange(1, 128, 64)
			ffs.FailNthOp(op, failAt, fmt.Errorf("injected"))
			saveErr := l1.SaveTo(ffs, path)
			ffs.Crash()

			l2 := NewLog(2, 256, 8)
			if err := l2.LoadFrom(ffs, path); err != nil {
				t.Fatalf("%v/%d (save err %v): recovery load failed: %v", op, failAt, saveErr, err)
			}
			// Whatever generation survived, device 0's marks are in it.
			if l2.MissedBlocks(0) == 0 {
				t.Fatalf("%v/%d: base snapshot lost", op, failAt)
			}
		}
	}
}

// FuzzLogMerge: merging arbitrary bytes must never panic or corrupt the
// log's accounting; a successful merge of a valid snapshot must union,
// loading every mark as missed, whole regions, beside the log's own
// ahead, held and missed marks, and make no member blank.
func FuzzLogMerge(f *testing.F) {
	seed := NewLog(3, 500, 16)
	seed.MarkRange(0, 0, 100)
	seed.MarkAhead(2, 499, 1)
	if snap, err := seed.MarshalBinary(); err == nil {
		f.Add(snap)
	}
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x58, 0x49, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLog(3, 500, 16)
		l.MarkRange(1, 32, 1)
		l.TakeDirty(1)
		l.MarkAhead(0, 0, 1)
		snap0, missed0 := snapRegions(t, l, 0), l.MissedBlocks(1)
		if err := l.Merge(data); err != nil {
			// A rejected merge must leave the log untouched.
			if snapRegions(t, l, 0) != snap0 || l.MissedBlocks(1) != missed0 || l.MissedBlocks(0) != 0 {
				t.Fatal("failed merge mutated the log")
			}
			return
		}
		for dev := 0; dev < 3; dev++ {
			var n int64
			for _, r := range l.collect(dev, missed|held) {
				if r.Start < 0 || r.Count <= 0 || r.Start+r.Count > 500 {
					t.Fatalf("dev %d: out-of-range run %+v", dev, r)
				}
				n += r.Count
			}
			if n != l.MissedBlocks(dev) || l.Blank(dev) {
				t.Fatalf("dev %d: MissedBlocks %d, runs list %d, blank %v", dev, l.MissedBlocks(dev), n, l.Blank(dev))
			}
		}
		// Device 2 had no mark of its own: what merged there is whole
		// regions, exactly what a snapshot of it carries.
		var want int64
		for _, r := range snapped(t, l, 2) {
			want += r.Count
		}
		if l.MissedBlocks(2) != want {
			t.Fatalf("dev 2: %d missed blocks, its snapshot carries %d", l.MissedBlocks(2), want)
		}
		if !l.Missed(1, 32, 1) || snapRegions(t, l, 0) < snap0 {
			t.Fatal("merge dropped pre-existing marks")
		}
		for dev := 0; dev < 3; dev++ {
			l.TakeDirty(dev)
			l.Release(dev)
			if l.MissedBlocks(dev) != 0 || l.Missed(dev, 0, 500) {
				t.Fatalf("dev %d: %d missed blocks after its commit", dev, l.MissedBlocks(dev))
			}
		}
	})
}
