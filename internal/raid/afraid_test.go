package raid_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

func afraidRig(t *testing.T) (*raid.Stripe, []*disk.Disk) {
	return raidtest.Build[*raid.Stripe](t, raidtest.AFRAID(4), raidtest.Disks{Blocks: 32})
}

func TestAFRAIDRoundTripAndWindow(t *testing.T) {
	a, _ := afraidRig(t)
	ctx := context.Background()
	sh := raidtest.NewShadow(a)
	if err := sh.Write(ctx, 0, a.Blocks()); err != nil {
		t.Fatal(err)
	}
	if a.DirtyStripes() == 0 {
		t.Fatal("writes opened no redundancy window")
	}
	sh.Check(t, "round trip")
	// Inside the window the stale parity is pending, not a mismatch.
	if st, err := raid.Verify(ctx, a); err != nil || st.Pending == 0 {
		t.Fatalf("verify inside the window: %+v, %v; want pending blocks and no error", st, err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if a.DirtyStripes() != 0 {
		t.Fatalf("window not closed by flush: %d dirty", a.DirtyStripes())
	}
	if st, err := raid.Verify(ctx, a); err != nil || st.Pending != 0 || st.BlocksChecked == 0 {
		t.Fatalf("verify after flush: %+v, %v; want blocks checked, none pending", st, err)
	}
}

func TestAFRAIDDegradedReadOutsideWindow(t *testing.T) {
	a, raw := afraidRig(t)
	sh := raidtest.Fill(t, a)
	raw[1].Fail()
	sh.Check(t, "degraded read with clean parity")
}

// TestAFRAIDWindowIsHonest: a failure inside the redundancy window must
// surface as data loss, never as silently wrong data.
func TestAFRAIDWindowIsHonest(t *testing.T) {
	a, raw := afraidRig(t)
	ctx := context.Background()
	if err := raidtest.NewShadow(a).Write(ctx, 0, a.Blocks()); err != nil {
		t.Fatal(err)
	}
	// No flush: everything is inside the window. Lose a disk.
	raw[2].Fail()
	err := a.ReadBlocks(ctx, 0, make([]byte, a.Blocks()*raidtest.BS))
	if !errors.Is(err, raid.ErrDataLoss) {
		t.Fatalf("window read: got %v, want ErrDataLoss", err)
	}
	// Rebuild must refuse too.
	if err := raw[2].Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(ctx, 2); !errors.Is(err, raid.ErrDataLoss) || !errors.Is(err, raid.ErrPending) {
		t.Fatalf("rebuild in window: got %v, want ErrDataLoss and ErrPending", err)
	}
}

func TestAFRAIDRebuildAfterFlush(t *testing.T) {
	a, raw := afraidRig(t)
	ctx := context.Background()
	sh := raidtest.Fill(t, a)
	raw[0].Fail()
	if err := raw[0].Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	sh.Check(t, "after rebuild")
}

// TestAFRAIDSmallWriteIsSingleIO: unlike RAID-5's 4-I/O small write,
// AFRAID's critical path is one data write.
func TestAFRAIDSmallWriteIsSingleIO(t *testing.T) {
	a, raw := afraidRig(t)
	if err := a.WriteBlocks(context.Background(), 0, make([]byte, a.BlockSize())); err != nil {
		t.Fatal(err)
	}
	var reads, writes int64
	for _, d := range raw {
		r, w, _, _ := d.Stats()
		reads += r
		writes += w
	}
	if reads != 0 || writes != 1 {
		t.Fatalf("small write cost %d reads + %d writes, want 0 + 1", reads, writes)
	}
}

// TestAFRAIDConcurrentWritersAndFlush: the redundancy window is shared
// by every writer and the flusher; writers on disjoint stripes racing a
// Flush must leave data intact and, after a final Flush, no window.
func TestAFRAIDConcurrentWritersAndFlush(t *testing.T) {
	a, _ := afraidRig(t)
	ctx := context.Background()
	k, _ := a.Shards()
	sh := raidtest.NewShadow(a)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < 32; s += 4 {
				if err := sh.Write(ctx, int64(s*k), int64(k)); err != nil {
					t.Error(err)
				}
				if s%8 == w {
					if err := a.Flush(ctx); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if a.DirtyStripes() != 0 {
		t.Fatalf("%d stripes still dirty after flush", a.DirtyStripes())
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	sh.Check(t, "concurrent")
}
