package raid_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/raid"
)

func afraidRig(t *testing.T) (*raid.Stripe, []*diskHandle) {
	t.Helper()
	devs, raw := mkDisks(4, 32)
	a, err := raid.NewAFRAID(devs)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*diskHandle, len(raw))
	for i, d := range raw {
		hs[i] = &diskHandle{d}
	}
	return a, hs
}

// diskHandle just adapts *disk.Disk for readable failure injection.
type diskHandle struct{ d failer }

type failer interface {
	Fail()
	Replace() error
}

func TestAFRAIDRoundTripAndWindow(t *testing.T) {
	a, _ := afraidRig(t)
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(1)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if a.DirtyStripes() == 0 {
		t.Fatal("writes opened no redundancy window")
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
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
	a, hs := afraidRig(t)
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(2)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	hs[1].d.Fail()
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("degraded read with clean parity: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read wrong data")
	}
}

// TestAFRAIDWindowIsHonest: a failure inside the redundancy window must
// surface as data loss, never as silently wrong data.
func TestAFRAIDWindowIsHonest(t *testing.T) {
	a, hs := afraidRig(t)
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(3)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	// No flush: everything is inside the window. Lose a disk.
	hs[2].d.Fail()
	err := a.ReadBlocks(ctx, 0, make([]byte, len(data)))
	if !errors.Is(err, raid.ErrDataLoss) {
		t.Fatalf("window read: got %v, want ErrDataLoss", err)
	}
	// Rebuild must refuse too.
	if err := hs[2].d.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(ctx, 2); !errors.Is(err, raid.ErrDataLoss) || !errors.Is(err, raid.ErrPending) {
		t.Fatalf("rebuild in window: got %v, want ErrDataLoss and ErrPending", err)
	}
}

func TestAFRAIDRebuildAfterFlush(t *testing.T) {
	a, hs := afraidRig(t)
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(4)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	hs[0].d.Fail()
	if err := hs[0].d.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data wrong after rebuild")
	}
}

// TestAFRAIDSmallWriteIsSingleIO: unlike RAID-5's 4-I/O small write,
// AFRAID's critical path is one data write.
func TestAFRAIDSmallWriteIsSingleIO(t *testing.T) {
	devs, raw := mkDisks(4, 32)
	a, err := raid.NewAFRAID(devs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := make([]byte, a.BlockSize())
	if err := a.WriteBlocks(ctx, 0, buf); err != nil {
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
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(5)).Read(data)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < 32; s += 4 {
				off := s * k * a.BlockSize()
				if err := a.WriteBlocks(ctx, int64(s*k), data[off:off+k*a.BlockSize()]); err != nil {
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
	checkAll(t, a, data, "concurrent")
}
