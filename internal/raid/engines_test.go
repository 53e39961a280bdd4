package raid_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
)

const testBS = 256

// mkDisks builds n pure-data disks of the given capacity.
func mkDisks(n int, blocks int64) ([]raid.Dev, []*disk.Disk) {
	devs := make([]raid.Dev, n)
	raw := make([]*disk.Disk, n)
	for i := range devs {
		d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(testBS, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	return devs, raw
}

// engineCase describes one array architecture under test.
type engineCase struct {
	name string
	// build constructs the array over fresh disks and reports the
	// disks for failure injection.
	build func(t *testing.T) (raid.Array, []*disk.Disk)
	// redundant marks architectures that survive one disk failure.
	redundant bool
	// tolerates is the number of simultaneous disk failures the
	// architecture survives (0 means 1 for redundant arrays).
	tolerates int
}

func engineCases() []engineCase {
	return []engineCase{
		{"raid0", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(4, 64)
			a, err := raid.NewRAID0(devs)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, false, 0},
		{"raid5", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(4, 64)
			a, err := raid.NewRAID5(devs)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 1},
		{"raid10", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(4, 64)
			a, err := raid.NewRAID10(devs)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 1},
		{"chained", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(4, 64)
			a, err := raid.NewChained(devs)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 1},
		{"raidx", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(4, 64)
			a, err := core.New(devs, 4, 1, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 1},
		{"raidx-4x3", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(12, 24)
			a, err := core.New(devs, 4, 3, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 0},
		{"rs-5+1", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(6, 64)
			a, err := raid.NewRS(devs, 1)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 1},
		{"rs-6+2", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(8, 64)
			a, err := raid.NewRS(devs, 2)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 2},
		{"rs-4+3", func(t *testing.T) (raid.Array, []*disk.Disk) {
			devs, raw := mkDisks(7, 32)
			a, err := raid.NewRS(devs, 3)
			if err != nil {
				t.Fatal(err)
			}
			return a, raw
		}, true, 3},
	}
}

func fill(p []byte, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Read(p)
}

func TestEnginesRoundTrip(t *testing.T) {
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) {
			a, _ := ec.build(t)
			ctx := context.Background()
			if a.Blocks() < 8 {
				t.Fatalf("tiny array: %d blocks", a.Blocks())
			}
			// Whole-array write, then read back in assorted chunks.
			all := make([]byte, a.Blocks()*int64(testBS))
			fill(all, 42)
			if err := a.WriteBlocks(ctx, 0, all); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []struct {
				b int64
				n int64
			}{{0, a.Blocks()}, {1, 5}, {a.Blocks() - 3, 3}, {7, 1}} {
				got := make([]byte, chunk.n*int64(testBS))
				if err := a.ReadBlocks(ctx, chunk.b, got); err != nil {
					t.Fatalf("read [%d,+%d): %v", chunk.b, chunk.n, err)
				}
				want := all[chunk.b*int64(testBS) : (chunk.b+chunk.n)*int64(testBS)]
				if !bytes.Equal(got, want) {
					t.Fatalf("read [%d,+%d) mismatch", chunk.b, chunk.n)
				}
			}
		})
	}
}

// TestEnginesRejectBadRanges: every engine, RAID-x included, refuses a bad
// range with *store.RangeError and a bad buffer with *store.SizeError.
func TestEnginesRejectBadRanges(t *testing.T) {
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) {
			a, _ := ec.build(t)
			ctx := context.Background()
			var re *store.RangeError
			var se *store.SizeError
			if err := a.ReadBlocks(ctx, -1, make([]byte, testBS)); !errors.As(err, &re) {
				t.Errorf("negative block: got %v, want *store.RangeError", err)
			}
			if err := a.ReadBlocks(ctx, a.Blocks(), make([]byte, testBS)); !errors.As(err, &re) {
				t.Errorf("past-end read: got %v, want *store.RangeError", err)
			}
			if err := a.WriteBlocks(ctx, a.Blocks()-1, make([]byte, 2*testBS)); !errors.As(err, &re) {
				t.Errorf("write across the end: got %v, want *store.RangeError", err)
			}
			if err := a.WriteBlocks(ctx, 0, make([]byte, testBS+1)); !errors.As(err, &se) {
				t.Errorf("unaligned buffer: got %v, want *store.SizeError", err)
			}
			if err := a.WriteBlocks(ctx, 0, nil); !errors.As(err, &se) {
				t.Errorf("empty buffer: got %v, want *store.SizeError", err)
			}
		})
	}
}

// TestEnginesShadowModel drives every engine with a random operation
// sequence and compares against a flat in-memory reference after every
// read. This is the main correctness property test.
func TestEnginesShadowModel(t *testing.T) {
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) {
			a, _ := ec.build(t)
			ctx := context.Background()
			shadow := make([]byte, a.Blocks()*int64(testBS))
			rng := rand.New(rand.NewSource(7))
			for op := 0; op < 400; op++ {
				b := rng.Int63n(a.Blocks())
				maxN := a.Blocks() - b
				if maxN > 9 {
					maxN = 9
				}
				n := 1 + rng.Int63n(maxN)
				buf := make([]byte, n*int64(testBS))
				if rng.Intn(2) == 0 {
					rng.Read(buf)
					if err := a.WriteBlocks(ctx, b, buf); err != nil {
						t.Fatalf("op %d write: %v", op, err)
					}
					copy(shadow[b*int64(testBS):], buf)
				} else {
					if err := a.ReadBlocks(ctx, b, buf); err != nil {
						t.Fatalf("op %d read: %v", op, err)
					}
					if !bytes.Equal(buf, shadow[b*int64(testBS):(b+n)*int64(testBS)]) {
						t.Fatalf("op %d: read [%d,+%d) diverged from shadow", op, b, n)
					}
				}
			}
		})
	}
}

// TestEnginesRedundancyConsistent verifies redundancy invariants after
// a random write burst: mirror copies agree, parity XORs to zero.
func TestEnginesRedundancyConsistent(t *testing.T) {
	for _, ec := range engineCases() {
		if !ec.redundant {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			a, _ := ec.build(t)
			v, ok := a.(raid.Verifier)
			if !ok {
				t.Fatalf("%s does not implement Verifier", ec.name)
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(3))
			for op := 0; op < 120; op++ {
				b := rng.Int63n(a.Blocks())
				n := 1 + rng.Int63n(4)
				if b+n > a.Blocks() {
					n = a.Blocks() - b
				}
				buf := make([]byte, n*int64(testBS))
				rng.Read(buf)
				if err := a.WriteBlocks(ctx, b, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := v.Verify(ctx); err != nil {
				t.Fatalf("redundancy check failed: %v", err)
			}
		})
	}
}

// TestEnginesDegradedReadAfterFailure: write, fail each disk in turn,
// and verify all data remains readable through the redundancy.
func TestEnginesDegradedReadAfterFailure(t *testing.T) {
	for _, ec := range engineCases() {
		if !ec.redundant {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			ctx := context.Background()
			for victim := 0; ; victim++ {
				a, raw := ec.build(t)
				if victim >= len(raw) {
					break
				}
				all := make([]byte, a.Blocks()*int64(testBS))
				fill(all, int64(100+victim))
				if err := a.WriteBlocks(ctx, 0, all); err != nil {
					t.Fatal(err)
				}
				if err := a.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				raw[victim].Fail()
				got := make([]byte, len(all))
				if err := a.ReadBlocks(ctx, 0, got); err != nil {
					t.Fatalf("victim %d: degraded read: %v", victim, err)
				}
				if !bytes.Equal(got, all) {
					t.Fatalf("victim %d: degraded read returned wrong data", victim)
				}
			}
		})
	}
}

// TestEnginesDegradedWriteThenRead: fail a disk, write new data in
// degraded mode, and verify it reads back correctly.
func TestEnginesDegradedWriteThenRead(t *testing.T) {
	for _, ec := range engineCases() {
		if !ec.redundant {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			ctx := context.Background()
			for victim := 0; ; victim++ {
				a, raw := ec.build(t)
				if victim >= len(raw) {
					break
				}
				base := make([]byte, a.Blocks()*int64(testBS))
				fill(base, int64(victim))
				if err := a.WriteBlocks(ctx, 0, base); err != nil {
					t.Fatal(err)
				}
				if err := a.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				raw[victim].Fail()
				// Overwrite a window spanning several stripes.
				b, n := int64(3), int64(11)
				upd := make([]byte, n*int64(testBS))
				fill(upd, int64(1000+victim))
				if err := a.WriteBlocks(ctx, b, upd); err != nil {
					t.Fatalf("victim %d: degraded write: %v", victim, err)
				}
				if err := a.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				copy(base[b*int64(testBS):], upd)
				got := make([]byte, len(base))
				if err := a.ReadBlocks(ctx, 0, got); err != nil {
					t.Fatalf("victim %d: read after degraded write: %v", victim, err)
				}
				if !bytes.Equal(got, base) {
					t.Fatalf("victim %d: data diverged after degraded write", victim)
				}
			}
		})
	}
}

// TestEnginesRebuild: fail a disk, replace it, rebuild, fail a
// *different* disk, and verify the data — proving the rebuild restored
// real redundancy.
func TestEnginesRebuild(t *testing.T) {
	for _, ec := range engineCases() {
		if !ec.redundant {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			ctx := context.Background()
			a, raw := ec.build(t)
			rb, ok := a.(raid.Rebuilder)
			if !ok {
				t.Fatalf("%s does not implement Rebuilder", ec.name)
			}
			all := make([]byte, a.Blocks()*int64(testBS))
			fill(all, 5)
			if err := a.WriteBlocks(ctx, 0, all); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			victim := 1
			raw[victim].Fail()
			if err := raw[victim].Replace(); err != nil {
				t.Fatalf("replace: %v", err)
			}
			if err := rb.Rebuild(ctx, victim); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if v, ok := a.(raid.Verifier); ok {
				if err := v.Verify(ctx); err != nil {
					t.Fatalf("verify after rebuild: %v", err)
				}
			}
			// Now lose a different disk; the rebuilt one must carry it.
			other := 2
			raw[other].Fail()
			got := make([]byte, len(all))
			if err := a.ReadBlocks(ctx, 0, got); err != nil {
				t.Fatalf("read after second failure: %v", err)
			}
			if !bytes.Equal(got, all) {
				t.Fatal("data wrong after rebuild + second failure")
			}
		})
	}
}

// TestEnginesDoubleFailureDetected: redundant arrays must report data
// loss, not silently return wrong data, when two overlapping copies die.
func TestEnginesDoubleFailureDetected(t *testing.T) {
	for _, ec := range engineCases() {
		// Arrays tolerating more than one failure (or with layouts where
		// disks 0 and 1 may not share a redundancy group) are exempt.
		if !ec.redundant || ec.name == "raidx-4x3" || ec.tolerates > 1 {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			ctx := context.Background()
			a, raw := ec.build(t)
			all := make([]byte, a.Blocks()*int64(testBS))
			fill(all, 9)
			if err := a.WriteBlocks(ctx, 0, all); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			// For 4-disk arrays, failing disks 0 and 1 always kills a
			// copy pair or two stripe members.
			raw[0].Fail()
			raw[1].Fail()
			err := a.ReadBlocks(ctx, 0, make([]byte, len(all)))
			if err == nil {
				t.Fatal("double-failure read succeeded")
			}
			if !errors.Is(err, raid.ErrDataLoss) && !errors.Is(err, disk.ErrFailed) {
				t.Fatalf("got %v, want data-loss or disk-failed error", err)
			}
		})
	}
}

func TestRAID0FailureIsFatal(t *testing.T) {
	devs, raw := mkDisks(4, 16)
	a, err := raid.NewRAID0(devs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	all := make([]byte, a.Blocks()*int64(testBS))
	fill(all, 1)
	if err := a.WriteBlocks(ctx, 0, all); err != nil {
		t.Fatal(err)
	}
	raw[2].Fail()
	if err := a.ReadBlocks(ctx, 0, make([]byte, len(all))); err == nil {
		t.Fatal("RAID-0 read with failed disk succeeded")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := raid.NewRAID5(nil); err == nil {
		t.Error("RAID-5 over no disks accepted")
	}
	devs, _ := mkDisks(2, 16)
	if _, err := raid.NewRAID5(devs); err == nil {
		t.Error("RAID-5 over 2 disks accepted")
	}
	devs3, _ := mkDisks(3, 16)
	if _, err := raid.NewRAID10(devs3); err == nil {
		t.Error("RAID-10 over odd disks accepted")
	}
	if _, err := core.New(devs3, 2, 2, core.Options{}); err == nil {
		t.Error("RAID-x with mismatched grid accepted")
	}
	mixed := []raid.Dev{
		disk.New(nil, "a", store.NewMem(128, 16), disk.DefaultModel()),
		disk.New(nil, "b", store.NewMem(256, 16), disk.DefaultModel()),
	}
	if _, err := raid.NewRAID10(mixed); err == nil {
		t.Error("mixed block sizes accepted")
	}
}

// TestHotSpareFailover: lose a disk, fail over onto a spare, verify the
// array is fully redundant again by losing a second disk afterwards.
func TestHotSpareFailover(t *testing.T) {
	devs, raw := mkDisks(4, 64)
	a, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spares, _ := mkDisks(2, 64)
	sp := raid.NewSparer(a, spares)
	if sp.SparesLeft() != 2 {
		t.Fatalf("spares = %d", sp.SparesLeft())
	}

	ctx := context.Background()
	all := make([]byte, a.Blocks()*int64(testBS))
	fill(all, 77)
	if err := a.WriteBlocks(ctx, 0, all); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	raw[2].Fail()
	if err := sp.Failover(ctx, 2); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if sp.SparesLeft() != 1 || len(sp.Retired()) != 1 {
		t.Fatalf("pool state: %d spares, %d retired", sp.SparesLeft(), len(sp.Retired()))
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after failover: %v", err)
	}
	// The rebuilt spare must carry the data when another disk dies.
	raw[0].Fail()
	got := make([]byte, len(all))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("read after second failure: %v", err)
	}
	if !bytes.Equal(got, all) {
		t.Fatal("data wrong after spare failover + second failure")
	}
	// Second failover uses the last spare.
	if err := sp.Failover(ctx, 0); err != nil {
		t.Fatalf("second failover: %v", err)
	}
	if err := sp.Failover(ctx, 1); err == nil {
		t.Fatal("third failover succeeded with empty pool")
	}
}

// TestHotSpareGeometryMismatch: a wrong-sized spare is rejected and
// returned to the pool.
func TestHotSpareGeometryMismatch(t *testing.T) {
	devs, _ := mkDisks(4, 64)
	a, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tiny := disk.New(nil, "tiny", store.NewMem(testBS, 8), disk.DefaultModel())
	sp := raid.NewSparer(a, []raid.Dev{tiny})
	if err := sp.Failover(context.Background(), 1); err == nil {
		t.Fatal("mismatched spare accepted")
	}
	if sp.SparesLeft() != 1 {
		t.Fatalf("spare not returned to pool: %d left", sp.SparesLeft())
	}
}
