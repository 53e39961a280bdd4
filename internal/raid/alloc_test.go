package raid_test

import (
	"context"
	"testing"

	"repro/internal/race"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

// allocLimit runs f and fails if it averages more than limit heap
// allocations per run. All block-sized scratch on these paths comes
// from internal/bufpool, so the limits pin only the engines' own
// bookkeeping (closure fan-out, par.* machinery) — a regression that
// reintroduces per-stripe make([]byte, bs) shows up here immediately.
func allocLimit(t *testing.T, limit float64, f func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	got := testing.AllocsPerRun(100, f)
	t.Logf("%.1f allocs/op (limit %.0f)", got, limit)
	if got > limit {
		t.Errorf("%.1f allocs/op, want <= %.0f", got, limit)
	}
}

// disks4k are the alloc pins' members: 256 blocks of 4 KiB.
var disks4k = raidtest.Disks{BS: 4096, Blocks: 256}

// TestAllocsAfraidSync pins the lazy-parity sync path: one write that
// dirties a stripe plus the Flush that recomputes its parity. The
// parity and read scratch are pooled; what remains is the dirty-map
// and flush fan-out bookkeeping.
func TestAllocsAfraidSync(t *testing.T) {
	a, _ := raidtest.Build[raid.Array](t, raidtest.AFRAID(4), disks4k)
	ctx := context.Background()
	buf := make([]byte, a.BlockSize())
	allocLimit(t, 11, func() {
		if err := a.WriteBlocks(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsAfraidDegradedRead pins the read plan of a degraded array:
// with a failed disk, a block on a surviving disk still costs only the
// plan and the fan-out bookkeeping, scattered straight into the
// caller's buffer — nothing of the decode path is set up for it.
func TestAllocsAfraidDegradedRead(t *testing.T) {
	a, raw := raidtest.Build[raid.Array](t, raidtest.AFRAID(4), disks4k)
	ctx := context.Background()
	all := make([]byte, 9*a.BlockSize())
	if err := a.WriteBlocks(ctx, 0, all); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	raw[1].Fail()
	buf := make([]byte, a.BlockSize())
	allocLimit(t, 2, func() {
		if err := a.ReadBlocks(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsRSDegradedRead pins a degraded read of two full rs(6,2)
// stripes with two members failed: the survivors join the healthy blocks'
// plan, the parity in one pooled scratch buffer, and each stripe decodes
// in place through the code's cached inverse.
func TestAllocsRSDegradedRead(t *testing.T) {
	a, raw := raidtest.Build[*raid.Stripe](t, raidtest.RS(6, 2), disks4k)
	ctx := context.Background()
	k, _ := a.Shards()
	buf := make([]byte, 2*k*a.BlockSize())
	if err := a.WriteBlocks(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	raw[1].Fail()
	raw[4].Fail()
	allocLimit(t, 11, func() {
		if err := a.ReadBlocks(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsRAID5SmallWrite pins the read-modify-write path: old data
// and old parity land in pooled blocks.
func TestAllocsRAID5SmallWrite(t *testing.T) {
	a, _ := raidtest.Build[raid.Array](t, raidtest.RAID5(4), disks4k)
	ctx := context.Background()
	buf := make([]byte, a.BlockSize())
	allocLimit(t, 11, func() {
		if err := a.WriteBlocks(ctx, 5, buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsRSFullStripeWrite pins the erasure-coded full-stripe
// write: data shards go out as gather lists aliasing the caller's
// buffer, parity staged in one pooled buffer per call.
func TestAllocsRSFullStripeWrite(t *testing.T) {
	a, _ := raidtest.Build[*raid.Stripe](t, raidtest.RS(6, 2), disks4k)
	ctx := context.Background()
	k, _ := a.Shards()
	buf := make([]byte, k*a.BlockSize())
	allocLimit(t, 16, func() {
		if err := a.WriteBlocks(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
}

// mirroredAllocs pins one 16-block request on a mirrored engine over four
// members: each copy is planned into one run per member, moved straight
// into or out of the caller's buffer with no staging buffer per run, so
// what remains is one closure per run and the fan-out bookkeeping.
func mirroredAllocs(t *testing.T, e raidtest.Engine, write bool, limit float64) {
	a, _ := raidtest.Build[raid.Array](t, e, disks4k)
	ctx := context.Background()
	buf := make([]byte, 16*a.BlockSize())
	if err := a.WriteBlocks(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	do := a.ReadBlocks
	if write {
		do = a.WriteBlocks
	}
	allocLimit(t, limit, func() {
		if err := do(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocsRAID10Read(t *testing.T)   { mirroredAllocs(t, raidtest.RAID10(4), false, 6) }
func TestAllocsRAID10Write(t *testing.T)  { mirroredAllocs(t, raidtest.RAID10(4), true, 8) }
func TestAllocsChainedRead(t *testing.T)  { mirroredAllocs(t, raidtest.Chained(4), false, 8) }
func TestAllocsChainedWrite(t *testing.T) { mirroredAllocs(t, raidtest.Chained(4), true, 12) }
