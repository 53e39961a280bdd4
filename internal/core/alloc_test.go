package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/race"
	"repro/internal/raid"
	"repro/internal/store"
)

// allocLimit runs f and fails if it averages more than limit heap
// allocations per run. The devices are local in-memory disks, so these
// limits pin the engine's own bookkeeping: closure fan-out and gather
// lists, with no staging copies of the data itself.
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

// allocAt is where the pinned operations land: after the 12 -> 14 grow
// each base disk keeps offsets 0..216 and donates the rest, so the 12
// blocks from allocAt are six at their base homes followed by six on
// override placements.
const allocAt = 217*12 - 6

// allocArray builds a 12-disk array at layout generation gen: 0 is a
// fresh array, 1 the same array after a committed 12 -> 14 node grow, so
// the blocks under test sit partly on override placements.
func allocArray(t *testing.T, gen int) *RAIDx {
	t.Helper()
	mk := func(first, n int) []raid.Dev {
		devs := make([]raid.Dev, n)
		for i := range devs {
			devs[i] = disk.New(nil, fmt.Sprintf("d%d", first+i), store.NewMem(32<<10, 512), disk.DefaultModel())
		}
		return devs
	}
	a, err := New(mk(0, 12), 12, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen == 1 {
		m, err := a.BeginGrow(2, mk(12, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
		lo, _ := a.Epoch().Moved(allocAt)
		hi, _ := a.Epoch().Moved(allocAt + 6)
		if lo || !hi {
			t.Fatalf("stripe under test should straddle base and override placements; moved = %v, %v", lo, hi)
		}
	}
	return a
}

// allocCases runs f at every layout generation: the limits below hold
// for the one placement path whatever the generation.
func allocCases(t *testing.T, f func(t *testing.T, a *RAIDx)) {
	for gen := 0; gen <= 1; gen++ {
		t.Run(fmt.Sprintf("gen%d", gen), func(t *testing.T) { f(t, allocArray(t, gen)) })
	}
}

// TestAllocsWriteStripe pins a full-stripe write: the plan, its gather
// lists and the fan-out list come from the pool, so the per-op cost is
// the closure fan-out and par.Do bookkeeping — independent of the
// stripe's byte size.
func TestAllocsWriteStripe(t *testing.T) {
	allocCases(t, func(t *testing.T, a *RAIDx) {
		ctx := context.Background()
		buf := make([]byte, 12*a.BlockSize())
		allocLimit(t, 24, func() {
			if err := a.WriteBlocks(ctx, allocAt, buf); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestAllocsReadStripe pins a full-stripe read: blocks scatter straight
// into the caller's buffer, no staging buffer per column.
func TestAllocsReadStripe(t *testing.T) {
	allocCases(t, func(t *testing.T, a *RAIDx) {
		ctx := context.Background()
		buf := make([]byte, 12*a.BlockSize())
		if err := a.WriteBlocks(ctx, allocAt, buf); err != nil {
			t.Fatal(err)
		}
		allocLimit(t, 20, func() {
			if err := a.ReadBlocks(ctx, allocAt, buf); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestAllocsWriteSmall pins the paper's small-write case: one block,
// one data write plus one deferred image write.
func TestAllocsWriteSmall(t *testing.T) {
	allocCases(t, func(t *testing.T, a *RAIDx) {
		ctx := context.Background()
		buf := make([]byte, a.BlockSize())
		allocLimit(t, 8, func() {
			if err := a.WriteBlocks(ctx, allocAt+6, buf); err != nil {
				t.Fatal(err)
			}
		})
	})
}
