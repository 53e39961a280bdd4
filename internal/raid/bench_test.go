package raid_test

import (
	"context"
	"testing"

	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

// benchOver times one-block (small) or twelve-block writes on e over
// twelve members.
func benchOver(b *testing.B, e raidtest.Engine, small bool) {
	b.Helper()
	a, _ := raidtest.Build[raid.Array](b, e, raidtest.Disks{Blocks: 512})
	ctx := context.Background()
	n := 12
	if small {
		n = 1
	}
	buf := make([]byte, n*a.BlockSize())
	// Seed so RAID-5 RMW reads hit initialized parity.
	if err := a.WriteBlocks(ctx, 0, make([]byte, 24*a.BlockSize())); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteBlocks(ctx, int64(i%12), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkRAID0LargeWrite(b *testing.B)   { benchOver(b, raidtest.RAID0(12), false) }
func BenchmarkRAID5SmallWrite(b *testing.B)   { benchOver(b, raidtest.RAID5(12), true) }
func BenchmarkRAID5LargeWrite(b *testing.B)   { benchOver(b, raidtest.RAID5(12), false) }
func BenchmarkRAID10SmallWrite(b *testing.B)  { benchOver(b, raidtest.RAID10(12), true) }
func BenchmarkChainedLargeWrite(b *testing.B) { benchOver(b, raidtest.Chained(12), false) }
