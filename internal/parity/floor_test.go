package parity

import (
	"math/rand"
	"testing"

	"repro/internal/race"
)

// TestAllocsParityKernels pins the kernels at zero allocations per
// call — they must be safe to run per-stripe on the hot path over
// pooled buffers. Runs in `make benchcheck`; meaningless under -race
// (the race runtime allocates on its own account).
func TestAllocsParityKernels(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(50))
	dst := make([]byte, 64<<10)
	src := make([]byte, 64<<10)
	rng.Read(src)

	rs, err := NewRS(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 8)
	parity := make([][]byte, 2)
	for i := range data {
		data[i] = make([]byte, 4096)
		rng.Read(data[i])
	}
	for j := range parity {
		parity[j] = make([]byte, 4096)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"XorInto", func() { XorInto(dst, src) }},
		{"mul2Into", func() { mul2Into(dst) }},
		{"GalMulXor", func() { GalMulXor(dst, src, 29) }},
		{"Encode", func() {
			if err := rs.Encode(data, parity); err != nil {
				t.Fatal(err)
			}
		}},
		{"Update", func() { rs.Update(parity, 3, data[0]) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n > 0 {
			t.Errorf("%s allocates %.0f per call, want 0", c.name, n)
		}
	}
}

// TestFloorParityThroughput is the benchcheck regression floor: the
// word-parallel kernel must beat the byte loop by a wide margin, and
// RS(8,2) encode must stay in hundreds-of-MB/s territory even on a
// throttled CI host. The real numbers (≥8× and ≥1 GB/s on the bench
// host) are the benchmark ladder's ladder.parity.xor_64k and
// ladder.parity.rs_8_2.encode_64k (PR 9's are in EXPERIMENTS.md's
// wall-clock history); the floors here are deliberately conservative so
// the test never flakes
// on shared hardware while still catching a kernel that silently
// degrades to byte-at-a-time.
func TestFloorParityThroughput(t *testing.T) {
	if race.Enabled {
		t.Skip("throughput floors are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("skipping throughput floor in -short mode")
	}
	const n = 64 << 10
	dst, src := benchBufs(n)

	bytewise := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			XorIntoBytewise(dst, src)
		}
	})
	kernel := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			XorInto(dst, src)
		}
	})
	mbps := func(r testing.BenchmarkResult) float64 {
		return float64(n) * float64(r.N) / r.T.Seconds() / 1e6
	}
	ratio := mbps(kernel) / mbps(bytewise)
	t.Logf("xor kernel (%s): %.0f MB/s, byte loop: %.0f MB/s, speedup %.1fx",
		KernelName(), mbps(kernel), mbps(bytewise), ratio)
	// The portable safe64 path (purego, or an arch without the unsafe
	// fast path) only manages ~2x over the compiler-optimized byte
	// loop; the floor there just pins "still word-parallel".
	floor := 3.0
	if !fastPath && simdXor == nil {
		floor = 1.5
	}
	if ratio < floor {
		t.Errorf("XOR kernel only %.1fx over byte loop, floor is %.1fx", ratio, floor)
	}

	enc := testing.Benchmark(func(b *testing.B) { benchRSEncode(b, 8, 2, n) })
	encMBps := float64(8*n) * float64(enc.N) / enc.T.Seconds() / 1e6
	t.Logf("rs(8,2) encode: %.0f MB/s", encMBps)
	if encMBps < 300 {
		t.Errorf("rs(8,2) encode %.0f MB/s, floor is 300 MB/s", encMBps)
	}
}
