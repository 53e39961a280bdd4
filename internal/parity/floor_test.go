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
	// Two data shards erased; the warm-up call inverts and caches the
	// pattern's decode matrix, after which decoding allocates nothing.
	shards := append(append([][]byte(nil), data...), parity...)
	present := make([]bool, len(shards))
	for i := range present {
		present[i] = i != 2 && i != 5
	}
	if err := rs.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	if err := rs.Reconstruct(shards, present); err != nil {
		t.Fatal(err)
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
		{"Reconstruct", func() {
			if err := rs.Reconstruct(shards, present); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n > 0 {
			t.Errorf("%s allocates %.0f per call, want 0", c.name, n)
		}
	}
}

// TestFloorParityThroughput is the benchcheck regression floor: the
// word-parallel kernel must beat the byte loop by a wide margin, the
// vector GF(2^8) multiply its table loop, and
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

	// With the vector tier active, GalMulXor must beat its own table loop
	// by a wide margin (about 20× on an AVX2 Xeon): a silent fall-back to
	// the table loop fails here.
	if hasGFVector {
		table := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				mulXorTable(dst, src, 29)
			}
		})
		vec := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				GalMulXor(dst, src, 29)
			}
		})
		ratio := mbps(vec) / mbps(table)
		t.Logf("GalMulXor: %.0f MB/s, table loop: %.0f MB/s, speedup %.1fx", mbps(vec), mbps(table), ratio)
		if ratio < 4 {
			t.Errorf("GalMulXor only %.1fx over the table loop, floor is 4x", ratio)
		}
	}

	enc := testing.Benchmark(func(b *testing.B) { benchRSEncode(b, 8, 2, n) })
	encMBps := float64(8*n) * float64(enc.N) / enc.T.Seconds() / 1e6
	t.Logf("rs(8,2) encode: %.0f MB/s", encMBps)
	if encMBps < 300 {
		t.Errorf("rs(8,2) encode %.0f MB/s, floor is 300 MB/s", encMBps)
	}
}
