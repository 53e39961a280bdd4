package parity

import (
	"math/rand"
	"testing"
)

// The kernel benchmarks: the byte-loop "before" row, the word-parallel
// kernel, and the RS codec at the geometries the vol package ships
// (rs(8,2) default cold tier). The benchmark ladder's ladder.parity.*
// rows time the same calls.

func benchBufs(n int) (dst, src []byte) {
	rng := rand.New(rand.NewSource(42))
	dst = make([]byte, n)
	src = make([]byte, n)
	rng.Read(dst)
	rng.Read(src)
	return
}

func BenchmarkXorBytewise64K(b *testing.B) {
	dst, src := benchBufs(64 << 10)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		XorIntoBytewise(dst, src)
	}
}

func BenchmarkXorKernel64K(b *testing.B) {
	dst, src := benchBufs(64 << 10)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

func BenchmarkXorKernel4K(b *testing.B) {
	dst, src := benchBufs(4 << 10)
	b.SetBytes(4 << 10)
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

func BenchmarkGalMulXor64K(b *testing.B) {
	dst, src := benchBufs(64 << 10)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		GalMulXor(dst, src, 29)
	}
}

func benchRSEncode(b *testing.B, k, m, shard int) {
	rs, err := NewRS(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	data := make([][]byte, k)
	parity := make([][]byte, m)
	for i := range data {
		data[i] = make([]byte, shard)
		rng.Read(data[i])
	}
	for j := range parity {
		parity[j] = make([]byte, shard)
	}
	b.SetBytes(int64(k * shard)) // data throughput, the standard RS metric
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSEncode8x2(b *testing.B)  { benchRSEncode(b, 8, 2, 64<<10) }
func BenchmarkRSEncode10x4(b *testing.B) { benchRSEncode(b, 10, 4, 64<<10) }
func BenchmarkRSEncode4x1(b *testing.B)  { benchRSEncode(b, 4, 1, 64<<10) }

func BenchmarkRSReconstruct8x2(b *testing.B) {
	rs, err := NewRS(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	all := make([][]byte, 10)
	for i := range all {
		all[i] = make([]byte, 64<<10)
		rng.Read(all[i])
	}
	if err := rs.Encode(all[:8], all[8:]); err != nil {
		b.Fatal(err)
	}
	present := make([]bool, 10)
	for i := range present {
		present[i] = true
	}
	present[2], present[5] = false, false
	b.SetBytes(int64(8 * 64 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.Reconstruct(all, present); err != nil {
			b.Fatal(err)
		}
	}
}
