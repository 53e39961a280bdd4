//go:build !purego

package parity

// The amd64 SIMD tier sits above the word kernels: XorInto hands the
// bulk of each buffer (rounded down to the lane-block size) to one of
// these routines and finishes the tail with the portable word loop;
// GalMulXor and galMul do the same with the nibble-table multiply.
// SSE2 is architectural baseline on amd64 so it needs no detection;
// AVX2 is picked at init when the CPU has it and the OS saves YMM
// state. The purego build tag drops this file (and the .s file)
// entirely, leaving the portable kernels.

// xorSSE2 XORs n bytes of src into dst, 64 bytes per iteration.
// n must be a positive multiple of 64. dst == src is allowed; any
// other overlap is not.
//
//go:noescape
func xorSSE2(dst, src *byte, n int)

// xorAVX2 XORs n bytes of src into dst, 128 bytes per iteration.
// n must be a positive multiple of 128. Same aliasing contract.
//
//go:noescape
func xorAVX2(dst, src *byte, n int)

// galMulAVX2 multiplies n bytes of src by the coefficient whose nibble
// tables are lo and hi, 32 bytes per iteration, xoring the products
// into dst or, with xor false, overwriting dst. n must be a positive
// multiple of 32; dst and src must not overlap.
//
//go:noescape
func galMulAVX2(lo, hi *[16]byte, dst, src *byte, n int, xor bool)

// x86HasAVX2 reports CPU AVX2 support with OS-enabled YMM state
// (OSXSAVE + XGETBV), the full check — CPUID alone is not enough on a
// kernel that doesn't save extended state.
func x86HasAVX2() bool

// hasGFVector reports whether galMulVec runs the AVX2 routine.
var hasGFVector bool

func init() {
	if x86HasAVX2() {
		simdXor, simdChunk, kernelSuffix = xorAVX2, 128, "+avx2"
		hasGFVector = true
	} else {
		simdXor, simdChunk, kernelSuffix = xorSSE2, 64, "+sse2"
	}
}

// galMulVec multiplies the bulk of src by c — its length rounded down to
// 32 bytes — into dst (xor: dst ^= c·src, else dst = c·src) and returns
// how many bytes it did; the table loop does the rest.
func galMulVec(dst, src []byte, c byte, xor bool) int {
	n := len(src) &^ 31
	if !hasGFVector || n == 0 {
		return 0
	}
	galMulAVX2(&mulLo[c], &mulHi[c], &dst[0], &src[0], n, xor)
	return n
}
