//go:build !amd64 || purego

package parity

// No SIMD tier on this build: simdXor stays nil, XorInto runs the
// portable word kernels end to end and the GF(2^8) multiply the table
// loop.

const hasGFVector = false

func galMulVec(dst, src []byte, c byte, xor bool) int { return 0 }
