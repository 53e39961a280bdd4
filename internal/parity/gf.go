package parity

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d) — the field used by Linux md raid6 and every mainstream RS
// implementation, so on-disk parity is comparable against external
// tools. The bulk kernels use the split 4-bit table idiom: for a fixed
// coefficient c, c·x = lo[x & 0xf] ^ hi[x >> 4], two 16-entry tables
// per coefficient. That is the scalar form of the PSHUFB/TBL
// vectorization used by SIMD RS libraries; in pure Go it keeps both
// tables for the active coefficient in L1 and lets the compiler keep
// them in registers across the 8-way unrolled loop. On amd64 with AVX2
// the same two tables feed VPSHUFB, 32 lookups per instruction, and the
// table loop is left the tail.

var (
	gfExp [512]byte // α^i, doubled so mul can skip the mod 255
	gfLog [256]byte // log_α(x); gfLog[0] unused
	// mulLo[c][v] = c·v and mulHi[c][v] = c·(v<<4) for v in [0,16):
	// 8 KiB total, built once at init.
	mulLo [256][16]byte
	mulHi [256][16]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		x = mulBy2(x)
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 0; c < 256; c++ {
		for v := 0; v < 16; v++ {
			mulLo[c][v] = gfMulBitwise(byte(c), byte(v))
			mulHi[c][v] = gfMulBitwise(byte(c), byte(v<<4))
		}
	}
}

// mulBy2 multiplies a single byte by 2 in the field.
func mulBy2(b byte) byte {
	r := b << 1
	if b&0x80 != 0 {
		r ^= 0x1d
	}
	return r
}

// gfMulBitwise is the shift-and-add reference multiply, used only to
// build tables and as the oracle in equivalence tests.
func gfMulBitwise(a, b byte) byte {
	var r byte
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		a = mulBy2(a)
		b >>= 1
	}
	return r
}

// gfMul multiplies two field elements via the log/exp tables.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse; a must be nonzero.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// GalMulXor computes dst[i] ^= c·src[i] for i < len(src) — the RS
// multiply-accumulate kernel. c == 0 and c == 1 dispatch to the cheap
// forms; the general case hands the bulk to the vector tier, when there
// is one, and runs the rest through the split nibble tables.
func GalMulXor(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		XorInto(dst, src)
		return
	}
	n := len(src)
	if n == 0 {
		return
	}
	_ = dst[n-1]
	i := galMulVec(dst, src, c, true)
	mulXorTable(dst[i:n], src[i:], c)
}

// galMul computes dst[i] = c·src[i] for i < len(src), overwriting dst.
func galMul(dst, src []byte, c byte) {
	switch c {
	case 0:
		clearBytes(dst[:len(src)])
		return
	case 1:
		copy(dst, src)
		return
	}
	n := len(src)
	if n == 0 {
		return
	}
	_ = dst[n-1]
	i := galMulVec(dst, src, c, false)
	mulTable(dst[i:n], src[i:], c)
}

// mulXorTable is GalMulXor's table loop, 8 bytes per unrolled
// iteration; len(dst) == len(src).
func mulXorTable(dst, src []byte, c byte) {
	lo, hi := &mulLo[c], &mulHi[c]
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] ^= lo[src[i]&0xf] ^ hi[src[i]>>4]
		dst[i+1] ^= lo[src[i+1]&0xf] ^ hi[src[i+1]>>4]
		dst[i+2] ^= lo[src[i+2]&0xf] ^ hi[src[i+2]>>4]
		dst[i+3] ^= lo[src[i+3]&0xf] ^ hi[src[i+3]>>4]
		dst[i+4] ^= lo[src[i+4]&0xf] ^ hi[src[i+4]>>4]
		dst[i+5] ^= lo[src[i+5]&0xf] ^ hi[src[i+5]>>4]
		dst[i+6] ^= lo[src[i+6]&0xf] ^ hi[src[i+6]>>4]
		dst[i+7] ^= lo[src[i+7]&0xf] ^ hi[src[i+7]>>4]
	}
	for ; i < n; i++ {
		dst[i] ^= lo[src[i]&0xf] ^ hi[src[i]>>4]
	}
}

// mulTable is galMul's table loop; len(dst) == len(src).
func mulTable(dst, src []byte, c byte) {
	lo, hi := &mulLo[c], &mulHi[c]
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] = lo[src[i]&0xf] ^ hi[src[i]>>4]
		dst[i+1] = lo[src[i+1]&0xf] ^ hi[src[i+1]>>4]
		dst[i+2] = lo[src[i+2]&0xf] ^ hi[src[i+2]>>4]
		dst[i+3] = lo[src[i+3]&0xf] ^ hi[src[i+3]>>4]
		dst[i+4] = lo[src[i+4]&0xf] ^ hi[src[i+4]>>4]
		dst[i+5] = lo[src[i+5]&0xf] ^ hi[src[i+5]>>4]
		dst[i+6] = lo[src[i+6]&0xf] ^ hi[src[i+6]>>4]
		dst[i+7] = lo[src[i+7]&0xf] ^ hi[src[i+7]>>4]
	}
	for ; i < n; i++ {
		dst[i] = lo[src[i]&0xf] ^ hi[src[i]>>4]
	}
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
