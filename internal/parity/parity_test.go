package parity

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestXorKernelEquivalence checks the word-parallel kernel against the
// byte-loop oracle across lengths that exercise every tail shape (0,
// 1, 7, 8, 9, 63, 64, 65, ...) and across unaligned sub-slices, so
// both the unrolled body and the edges are covered on whatever word
// path this build compiled in.
func TestXorKernelEquivalence(t *testing.T) {
	t.Logf("kernel: %s", KernelName())
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 1000, 4096, 65536}
	for _, n := range lengths {
		for off := 0; off < 9; off++ {
			dst := make([]byte, n+off+16)
			src := make([]byte, n+off+16)
			rng.Read(dst)
			rng.Read(src)
			want := append([]byte(nil), dst...)
			if n > 0 {
				XorIntoBytewise(want[off:off+n], src[off:off+n])
			}
			XorInto(dst[off:off+n], src[off:off+n])
			if !bytes.Equal(dst, want) {
				t.Fatalf("XorInto mismatch at n=%d off=%d (first diff %d)", n, off, FirstDiff(dst, want))
			}
		}
	}
}

func TestXorIntoSelfZeroes(t *testing.T) {
	b := make([]byte, 777)
	rand.New(rand.NewSource(2)).Read(b)
	XorInto(b, b)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
}

// TestMul2Equivalence checks the SWAR ·2 kernel against the per-byte
// reference across odd lengths and offsets.
func TestMul2Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 16, 31, 255, 4096} {
		for off := 0; off < 9; off++ {
			b := make([]byte, n+off)
			rng.Read(b)
			want := make([]byte, n)
			for i := 0; i < n; i++ {
				want[i] = mulBy2(b[off+i])
			}
			mul2Into(b[off : off+n])
			if !bytes.Equal(b[off:off+n], want) {
				t.Fatalf("mul2Into mismatch at n=%d off=%d", n, off)
			}
		}
	}
}

// TestGFTables cross-checks the log/exp multiply and the nibble tables
// against the bitwise reference over the full 256×256 operand space.
func TestGFTables(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := gfMulBitwise(byte(a), byte(b))
			if got := gfMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got := mulLo[a][b&0xf] ^ mulHi[a][b>>4]; got != want {
				t.Fatalf("nibble mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d", got, a)
		}
	}
}

// TestGalMulEquivalence checks the bulk multiply kernels against the
// bitwise reference for every coefficient, on lengths either side of the
// vector tier's 32-byte step and at src and dst offsets 0-3, so the
// vector bulk, the table-loop tail and the edges are all covered on
// whatever tier this build picked. The bytes around dst must not move.
func TestGalMulEquivalence(t *testing.T) {
	t.Logf("kernel: %s, vector GF(2^8): %v", KernelName(), hasGFVector)
	var prod [256][256]byte
	for c := range prod {
		for x := range prod[c] {
			prod[c][x] = gfMulBitwise(byte(c), byte(x))
		}
	}
	rng := rand.New(rand.NewSource(4))
	const guard = 8
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 203, 4103} {
		for srcOff := 0; srcOff < 4; srcOff++ {
			for dstOff := 0; dstOff < 4; dstOff++ {
				srcBuf := make([]byte, srcOff+n)
				rng.Read(srcBuf)
				src := srcBuf[srcOff:]
				for c := 0; c < 256; c++ {
					for _, xor := range []bool{true, false} {
						buf := make([]byte, dstOff+n+guard)
						rng.Read(buf)
						want := append([]byte(nil), buf...)
						for i, v := range src {
							if xor {
								want[dstOff+i] ^= prod[c][v]
							} else {
								want[dstOff+i] = prod[c][v]
							}
						}
						name := "GalMulXor"
						if xor {
							GalMulXor(buf[dstOff:dstOff+n], src, byte(c))
						} else {
							name = "galMul"
							galMul(buf[dstOff:dstOff+n], src, byte(c))
						}
						if !bytes.Equal(buf, want) {
							t.Fatalf("%s c=%d n=%d src+%d dst+%d: mismatch at %d", name, c, n, srcOff, dstOff, FirstDiff(buf, want)-dstOff)
						}
					}
				}
			}
		}
	}
}

func TestFirstDiff(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", -1},
		{"abc", "abc", -1},
		{"abc", "abd", 2},
		{"abc", "ab", 2},
		{"ab", "abc", 2},
		{"xbc", "abc", 0},
		{"aaaaaaaaaaaaaaaab", "aaaaaaaaaaaaaaaac", 16},
	}
	for _, c := range cases {
		if got := FirstDiff([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("FirstDiff(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Long-buffer sweep: a single flipped byte at every position.
	base := make([]byte, 300)
	rand.New(rand.NewSource(5)).Read(base)
	other := append([]byte(nil), base...)
	for i := range base {
		other[i] ^= 0x40
		if got := FirstDiff(base, other); got != i {
			t.Fatalf("FirstDiff flipped@%d = %d", i, got)
		}
		other[i] = base[i]
	}
}

// TestKernelsRaceParallel drives the in-place kernels from many
// goroutines sharing read-only sources — the pattern the raid engines
// use under par.ForEach — so `make race` covers the unsafe word path —
// and decodes eight erasure patterns at once through one shared code,
// so it covers the inverse cache too.
func TestKernelsRaceParallel(t *testing.T) {
	src := make([]byte, 8192)
	rand.New(rand.NewSource(6)).Read(src)
	rs, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One code shared by every decoder, so its inverse cache is filled
	// and read concurrently, one erasure pattern per goroutine.
	shared, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	clean := make([][]byte, 6)
	for i := range clean {
		clean[i] = make([]byte, 1024)
		if i < 4 {
			copy(clean[i], src[i*1024:])
		}
	}
	if err := shared.Encode(clean[:4], clean[4:]); err != nil {
		t.Fatal(err)
	}
	t.Run("group", func(t *testing.T) {
		for g := 0; g < 8; g++ {
			t.Run("", func(t *testing.T) {
				t.Parallel()
				lost := [2]int{g % 4, (g + 1 + g/4) % 6}
				work := make([][]byte, 6)
				present := make([]bool, 6)
				for iter := 0; iter < 50; iter++ {
					for i := range work {
						work[i] = append(work[i][:0], clean[i]...)
						present[i] = i != lost[0] && i != lost[1]
						if !present[i] {
							clear(work[i])
						}
					}
					if err := shared.Reconstruct(work, present); err != nil {
						t.Error(err)
						return
					}
					for i := range work {
						if !bytes.Equal(work[i], clean[i]) {
							t.Errorf("pattern %v: shard %d wrong", lost, i)
							return
						}
					}
				}
			})
		}
		for g := 0; g < 8; g++ {
			t.Run("", func(t *testing.T) {
				t.Parallel()
				dst := make([]byte, len(src))
				data := make([][]byte, 4)
				parity := make([][]byte, 2)
				for i := range data {
					data[i] = src[i*2048 : (i+1)*2048]
				}
				for j := range parity {
					parity[j] = make([]byte, 2048)
				}
				for iter := 0; iter < 50; iter++ {
					XorInto(dst, src)
					mul2Into(dst)
					GalMulXor(dst, src, 7)
					if err := rs.Encode(data, parity); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	})
}
