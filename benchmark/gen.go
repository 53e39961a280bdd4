package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// The benchmark owns its operation generator: the program under test
// sees block numbers and buffers, never the seed. Everything here is a
// pure function of (seed, client), so two runs with the same seed issue
// the same operations in the same per-client order.

// rng is splitmix64: one add and three xor-shift-multiplies per draw,
// no state beyond the counter, so a per-client stream is just a
// different starting point.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newRNG derives an independent stream for (seed, stream).
func newRNG(seed uint64, stream uint64) rng {
	return rng{s: mix64(seed*0x9e3779b97f4a7c15 + stream + 1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s from a
// precomputed CDF, and scatters ranks over the key space with a seeded
// permutation so the hot keys are not physically adjacent (adjacent hot
// blocks would let one cached or sequential run serve them all).
type zipf struct {
	cdf  []float64
	perm []int32
}

func newZipf(n int, s float64, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]int32, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	for i := range z.perm {
		z.perm[i] = int32(i)
	}
	r := newRNG(seed, 0x7a697066) // "zipf"
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

// draw returns a key in [0,n).
func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.perm) {
		k = len(z.perm) - 1
	}
	return int(z.perm[k])
}

// Block stamps. Every block the benchmark writes starts with a 16-byte
// stamp (seed, version, logical block) and continues with a fill that
// is a function of the stamp, so a block that lands at the wrong
// address, an old version, or a torn/garbled payload are all visible to
// the reader.
const stampSize = 16

type stamp struct {
	seed    uint32
	version uint32
	block   uint64
}

func putStamp(b []byte, s stamp) {
	binary.LittleEndian.PutUint32(b[0:], s.seed)
	binary.LittleEndian.PutUint32(b[4:], s.version)
	binary.LittleEndian.PutUint64(b[8:], s.block)
}

func getStamp(b []byte) stamp {
	return stamp{
		seed:    binary.LittleEndian.Uint32(b[0:]),
		version: binary.LittleEndian.Uint32(b[4:]),
		block:   binary.LittleEndian.Uint64(b[8:]),
	}
}

// fillStep is odd, so the fill words of one block are all distinct.
const fillStep = 0x9e3779b97f4a7c15

func fillWord(s stamp) uint64 {
	return mix64(uint64(s.seed)<<32 | uint64(s.version) ^ s.block*fillStep)
}

// fillBlock writes the stamp and its derived fill into one block.
func fillBlock(b []byte, s stamp) {
	putStamp(b, s)
	w := fillWord(s)
	for off := stampSize; off+8 <= len(b); off += 8 {
		w += fillStep
		binary.LittleEndian.PutUint64(b[off:], w)
	}
}

// checkFill reports whether b is exactly what fillBlock(s) produces.
func checkFill(b []byte, s stamp) bool {
	if getStamp(b) != s {
		return false
	}
	w := fillWord(s)
	for off := stampSize; off+8 <= len(b); off += 8 {
		w += fillStep
		if binary.LittleEndian.Uint64(b[off:]) != w {
			return false
		}
	}
	return true
}

// model is the generator's record of what every block must hold: one
// version per logical block. Clients own disjoint block ranges, so each
// entry has a single writer and needs no lock.
type model struct {
	seed     uint32
	versions []uint32
}

func newModel(seed uint64, blocks int64) *model {
	return &model{seed: uint32(seed), versions: make([]uint32, blocks)}
}

// stampFor is the stamp block b must currently hold.
func (m *model) stampFor(b int64) stamp {
	return stamp{seed: m.seed, version: m.versions[b], block: uint64(b)}
}

// fillNext bumps the versions of the blocks buf will overwrite at b and
// fills buf with their new contents. The caller issues the write next;
// a failed write leaves the model ahead of the array, which the
// read-back then reports — a failed op is a failure either way.
func (m *model) fillNext(b int64, buf []byte, bs int) {
	for i := 0; i*bs < len(buf); i++ {
		lb := b + int64(i)
		m.versions[lb]++
		fillBlock(buf[i*bs:(i+1)*bs], m.stampFor(lb))
	}
}

// check verifies a read of len(buf)/bs blocks at b: stamps always, the
// whole payload when full is set. It returns the number of bad blocks.
func (m *model) check(b int64, buf []byte, bs int, full bool) int {
	bad := 0
	for i := 0; i*bs < len(buf); i++ {
		blk := buf[i*bs : (i+1)*bs]
		want := m.stampFor(b + int64(i))
		if full {
			if !checkFill(blk, want) {
				bad++
			}
		} else if getStamp(blk) != want {
			bad++
		}
	}
	return bad
}
