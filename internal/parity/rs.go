package parity

import (
	"errors"
	"fmt"
	"sync"
)

// RS is a systematic Reed-Solomon code over GF(2^8): k data shards, m
// parity shards, any m erasures recoverable (MDS). The generator rows
// depend on m:
//
//   - m == 1: the single parity row is all ones — plain XOR parity,
//     identical to RAID-5's, so the whole encode is the XOR kernel.
//   - m == 2: the RAID-6 P+Q construction — P row all ones, Q row
//     [2^0, 2^1, ..., 2^(k-1)]. Any k×k submatrix of [I; P; Q] is
//     invertible for k ≤ 255 (distinct powers of the generator), and Q
//     evaluates Horner-style with the word-parallel mul2 kernel, so
//     encode throughput stays XOR-class instead of table-lookup-class.
//   - m >= 3: systematic Vandermonde — build the (k+m)×k Vandermonde
//     matrix V over the distinct points α^0..α^(k+m-1) and normalize
//     by the inverse of its top k×k block. Any k rows of the result
//     are a product of two invertible matrices, which is the MDS
//     property. (The naive [I ; V] stacking does NOT have it — this is
//     Plank's classic correction.)
//
// All three agree on the API: rows[j][i] is the coefficient of data
// shard i in parity shard j.
type RS struct {
	k, m int
	rows [][]byte // m × k generator coefficients (parity part only)

	// per-row fast-path classification, fixed at construction
	rowKind []rowKind

	// inverses caches the decode matrix of each erasure pattern, k×k
	// row-major, keyed by the set of shards it decodes from.
	mu       sync.Mutex
	inverses map[shardSet][]byte
}

// shardSet is a set of shard indexes (k+m is at most 255).
type shardSet [4]uint64

func (s *shardSet) add(i int)     { s[i>>6] |= 1 << (i & 63) }
func (s shardSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// maxInverseBytes bounds the inverse cache; a code that meets more
// erasure patterns than fit starts the cache over.
const maxInverseBytes = 1 << 20

type rowKind uint8

const (
	rowGeneric rowKind = iota
	rowXOR             // all coefficients 1: parity is a plain XOR fold
	rowPow2            // coefficients [2^0..2^(k-1)]: Horner with mul2Into
)

// ErrShortShards is returned by Reconstruct when fewer than k shards
// are present — more than m erasures means data loss at this layer.
var ErrShortShards = errors.New("parity: too few shards present to reconstruct")

// NewRS builds a code with k data and m parity shards. k+m must be at
// most 255 (the field has 255 distinct nonzero evaluation points).
func NewRS(k, m int) (*RS, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("parity: rs(%d,%d): k and m must be >= 1", k, m)
	}
	if k+m > 255 {
		return nil, fmt.Errorf("parity: rs(%d,%d): k+m must be <= 255", k, m)
	}
	r := &RS{k: k, m: m}
	switch {
	case m == 1:
		row := make([]byte, k)
		for i := range row {
			row[i] = 1
		}
		r.rows = [][]byte{row}
	case m == 2:
		p := make([]byte, k)
		q := make([]byte, k)
		for i := 0; i < k; i++ {
			p[i] = 1
			q[i] = gfExp[i]
		}
		r.rows = [][]byte{p, q}
	default:
		n := k + m
		v := make([][]byte, n)
		for row := 0; row < n; row++ {
			v[row] = make([]byte, k)
			for col := 0; col < k; col++ {
				v[row][col] = gfExp[(row*col)%255]
			}
		}
		topInv, err := matInvert(v[:k])
		if err != nil {
			return nil, fmt.Errorf("parity: rs(%d,%d): %w", k, m, err)
		}
		r.rows = make([][]byte, m)
		for j := 0; j < m; j++ {
			r.rows[j] = matMulRow(v[k+j], topInv)
		}
	}
	r.rowKind = make([]rowKind, m)
	for j, row := range r.rows {
		r.rowKind[j] = classifyRow(row)
	}
	return r, nil
}

func classifyRow(row []byte) rowKind {
	xor, pow2 := true, true
	for i, c := range row {
		if c != 1 {
			xor = false
		}
		if c != gfExp[i%255] {
			pow2 = false
		}
	}
	switch {
	case xor:
		return rowXOR
	case pow2:
		return rowPow2
	default:
		return rowGeneric
	}
}

// K and M report the code geometry.
func (r *RS) K() int { return r.k }
func (r *RS) M() int { return r.m }

// Encode computes the m parity shards from the k data shards, in
// place: parity[j] is overwritten. All shards must be the same length.
// data slices are read-only; nothing is allocated, so callers can pass
// pooled bufpool blocks or sub-slices of the user's buffer (the
// zero-copy write path does exactly that).
func (r *RS) Encode(data, parity [][]byte) error {
	if err := r.checkShards(data, parity); err != nil {
		return err
	}
	for j, out := range parity {
		r.encodeRow(j, out, data)
	}
	return nil
}

func (r *RS) encodeRow(j int, out []byte, data [][]byte) {
	switch r.rowKind[j] {
	case rowXOR:
		copy(out, data[0])
		for i := 1; i < r.k; i++ {
			XorInto(out, data[i])
		}
	case rowPow2:
		// Horner: Σ d_i·2^i = d_0 ^ 2·(d_1 ^ 2·(d_2 ^ ...)) — one
		// word-parallel mul2 + one XOR per data shard.
		copy(out, data[r.k-1])
		for i := r.k - 2; i >= 0; i-- {
			mul2Into(out)
			XorInto(out, data[i])
		}
	default:
		row := r.rows[j]
		galMul(out, data[0], row[0])
		for i := 1; i < r.k; i++ {
			GalMulXor(out, data[i], row[i])
		}
	}
}

// Update applies a data-shard delta to all parity shards in place:
// parity[j] ^= rows[j][shard]·delta. This is the read-modify-write
// small-write path — the caller reads old data, XORs new data over it
// to form delta, and avoids touching the other k-1 data shards. A nil
// parity[j] (a parity shard the caller has lost) is skipped.
func (r *RS) Update(parity [][]byte, shard int, delta []byte) {
	for j, out := range parity {
		if out != nil {
			GalMulXor(out, delta, r.rows[j][shard])
		}
	}
}

// Reconstruct fills in the missing shards the caller wants, in place.
// shards holds all k+m shards in order (data first, then parity);
// present[i] reports whether shards[i] holds valid content. A missing
// shard backed by a full-length buffer is wanted and overwritten; one
// passed as nil is not wanted and stays nil. Missing parity is encoded
// from the data, so wanting it while a missing data shard is nil is an
// error. At least k shards must be present or ErrShortShards is
// returned. Each erasure pattern's decode matrix is inverted once and
// cached on the code: after the first call for a pattern, Reconstruct
// allocates nothing.
func (r *RS) Reconstruct(shards [][]byte, present []bool) error {
	n := r.k + r.m
	if len(shards) != n || len(present) != n {
		return fmt.Errorf("parity: rs(%d,%d): want %d shards, got %d (present %d)", r.k, r.m, n, len(shards), len(present))
	}
	size, have := -1, 0
	wantData, wantParity, dataNil := false, false, false
	for i, s := range shards {
		switch {
		case present[i]:
			have++
			if s == nil {
				return fmt.Errorf("parity: shard %d present but nil", i)
			}
		case s == nil:
			dataNil = dataNil || i < r.k
			continue
		case i < r.k:
			wantData = true
		default:
			wantParity = true
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("parity: shard %d length %d != %d", i, len(s), size)
		}
	}
	if have < r.k {
		return fmt.Errorf("%w: %d of %d present, need %d", ErrShortShards, have, n, r.k)
	}
	if wantParity && dataNil {
		return fmt.Errorf("parity: rs(%d,%d): missing parity wanted, but a missing data shard is nil", r.k, r.m)
	}
	if wantData {
		if err := r.decodeData(shards, present); err != nil {
			return err
		}
	}
	// All data is now valid; recompute any wanted parity directly.
	for j := 0; wantParity && j < r.m; j++ {
		if !present[r.k+j] && shards[r.k+j] != nil {
			r.encodeRow(j, shards[r.k+j], shards[:r.k])
		}
	}
	return nil
}

// decodeData solves for the wanted missing data shards from the first k
// present shards: each is its row of the inverse of those shards' rows
// of the systematic generator [I ; rows], dotted with them.
func (r *RS) decodeData(shards [][]byte, present []bool) error {
	var chosen shardSet
	for i, c := 0, 0; c < r.k; i++ {
		if present[i] {
			chosen.add(i)
			c++
		}
	}
	inv, err := r.inverse(chosen)
	if err != nil {
		return err
	}
	for i := 0; i < r.k; i++ {
		out := shards[i]
		if present[i] || out == nil {
			continue
		}
		coef := inv[i*r.k : (i+1)*r.k]
		for j, c := 0, 0; c < r.k; j++ {
			if !chosen.has(j) {
				continue
			}
			if c == 0 {
				galMul(out, shards[j], coef[c])
			} else {
				GalMulXor(out, shards[j], coef[c])
			}
			c++
		}
	}
	return nil
}

// inverse returns the decode matrix for the chosen shards, from the
// cache or by Gauss-Jordan inversion of their generator rows.
func (r *RS) inverse(chosen shardSet) ([]byte, error) {
	r.mu.Lock()
	inv, ok := r.inverses[chosen]
	r.mu.Unlock()
	if ok {
		return inv, nil
	}
	mat := make([][]byte, 0, r.k)
	for i := 0; i < r.k+r.m; i++ {
		if !chosen.has(i) {
			continue
		}
		row := make([]byte, r.k)
		if i < r.k {
			row[i] = 1
		} else {
			copy(row, r.rows[i-r.k])
		}
		mat = append(mat, row)
	}
	rows, err := matInvert(mat)
	if err != nil {
		return nil, fmt.Errorf("parity: reconstruct: %w", err)
	}
	inv = make([]byte, 0, r.k*r.k)
	for _, row := range rows {
		inv = append(inv, row...)
	}
	r.mu.Lock()
	if r.inverses == nil || (len(r.inverses)+1)*r.k*r.k > maxInverseBytes {
		r.inverses = map[shardSet][]byte{}
	}
	r.inverses[chosen] = inv
	r.mu.Unlock()
	return inv, nil
}

// matInvert returns the inverse of a square matrix over GF(2^8) via
// Gauss-Jordan elimination. The input is not modified.
func matInvert(m [][]byte) ([][]byte, error) {
	n := len(m)
	// Augmented [work | inv], starting as [m | I].
	work := make([][]byte, n)
	inv := make([][]byte, n)
	for i := 0; i < n; i++ {
		work[i] = append([]byte(nil), m[i]...)
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for row := col; row < n; row++ {
			if work[row][col] != 0 {
				pivot = row
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if d := work[col][col]; d != 1 {
			di := gfInv(d)
			scaleRow(work[col], di)
			scaleRow(inv[col], di)
		}
		for row := 0; row < n; row++ {
			if row == col || work[row][col] == 0 {
				continue
			}
			f := work[row][col]
			addScaledRow(work[row], work[col], f)
			addScaledRow(inv[row], inv[col], f)
		}
	}
	return inv, nil
}

func scaleRow(row []byte, c byte) {
	for i := range row {
		row[i] = gfMul(row[i], c)
	}
}

// addScaledRow computes dst ^= c·src element-wise.
func addScaledRow(dst, src []byte, c byte) {
	for i := range dst {
		dst[i] ^= gfMul(src[i], c)
	}
}

// matMulRow returns row·m for a 1×n row vector and n×n matrix.
func matMulRow(row []byte, m [][]byte) []byte {
	n := len(row)
	out := make([]byte, len(m[0]))
	for j := range out {
		var acc byte
		for i := 0; i < n; i++ {
			acc ^= gfMul(row[i], m[i][j])
		}
		out[j] = acc
	}
	return out
}

func (r *RS) checkShards(data, parity [][]byte) error {
	if len(data) != r.k || len(parity) != r.m {
		return fmt.Errorf("parity: rs(%d,%d): got %d data + %d parity shards", r.k, r.m, len(data), len(parity))
	}
	size := len(data[0])
	for i, s := range data {
		if len(s) != size {
			return fmt.Errorf("parity: data shard %d length %d != %d", i, len(s), size)
		}
	}
	for j, s := range parity {
		if len(s) != size {
			return fmt.Errorf("parity: parity shard %d length %d != %d", j, len(s), size)
		}
	}
	return nil
}
