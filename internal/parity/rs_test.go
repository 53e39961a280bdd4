package parity

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func mkShards(rng *rand.Rand, k, m, size int) (data, parity, all [][]byte, present []bool) {
	all = make([][]byte, k+m)
	for i := range all {
		all[i] = make([]byte, size)
	}
	data, parity = all[:k], all[k:]
	for _, d := range data {
		rng.Read(d)
	}
	present = make([]bool, k+m)
	for i := range present {
		present[i] = true
	}
	return
}

// TestRSRoundTripGeometries encodes and reconstructs across the
// geometry space: every (k,m) with k ≤ 12, m ≤ 4 plus a few large
// shapes, dropping a random set of exactly m shards each time. Each
// construction branch (XOR row, P+Q, systematic Vandermonde) is
// covered.
func TestRSRoundTripGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type geom struct{ k, m int }
	var geoms []geom
	for k := 1; k <= 12; k++ {
		for m := 1; m <= 4; m++ {
			geoms = append(geoms, geom{k, m})
		}
	}
	geoms = append(geoms, geom{17, 3}, geom{32, 4}, geom{100, 5}, geom{250, 5})
	for _, g := range geoms {
		rs, err := NewRS(g.k, g.m)
		if err != nil {
			t.Fatalf("NewRS(%d,%d): %v", g.k, g.m, err)
		}
		size := 97 // odd, forces tails
		data, parity, all, present := mkShards(rng, g.k, g.m, size)
		if err := rs.Encode(data, parity); err != nil {
			t.Fatalf("rs(%d,%d) encode: %v", g.k, g.m, err)
		}
		want := make([][]byte, len(all))
		for i, s := range all {
			want[i] = append([]byte(nil), s...)
		}
		// Drop exactly m random shards.
		for _, idx := range rng.Perm(g.k + g.m)[:g.m] {
			present[idx] = false
			rng.Read(all[idx]) // scribble: must be fully recomputed
		}
		if err := rs.Reconstruct(all, present); err != nil {
			t.Fatalf("rs(%d,%d) reconstruct: %v", g.k, g.m, err)
		}
		for i := range all {
			if !bytes.Equal(all[i], want[i]) {
				t.Fatalf("rs(%d,%d) shard %d differs at %d", g.k, g.m, i, FirstDiff(all[i], want[i]))
			}
		}
	}
}

// TestRSMDSExhaustive proves the any-m-erasures property by brute
// force on small codes: for every subset of exactly m dropped shards,
// reconstruction must be bit-exact. This is the test that would catch
// a non-MDS generator (e.g. the classic [I;V] Vandermonde mistake).
func TestRSMDSExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []struct{ k, m int }{{3, 2}, {5, 2}, {4, 3}, {5, 4}, {8, 2}, {6, 3}} {
		rs, err := NewRS(g.k, g.m)
		if err != nil {
			t.Fatal(err)
		}
		n := g.k + g.m
		data, parity, all, _ := mkShards(rng, g.k, g.m, 64)
		if err := rs.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, n)
		for i, s := range all {
			want[i] = append([]byte(nil), s...)
		}
		// Enumerate all C(n, m) erasure patterns via bitmask.
		for mask := 0; mask < 1<<n; mask++ {
			if popcount(mask) != g.m {
				continue
			}
			work := make([][]byte, n)
			present := make([]bool, n)
			for i := 0; i < n; i++ {
				work[i] = append([]byte(nil), want[i]...)
				present[i] = mask&(1<<i) == 0
				if !present[i] {
					rng.Read(work[i])
				}
			}
			if err := rs.Reconstruct(work, present); err != nil {
				t.Fatalf("rs(%d,%d) mask %b: %v", g.k, g.m, mask, err)
			}
			for i := 0; i < n; i++ {
				if !bytes.Equal(work[i], want[i]) {
					t.Fatalf("rs(%d,%d) mask %b shard %d wrong", g.k, g.m, mask, i)
				}
			}
		}
	}
}

// TestRSReconstructWanted sweeps every erasure pattern of up to m
// shards of rs(8,2) and rs(4,3), and for each every choice of which
// erased shards the caller wants. A missing shard passed as nil must
// stay nil, every wanted one must come back bit-exact, and wanting
// missing parity while a missing data shard is nil must be refused.
func TestRSReconstructWanted(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, g := range []struct{ k, m int }{{8, 2}, {4, 3}} {
		rs, err := NewRS(g.k, g.m)
		if err != nil {
			t.Fatal(err)
		}
		n := g.k + g.m
		data, parity, all, _ := mkShards(rng, g.k, g.m, 97)
		if err := rs.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) > g.m {
				continue
			}
			for want := 0; want < 1<<n; want++ {
				if want&^mask != 0 {
					continue // only erased shards can be wanted or not
				}
				work := make([][]byte, n)
				present := make([]bool, n)
				wantParity, dataNil := false, false
				for i := 0; i < n; i++ {
					present[i] = mask&(1<<i) == 0
					switch {
					case present[i]:
						work[i] = append([]byte(nil), all[i]...)
					case want&(1<<i) != 0:
						work[i] = make([]byte, len(all[i]))
						rng.Read(work[i])
						wantParity = wantParity || i >= g.k
					default:
						dataNil = dataNil || i < g.k
					}
				}
				err := rs.Reconstruct(work, present)
				if wantParity && dataNil {
					if err == nil {
						t.Fatalf("rs(%d,%d) erased %b wanted %b: missing parity rebuilt without all data", g.k, g.m, mask, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("rs(%d,%d) erased %b wanted %b: %v", g.k, g.m, mask, want, err)
				}
				for i := 0; i < n; i++ {
					switch {
					case !present[i] && want&(1<<i) == 0:
						if work[i] != nil {
							t.Fatalf("rs(%d,%d) erased %b wanted %b: unwanted shard %d was filled in", g.k, g.m, mask, want, i)
						}
					case !bytes.Equal(work[i], all[i]):
						t.Fatalf("rs(%d,%d) erased %b wanted %b: shard %d differs at %d", g.k, g.m, mask, want, i, FirstDiff(work[i], all[i]))
					}
				}
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestRSUpdateMatchesReencode checks the small-write delta path: after
// Update with delta = old^new on one shard, parity must equal a full
// re-encode of the updated data.
func TestRSUpdateMatchesReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, g := range []struct{ k, m int }{{4, 1}, {8, 2}, {6, 3}} {
		rs, err := NewRS(g.k, g.m)
		if err != nil {
			t.Fatal(err)
		}
		data, parity, _, _ := mkShards(rng, g.k, g.m, 128)
		if err := rs.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		for shard := 0; shard < g.k; shard++ {
			newData := make([]byte, 128)
			rng.Read(newData)
			delta := append([]byte(nil), data[shard]...)
			XorInto(delta, newData)
			rs.Update(parity, shard, delta)
			copy(data[shard], newData)

			wantParity := make([][]byte, g.m)
			for j := range wantParity {
				wantParity[j] = make([]byte, 128)
			}
			if err := rs.Encode(data, wantParity); err != nil {
				t.Fatal(err)
			}
			for j := range parity {
				if !bytes.Equal(parity[j], wantParity[j]) {
					t.Fatalf("rs(%d,%d) shard %d parity %d: delta-update != re-encode", g.k, g.m, shard, j)
				}
			}
		}
	}
}

// TestRSVandermondeMatchesGeneric pins the fast-path rows: the m==1
// and m==2 constructions must behave like codes, not just like ad-hoc
// XOR — i.e. reconstruct anything the generic decoder claims.
// Additionally the rowKind classification must match the row content.
func TestRSRowKinds(t *testing.T) {
	rs1, _ := NewRS(7, 1)
	if rs1.rowKind[0] != rowXOR {
		t.Fatalf("m=1 row kind = %v, want rowXOR", rs1.rowKind[0])
	}
	rs2, _ := NewRS(7, 2)
	if rs2.rowKind[0] != rowXOR || rs2.rowKind[1] != rowPow2 {
		t.Fatalf("m=2 row kinds = %v, want [rowXOR rowPow2]", rs2.rowKind)
	}
	// Horner row must equal a generic evaluation of the same
	// coefficients.
	rng := rand.New(rand.NewSource(13))
	data := make([][]byte, 7)
	for i := range data {
		data[i] = make([]byte, 77)
		rng.Read(data[i])
	}
	fast := make([]byte, 77)
	rs2.encodeRow(1, fast, data)
	slow := make([]byte, 77)
	galMul(slow, data[0], rs2.rows[1][0])
	for i := 1; i < 7; i++ {
		GalMulXor(slow, data[i], rs2.rows[1][i])
	}
	if !bytes.Equal(fast, slow) {
		t.Fatalf("Horner Q != generic Q at %d", FirstDiff(fast, slow))
	}
}

func TestRSErrors(t *testing.T) {
	if _, err := NewRS(0, 1); err == nil {
		t.Error("NewRS(0,1) should fail")
	}
	if _, err := NewRS(1, 0); err == nil {
		t.Error("NewRS(1,0) should fail")
	}
	if _, err := NewRS(254, 2); err == nil {
		t.Error("NewRS(254,2) should fail (k+m > 255)")
	}
	rs, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 7)}
	parity := [][]byte{make([]byte, 8), make([]byte, 8)}
	if err := rs.Encode(data, parity); err == nil {
		t.Error("mismatched shard length should fail")
	}
	all := make([][]byte, 6)
	present := make([]bool, 6)
	for i := range all {
		all[i] = make([]byte, 8)
	}
	present[0], present[1], present[2] = true, true, true // only 3 of 4 data
	if err := rs.Reconstruct(all, present); !errors.Is(err, ErrShortShards) {
		t.Errorf("reconstruct with 3 < k shards: err = %v, want ErrShortShards", err)
	}
}

// FuzzRSRoundTrip drives encode → erase ≤m shards → reconstruct with
// fuzzer-chosen geometry, content, and erasure pattern; reconstruction
// must always be bit-exact.
func FuzzRSRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(64), []byte("seed data for shards"))
	f.Add(uint8(1), uint8(1), uint16(1), []byte{0})
	f.Add(uint8(10), uint8(4), uint16(97), []byte("abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, kb, mb uint8, sz uint16, seed []byte) {
		k := int(kb)%16 + 1
		m := int(mb)%5 + 1
		size := int(sz)%300 + 1
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(seed) == 0 {
			seed = []byte{0xA5}
		}
		all := make([][]byte, k+m)
		for i := range all {
			all[i] = make([]byte, size)
			for j := range all[i] {
				all[i][j] = seed[(i*7+j)%len(seed)]
			}
		}
		if err := rs.Encode(all[:k], all[k:]); err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(all))
		for i, s := range all {
			want[i] = append([]byte(nil), s...)
		}
		// Erasure pattern from the seed: drop up to m shards.
		present := make([]bool, k+m)
		for i := range present {
			present[i] = true
		}
		drops := int(seed[0]) % (m + 1)
		for d := 0; d < drops; d++ {
			idx := int(seed[(d+1)%len(seed)]) % (k + m)
			if present[idx] {
				present[idx] = false
				for j := range all[idx] {
					all[idx][j] = ^all[idx][j]
				}
			}
		}
		if err := rs.Reconstruct(all, present); err != nil {
			t.Fatal(err)
		}
		for i := range all {
			if !bytes.Equal(all[i], want[i]) {
				t.Fatalf("rs(%d,%d) shard %d differs after reconstruct", k, m, i)
			}
		}
	})
}
