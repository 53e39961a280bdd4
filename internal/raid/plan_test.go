package raid

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/parity"
	"repro/internal/store"
)

// planMixed plans logical blocks [b, b+n) of p over w disks: most placed
// round-robin, about a third on override placements scattered out of
// logical order over the same disks, just above every base placement, as
// RAID-x's layout overrides are.
func planMixed(rng *rand.Rand, w, b int64, n, bs int, p []byte) *Plan {
	perm := rng.Perm(n)
	over := (b+int64(n))/w + 1
	pl := NewPlan()
	for i := 0; i < n; i++ {
		lb := b + int64(i)
		disk, phys := int(lb%w), lb/w
		if rng.Intn(3) == 0 {
			disk, phys = rng.Intn(int(w)), over+int64(perm[i])
		}
		pl.Add(disk, phys, lb, p[i*bs:(i+1)*bs])
	}
	pl.Sort()
	return pl
}

// TestRunsCoverRangeExactly: for any request the planner's runs partition
// [b, b+n) exactly, and each run is on one disk at consecutive physical
// blocks (a flat run at consecutive logical blocks too; a Single run is
// one block).
func TestRunsCoverRangeExactly(t *testing.T) {
	const bs = 16
	f := func(width uint8, start uint16, count uint8, seed int64) bool {
		w := int64(width%12) + 1
		b := int64(start % 1024)
		n := int(count%64) + 1
		pl := planMixed(rand.New(rand.NewSource(seed)), w, b, n, bs, make([]byte, n*bs))
		defer pl.Release()
		if len(pl.Data) != n || len(pl.Segs) != n {
			return false
		}
		seen := map[int64]bool{}
		for _, how := range []Issue{0, Flat, Single} {
			clear(seen)
			for i, j := 0, 0; i < n; i = j {
				j = runEnd(pl.Data, i, how)
				for r := i; r < j; r++ {
					e := pl.Data[r]
					if e.Disk != pl.Data[i].Disk || e.Phys != pl.Data[i].Phys+int64(r-i) ||
						(how == Flat && e.LB != pl.Data[i].LB+int64(r-i)) || (how == Single && j > i+1) {
						return false
					}
					if e.LB < b || e.LB >= b+int64(n) || seen[e.LB] {
						return false
					}
					seen[e.LB] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherScatterInverse: every segment aliases the caller's buffer at
// its block's logical offset, and writing the runs gathered from one
// buffer then reading them scattered into another is the identity.
func TestGatherScatterInverse(t *testing.T) {
	const bs = 16
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		w := int64(rng.Intn(8) + 1)
		b := int64(rng.Intn(100))
		n := rng.Intn(40) + 1
		devs := make([]Dev, w)
		for i := range devs {
			devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, 256), disk.DefaultModel())
		}
		user := make([]byte, n*bs)
		rng.Read(user)
		seed := rng.Int63()
		wp := planMixed(rand.New(rand.NewSource(seed)), w, b, n, bs, user)
		for i, e := range wp.Data {
			if len(wp.Segs[i]) != bs || &wp.Segs[i][0] != &user[(e.LB-b)*bs] {
				t.Fatalf("trial %d: block %d's segment does not alias its slot", trial, e.LB)
			}
		}
		m := NewMembers("plan", devs, bs, 256)
		if err := m.WriteRuns(ctx, m.Load(), wp, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		wp.Release()
		out := make([]byte, n*bs)
		rp := planMixed(rand.New(rand.NewSource(seed)), w, b, n, bs, out)
		err := m.ReadRuns(ctx, m.Load(), rp, nil, 0, nil)
		rp.Release()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, user) {
			t.Fatalf("trial %d (w=%d b=%d n=%d): scatter∘gather != id", trial, w, b, n)
		}
	}
}

// TestXorIntoProperties: XOR algebra used by RAID-5, on the shared
// parity kernel the engines now call.
func TestXorIntoProperties(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) == 0 {
			return true
		}
		if len(b) > len(a) {
			b = b[:len(a)]
		}
		if len(b) == 0 {
			return true
		}
		orig := append([]byte(nil), a...)
		parity.XorInto(a, b)
		parity.XorInto(a, b) // involution
		return bytes.Equal(a, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
