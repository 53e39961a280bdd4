package raid_test

// Tests of the stripe engine across its geometries: RAID-5's
// left-symmetric m = 1 layout and the forward-rotated rs(k,m) layouts
// run the same tables. Victims are picked by role through the
// documented placement, so every branch of the write decision tree is
// exercised explicitly.

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

// stripeGeom is one parameterisation of the stripe engine.
type stripeGeom struct {
	raidtest.Engine
	m     int
	raid5 bool
}

func stripeGeoms() []stripeGeom {
	return []stripeGeom{
		{raidtest.RAID5(4), 1, true},
		{raidtest.RAID5(5), 1, true},
		{raidtest.RS(5, 1), 1, false},
		{raidtest.RS(6, 2), 2, false},
		{raidtest.RS(4, 3), 3, false},
	}
}

func (g stripeGeom) build(t *testing.T, blocks int64) (*raid.Stripe, []*disk.Disk) {
	return raidtest.Build[*raid.Stripe](t, g.Engine, raidtest.Disks{Blocks: blocks})
}

// devOf is the on-disk placement, stated independently of the engine:
// shard j of stripe s (data for j < k, parity after) follows RAID-5's
// parity disk cyclically, or sits s devices up from j for rs.
func (g stripeGeom) devOf(s int64, j int) int {
	if g.raid5 {
		lay := layout.NewRAID5(layout.Geometry{Disks: g.N, DiskBlocks: s + 1})
		return (lay.ParityDisk(s) + 1 + j) % g.N
	}
	return (int(s%int64(g.N)) + j) % g.N
}

// dataBlocksOn counts the data shards of stripes [0, stripes) that live
// on the given devices.
func (g stripeGeom) dataBlocksOn(stripes int64, devs ...int) int {
	count := 0
	for s := int64(0); s < stripes; s++ {
		for j := 0; j < g.N-g.m; j++ {
			for _, d := range devs {
				if g.devOf(s, j) == d {
					count++
				}
			}
		}
	}
	return count
}

// victimSets lists every non-empty device subset of at most m members.
func victimSets(n, m int) [][]int {
	var out [][]int
	var pick func(start int, cur []int)
	pick = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == m {
			return
		}
		for i := start; i < n; i++ {
			pick(i+1, append(cur, i))
		}
	}
	pick(0, nil)
	return out
}

// TestStripeDegradedWrites: for every geometry and every victim set
// within tolerance, write in degraded mode — one shard and two shards
// of n consecutive stripes each (the rotation makes every victim the
// parity holder, a covered and an uncovered data holder in turn, and
// with several victims combinations of those), a full stripe, and a
// request spanning a partial head, a full stripe and a partial tail —
// then compare against the shadow, rebuild the victims one at a time
// (the others still down), Verify, and compare again.
func TestStripeDegradedWrites(t *testing.T) {
	ctx := context.Background()
	for _, g := range stripeGeoms() {
		t.Run(g.Name, func(t *testing.T) {
			n, k := int64(g.N), int64(g.N-g.m)
			for _, victims := range victimSets(g.N, g.m) {
				a, raw := g.build(t, 32)
				sh := raidtest.Fill(t, a)
				for _, v := range victims {
					raw[v].Fail()
				}
				write := func(b, blocks int64) {
					t.Helper()
					if err := sh.Write(ctx, b, blocks); err != nil {
						t.Fatalf("victims %v: degraded write [%d,+%d): %v", victims, b, blocks, err)
					}
				}
				for s := int64(0); s < n; s++ {
					write(s*k, 1)
					write((n+s)*k, 2)
				}
				write(2*n*k, k)
				write((2*n+1)*k+2, 2*k-1)
				sh.Check(t, "degraded")

				for _, v := range victims {
					if err := raw[v].Replace(); err != nil {
						t.Fatal(err)
					}
					if err := a.Rebuild(ctx, v); err != nil {
						t.Fatalf("victims %v: rebuild of %d: %v", victims, v, err)
					}
				}
				if err := a.Verify(ctx); err != nil {
					t.Fatalf("victims %v: verify after rebuild: %v", victims, err)
				}
				sh.Check(t, "rebuilt")
			}
		})
	}
}

// TestStripePartialWriteIO pins the write decision tree by its device
// I/O: which shards of the stripe are lost decides between
// read-modify-write onto the surviving parity, a plain data write,
// reconstruct-write from the healthy uncovered shards, and the full
// reconstruction fallback.
func TestStripePartialWriteIO(t *testing.T) {
	raid5, rs62 := stripeGeoms()[0], stripeGeoms()[3]
	cases := []struct {
		what          string
		g             stripeGeom
		lost          []int // shards of the stripe whose device is failed
		covered       int   // shards [0, covered) are written
		reads, writes int64
	}{
		{"raid5 healthy: RMW", raid5, nil, 1, 2, 2},
		{"raid5 parity lost: plain data write", raid5, []int{3}, 1, 0, 1},
		{"raid5 covered lost: reconstruct-write", raid5, []int{0}, 1, 2, 1},
		{"raid5 uncovered lost: RMW", raid5, []int{2}, 2, 3, 3},
		{"rs healthy: RMW onto both parities", rs62, nil, 1, 3, 3},
		{"rs one parity lost: RMW onto the other", rs62, []int{6}, 1, 2, 2},
		{"rs both parities lost: plain data write", rs62, []int{6, 7}, 1, 0, 1},
		{"rs covered lost: reads only the uncovered", rs62, []int{0}, 2, 4, 3},
		{"rs covered and uncovered lost: full reconstruction", rs62, []int{0, 4}, 1, 6, 2},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.what, func(t *testing.T) {
			a, raw := tc.g.build(t, 32)
			sh := raidtest.Fill(t, a)
			const s = 5
			for _, j := range tc.lost {
				raw[tc.g.devOf(s, j)].Fail()
			}
			var r0, w0 int64
			for _, d := range raw {
				r, w, _, _ := d.Stats()
				r0, w0 = r0+r, w0+w
			}
			lb := int64(s * (tc.g.N - tc.g.m))
			if err := sh.Write(ctx, lb, int64(tc.covered)); err != nil {
				t.Fatal(err)
			}
			var r1, w1 int64
			for _, d := range raw {
				r, w, _, _ := d.Stats()
				r1, w1 = r1+r, w1+w
			}
			if r1-r0 != tc.reads || w1-w0 != tc.writes {
				t.Errorf("cost %d reads + %d writes, want %d + %d", r1-r0, w1-w0, tc.reads, tc.writes)
			}
			sh.Check(t, "after write")
		})
	}
}

// TestStripeTooManyFailures: m+1 failures must surface ErrDataLoss,
// not wrong data.
func TestStripeTooManyFailures(t *testing.T) {
	ctx := context.Background()
	for _, g := range stripeGeoms() {
		a, raw := g.build(t, 16)
		raidtest.Fill(t, a)
		for v := 0; v <= g.m; v++ {
			raw[v].Fail()
		}
		if err := a.ReadBlocks(ctx, 0, make([]byte, a.Blocks()*raidtest.BS)); !errors.Is(err, raid.ErrDataLoss) {
			t.Errorf("%s: read with %d failures: err = %v, want ErrDataLoss", g.Name, g.m+1, err)
		}
		if err := a.WriteBlocks(ctx, 0, make([]byte, raidtest.BS)); !errors.Is(err, raid.ErrDataLoss) {
			t.Errorf("%s: write with %d failures: err = %v, want ErrDataLoss", g.Name, g.m+1, err)
		}
	}
}

// TestStripeVerifyDetectsCorruption is the scrub integration check:
// flip a data block behind the array's back and Verify must name a
// device and the block (a member's physical block is its stripe); after
// rewriting the stripe Verify passes again.
func TestStripeVerifyDetectsCorruption(t *testing.T) {
	ctx := context.Background()
	for _, g := range stripeGeoms() {
		a, raw := g.build(t, 16)
		sh := raidtest.Fill(t, a)
		if err := a.Verify(ctx); err != nil {
			t.Fatalf("%s: verify clean array: %v", g.Name, err)
		}
		// Corrupt physical block 4 of device 2 directly.
		if err := raw[2].WriteBlocks(ctx, 4, bytes.Repeat([]byte{0xEE}, raidtest.BS)); err != nil {
			t.Fatal(err)
		}
		if err := a.Verify(ctx); err == nil || !strings.Contains(err.Error(), "block 4 ") || !strings.Contains(err.Error(), "device") {
			t.Fatalf("%s: verify over corrupted block: %v", g.Name, err)
		}
		// Rewriting the affected stripes re-encodes parity; Verify heals.
		if err := sh.Write(ctx, 0, a.Blocks()); err != nil {
			t.Fatal(err)
		}
		if err := a.Verify(ctx); err != nil {
			t.Fatalf("%s: verify after rewrite: %v", g.Name, err)
		}
	}
}

// TestStripeDegradedNotify: the DegradedNotifier hook reports logical
// blocks served through reconstruction — exactly the data shards of
// the failed column — and stays silent on healthy reads.
func TestStripeDegradedNotify(t *testing.T) {
	ctx := context.Background()
	for _, g := range stripeGeoms() {
		a, raw := g.build(t, 16)
		var count int
		a.SetDegradedNotify(func(blocks int) { count += blocks })
		sh := raidtest.Fill(t, a)
		if err := sh.Diff(ctx, 0, a.Blocks()); err != nil {
			t.Fatal(err)
		}
		if count != 0 {
			t.Fatalf("%s: healthy read notified %d blocks", g.Name, count)
		}
		raw[1].Fail()
		if err := sh.Diff(ctx, 0, a.Blocks()); err != nil {
			t.Fatal(err)
		}
		// raid5(4) and rs(6,2) over 16 stripes both keep 12 data
		// shards (and 4 parity shards) on any one device.
		if want := g.dataBlocksOn(16, 1); count != want {
			t.Errorf("%s: degraded read notified %d blocks, want %d", g.Name, count, want)
		}
	}
}

func TestStripeConstructorValidation(t *testing.T) {
	devs, _ := raidtest.Disks{Blocks: 16}.Make(3)
	if _, err := raid.NewRS(devs, 2); err == nil {
		t.Error("rs over 3 disks with m=2 accepted (k would be 1)")
	}
	if _, err := raid.NewRS(devs, 0); err == nil {
		t.Error("rs with m=0 accepted")
	}
	devs8, _ := raidtest.Disks{Blocks: 16}.Make(8)
	a, err := raid.NewRS(devs8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k, m := a.Shards(); k != 6 || m != 2 {
		t.Errorf("Shards() = (%d,%d), want (6,2)", k, m)
	}
	if a.Name() != "rs(6,2)" {
		t.Errorf("Name() = %q", a.Name())
	}
	// Capacity: k data blocks per stripe, stripes = per-disk blocks.
	if a.Blocks() != 16*6 {
		t.Errorf("Blocks() = %d, want 96", a.Blocks())
	}
}

// staleHealthDev reports healthy while its reads fail — what a remote
// device looks like right after the far side dies, while the client's
// TTL-cached health probe still says OK. The engine must fail such
// reads over to reconstruction instead of surfacing the error.
type staleHealthDev struct {
	raid.Dev
	failReads bool
}

func (d *staleHealthDev) Healthy() bool { return true }

func (d *staleHealthDev) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	if d.failReads {
		return errors.New("injected: device lost behind a stale health probe")
	}
	return d.Dev.ReadBlocks(ctx, b, buf)
}

func TestStripeReadFailoverOnStaleHealth(t *testing.T) {
	ctx := context.Background()
	for _, g := range []stripeGeom{stripeGeoms()[0], stripeGeoms()[2], stripeGeoms()[3]} {
		t.Run(g.Name, func(t *testing.T) {
			// m liars consume the redundancy budget exactly, and one more
			// on device 0 is honest until the last step.
			idx := []int{1, g.N - 2}[:g.m]
			liars := map[int]*staleHealthDev{}
			a, _ := raidtest.Build[*raid.Stripe](t, g.Engine, raidtest.Disks{Blocks: 16, Wrap: func(i int, d raid.Dev) raid.Dev {
				if i == 0 || slices.Contains(idx, i) {
					liars[i] = &staleHealthDev{Dev: d}
					return liars[i]
				}
				return d
			}})
			var notified int
			a.SetDegradedNotify(func(n int) { notified += n })
			sh := raidtest.Fill(t, a)

			// The wrapped devices start erroring while still reporting
			// healthy.
			for _, i := range idx {
				liars[i].failReads = true
			}
			if err := sh.Diff(ctx, 0, a.Blocks()); err != nil {
				t.Fatalf("read with %d stale-health failures: %v", g.m, err)
			}
			if want := g.dataBlocksOn(16, idx...); notified != want {
				t.Errorf("runtime failover notified %d blocks, want %d", notified, want)
			}

			// Single-block read whose data shard lives on the first
			// liar: the first attempt errs only that device, and any
			// other liar is discovered one round later as a dead
			// reconstruction source — the failover loop must absorb
			// them all before succeeding.
			lb := int64(0)
			for g.devOf(lb/int64(g.N-g.m), int(lb%int64(g.N-g.m))) != idx[0] {
				lb++
			}
			if err := sh.Diff(ctx, lb, 1); err != nil {
				t.Fatalf("single-block read with staggered discovery: %v", err)
			}

			// One more erring device exceeds the redundancy budget: the
			// error must propagate instead of retrying forever.
			liars[0].failReads = true
			if err := a.ReadBlocks(ctx, 0, make([]byte, a.Blocks()*raidtest.BS)); err == nil {
				t.Fatalf("read with %d erring devices should fail", g.m+1)
			}
		})
	}
}

// TestStripeRebuildIsBatched: a column rebuild reads each survivor in
// chunks of rows — one device call per chunk, not one per stripe — and
// never reads the target.
func TestStripeRebuildIsBatched(t *testing.T) {
	ctx := context.Background()
	g := stripeGeoms()[3]
	const stripes = 100
	a, raw := g.build(t, stripes)
	sh := raidtest.Fill(t, a)
	const victim = 2
	raw[victim].Fail()
	if err := raw[victim].Replace(); err != nil {
		t.Fatal(err)
	}
	before := make([]int64, g.N)
	for i, d := range raw {
		before[i], _, _, _ = d.Stats()
	}
	if err := a.Rebuild(ctx, victim); err != nil {
		t.Fatal(err)
	}
	for i, d := range raw {
		reads, _, _, _ := d.Stats()
		want := int64((stripes + 127) / 128) // rebuildChunk rows per call
		if i == victim {
			want = 0
		}
		if got := reads - before[i]; got > want {
			t.Errorf("device %d: %d read calls during rebuild, want <= %d", i, got, want)
		}
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	sh.Check(t, "rebuilt")
}
