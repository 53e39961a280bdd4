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
	"math/rand"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/raid"
)

// stripeGeom is one parameterisation of the stripe engine.
type stripeGeom struct {
	name  string
	n, m  int
	raid5 bool
}

func stripeGeoms() []stripeGeom {
	return []stripeGeom{
		{"raid5(4)", 4, 1, true},
		{"raid5(5)", 5, 1, true},
		{"rs(5,1)", 6, 1, false},
		{"rs(6,2)", 8, 2, false},
		{"rs(4,3)", 7, 3, false},
	}
}

func (g stripeGeom) build(t *testing.T, blocks int64) (*raid.Stripe, []raid.Dev, []*disk.Disk) {
	t.Helper()
	devs, raw := mkDisks(g.n, blocks)
	return g.over(t, devs), devs, raw
}

// over builds the geometry's array over the given devices.
func (g stripeGeom) over(t *testing.T, devs []raid.Dev) *raid.Stripe {
	t.Helper()
	var a *raid.Stripe
	var err error
	if g.raid5 {
		a, err = raid.NewRAID5(devs)
	} else {
		a, err = raid.NewRS(devs, g.m)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// devOf is the on-disk placement, stated independently of the engine:
// shard j of stripe s (data for j < k, parity after) follows RAID-5's
// parity disk cyclically, or sits s devices up from j for rs.
func (g stripeGeom) devOf(s int64, j int) int {
	if g.raid5 {
		lay := layout.NewRAID5(layout.Geometry{Disks: g.n, DiskBlocks: s + 1})
		return (lay.ParityDisk(s) + 1 + j) % g.n
	}
	return (int(s%int64(g.n)) + j) % g.n
}

// dataBlocksOn counts the data shards of stripes [0, stripes) that live
// on the given devices.
func (g stripeGeom) dataBlocksOn(stripes int64, devs ...int) int {
	count := 0
	for s := int64(0); s < stripes; s++ {
		for j := 0; j < g.n-g.m; j++ {
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

// seedAndFlush writes a random base image and returns the shadow copy.
func seedAndFlush(t *testing.T, a raid.Array, seed int64) []byte {
	t.Helper()
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(a.BlockSize()))
	rand.New(rand.NewSource(seed)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return data
}

// checkAll verifies the array content equals the shadow.
func checkAll(t *testing.T, a raid.Array, want []byte, what string) {
	t.Helper()
	got := make([]byte, len(want))
	if err := a.ReadBlocks(context.Background(), 0, got); err != nil {
		t.Fatalf("%s: read: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: content mismatch", what)
	}
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
		t.Run(g.name, func(t *testing.T) {
			n, k := int64(g.n), int64(g.n-g.m)
			for _, victims := range victimSets(g.n, g.m) {
				a, _, raw := g.build(t, 32)
				shadow := seedAndFlush(t, a, int64(len(victims)*100+victims[0]))
				for _, v := range victims {
					raw[v].Fail()
				}
				rng := rand.New(rand.NewSource(int64(victims[0])))
				write := func(b, blocks int64) {
					t.Helper()
					upd := make([]byte, blocks*testBS)
					rng.Read(upd)
					if err := a.WriteBlocks(ctx, b, upd); err != nil {
						t.Fatalf("victims %v: degraded write [%d,+%d): %v", victims, b, blocks, err)
					}
					copy(shadow[b*testBS:], upd)
				}
				for s := int64(0); s < n; s++ {
					write(s*k, 1)
					write((n+s)*k, 2)
				}
				write(2*n*k, k)
				write((2*n+1)*k+2, 2*k-1)
				checkAll(t, a, shadow, "degraded")

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
				checkAll(t, a, shadow, "rebuilt")
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
			a, _, raw := tc.g.build(t, 32)
			shadow := seedAndFlush(t, a, 11)
			const s = 5
			for _, j := range tc.lost {
				raw[tc.g.devOf(s, j)].Fail()
			}
			var r0, w0 int64
			for _, d := range raw {
				r, w, _, _ := d.Stats()
				r0, w0 = r0+r, w0+w
			}
			lb := int64(s * (tc.g.n - tc.g.m))
			upd := bytes.Repeat([]byte{0xA5}, tc.covered*testBS)
			if err := a.WriteBlocks(ctx, lb, upd); err != nil {
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
			copy(shadow[lb*testBS:], upd)
			checkAll(t, a, shadow, "after write")
		})
	}
}

// TestStripeTooManyFailures: m+1 failures must surface ErrDataLoss,
// not wrong data.
func TestStripeTooManyFailures(t *testing.T) {
	ctx := context.Background()
	for _, g := range stripeGeoms() {
		a, _, raw := g.build(t, 16)
		all := seedAndFlush(t, a, 3)
		for v := 0; v <= g.m; v++ {
			raw[v].Fail()
		}
		if err := a.ReadBlocks(ctx, 0, make([]byte, len(all))); !errors.Is(err, raid.ErrDataLoss) {
			t.Errorf("%s: read with %d failures: err = %v, want ErrDataLoss", g.name, g.m+1, err)
		}
		if err := a.WriteBlocks(ctx, 0, all[:testBS]); !errors.Is(err, raid.ErrDataLoss) {
			t.Errorf("%s: write with %d failures: err = %v, want ErrDataLoss", g.name, g.m+1, err)
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
		a, devs, _ := g.build(t, 16)
		all := seedAndFlush(t, a, 12)
		if err := a.Verify(ctx); err != nil {
			t.Fatalf("%s: verify clean array: %v", g.name, err)
		}
		// Corrupt physical block 4 of device 2 directly.
		evil := make([]byte, testBS)
		fill(evil, 666)
		if err := devs[2].WriteBlocks(ctx, 4, evil); err != nil {
			t.Fatal(err)
		}
		if err := a.Verify(ctx); err == nil || !strings.Contains(err.Error(), "block 4 ") || !strings.Contains(err.Error(), "device") {
			t.Fatalf("%s: verify over corrupted block: %v", g.name, err)
		}
		// Rewriting the affected stripes re-encodes parity; Verify heals.
		if err := a.WriteBlocks(ctx, 0, all); err != nil {
			t.Fatal(err)
		}
		if err := a.Verify(ctx); err != nil {
			t.Fatalf("%s: verify after rewrite: %v", g.name, err)
		}
	}
}

// TestStripeDegradedNotify: the DegradedNotifier hook reports logical
// blocks served through reconstruction — exactly the data shards of
// the failed column — and stays silent on healthy reads.
func TestStripeDegradedNotify(t *testing.T) {
	ctx := context.Background()
	for _, g := range stripeGeoms() {
		a, _, raw := g.build(t, 16)
		var count int
		a.SetDegradedNotify(func(blocks int) { count += blocks })
		all := seedAndFlush(t, a, 8)
		if err := a.ReadBlocks(ctx, 0, all); err != nil {
			t.Fatal(err)
		}
		if count != 0 {
			t.Fatalf("%s: healthy read notified %d blocks", g.name, count)
		}
		raw[1].Fail()
		if err := a.ReadBlocks(ctx, 0, all); err != nil {
			t.Fatal(err)
		}
		// raid5(4) and rs(6,2) over 16 stripes both keep 12 data
		// shards (and 4 parity shards) on any one device.
		if want := g.dataBlocksOn(16, 1); count != want {
			t.Errorf("%s: degraded read notified %d blocks, want %d", g.name, count, want)
		}
	}
}

func TestStripeConstructorValidation(t *testing.T) {
	devs, _ := mkDisks(3, 16)
	if _, err := raid.NewRS(devs, 2); err == nil {
		t.Error("rs over 3 disks with m=2 accepted (k would be 1)")
	}
	if _, err := raid.NewRS(devs, 0); err == nil {
		t.Error("rs with m=0 accepted")
	}
	devs8, _ := mkDisks(8, 16)
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
		t.Run(g.name, func(t *testing.T) {
			devs, _ := mkDisks(g.n, 16)
			// m liars consume the redundancy budget exactly.
			idx := []int{1, g.n - 2}[:g.m]
			var liars []*staleHealthDev
			for _, i := range idx {
				l := &staleHealthDev{Dev: devs[i]}
				devs[i] = l
				liars = append(liars, l)
			}
			// One more, honest until the last step.
			extra := &staleHealthDev{Dev: devs[0]}
			devs[0] = extra
			a := g.over(t, devs)
			var notified int
			a.SetDegradedNotify(func(n int) { notified += n })
			all := seedAndFlush(t, a, 97)

			// The wrapped devices start erroring while still reporting
			// healthy.
			for _, l := range liars {
				l.failReads = true
			}
			got := make([]byte, len(all))
			if err := a.ReadBlocks(ctx, 0, got); err != nil {
				t.Fatalf("read with %d stale-health failures: %v", g.m, err)
			}
			if !bytes.Equal(got, all) {
				t.Fatal("failover read returned wrong data")
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
			for g.devOf(lb/int64(g.n-g.m), int(lb%int64(g.n-g.m))) != idx[0] {
				lb++
			}
			one := make([]byte, testBS)
			if err := a.ReadBlocks(ctx, lb, one); err != nil {
				t.Fatalf("single-block read with staggered discovery: %v", err)
			}
			if !bytes.Equal(one, all[lb*testBS:(lb+1)*testBS]) {
				t.Fatal("staggered failover read returned wrong data")
			}

			// One more erring device exceeds the redundancy budget: the
			// error must propagate instead of retrying forever.
			extra.failReads = true
			if err := a.ReadBlocks(ctx, 0, got); err == nil {
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
	a, _, raw := g.build(t, stripes)
	shadow := seedAndFlush(t, a, 21)
	const victim = 2
	raw[victim].Fail()
	if err := raw[victim].Replace(); err != nil {
		t.Fatal(err)
	}
	before := make([]int64, g.n)
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
	checkAll(t, a, shadow, "rebuilt")
}
