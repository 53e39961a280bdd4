package raid_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/store"
)

// disks64 is the engine tests' member disk: 64 blocks of raidtest.BS bytes.
var disks64 = raidtest.Disks{Blocks: 64}

// subtest is the name the TestEngines* tests run a row under: the one
// these tests gave it before the table existed, kept so that a run's test
// IDs stay comparable across versions. Everything else, the exempt list
// below included, names a row by its table name.
func subtest(e raidtest.Engine) string {
	if s, ok := map[string]string{
		"raid0(4)": "raid0", "raid5(4)": "raid5", "raid10(4)": "raid10", "chained(4)": "chained",
		"raidx 4x1": "raidx", "raidx 4x3": "raidx-4x3", "rs(5,1)": "rs-5+1", "rs(6,2)": "rs-6+2", "rs(4,3)": "rs-4+3",
	}[e.Name]; ok {
		return s
	}
	return e.Name
}

// redundant is every row but RAID-0.
func redundant() []raidtest.Engine {
	return slices.DeleteFunc(raidtest.Engines(), func(e raidtest.Engine) bool { return e.Name == "raid0(4)" })
}

func TestEnginesRoundTrip(t *testing.T) {
	for _, e := range raidtest.Engines() {
		t.Run(subtest(e), func(t *testing.T) {
			a, _ := raidtest.Build[raid.Array](t, e, disks64)
			// Whole-array write, then read back in assorted chunks.
			sh := raidtest.Fill(t, a)
			for _, c := range [][2]int64{{0, a.Blocks()}, {1, 5}, {a.Blocks() - 3, 3}, {7, 1}} {
				if err := sh.Diff(context.Background(), c[0], c[1]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestEnginesRejectBadRanges: every engine, RAID-x included, refuses a bad
// range with *store.RangeError and a bad buffer with *store.SizeError.
func TestEnginesRejectBadRanges(t *testing.T) {
	for _, e := range raidtest.Engines() {
		t.Run(subtest(e), func(t *testing.T) {
			a, _ := raidtest.Build[raid.Array](t, e, disks64)
			ctx := context.Background()
			var re *store.RangeError
			var se *store.SizeError
			if err := a.ReadBlocks(ctx, -1, make([]byte, raidtest.BS)); !errors.As(err, &re) {
				t.Errorf("negative block: got %v, want *store.RangeError", err)
			}
			if err := a.ReadBlocks(ctx, a.Blocks(), make([]byte, raidtest.BS)); !errors.As(err, &re) {
				t.Errorf("past-end read: got %v, want *store.RangeError", err)
			}
			if err := a.WriteBlocks(ctx, a.Blocks()-1, make([]byte, 2*raidtest.BS)); !errors.As(err, &re) {
				t.Errorf("write across the end: got %v, want *store.RangeError", err)
			}
			if err := a.WriteBlocks(ctx, 0, make([]byte, raidtest.BS+1)); !errors.As(err, &se) {
				t.Errorf("unaligned buffer: got %v, want *store.SizeError", err)
			}
			if err := a.WriteBlocks(ctx, 0, nil); !errors.As(err, &se) {
				t.Errorf("empty buffer: got %v, want *store.SizeError", err)
			}
		})
	}
}

// TestEnginesShadowModel drives every engine with a random operation
// sequence and compares every read against the stamped shadow. This is
// the main correctness property test.
func TestEnginesShadowModel(t *testing.T) {
	for _, e := range raidtest.Engines() {
		t.Run(subtest(e), func(t *testing.T) {
			a, _ := raidtest.Build[raid.Array](t, e, disks64)
			sh := raidtest.NewShadow(a)
			rng := rand.New(rand.NewSource(7))
			for op := 0; op < 400; op++ {
				b := rng.Int63n(a.Blocks())
				n := 1 + rng.Int63n(min(a.Blocks()-b, 9))
				do := sh.Diff
				if rng.Intn(2) == 0 {
					do = sh.Write
				}
				if err := do(context.Background(), b, n); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

// TestEnginesRedundancyConsistent verifies redundancy invariants after
// a random write burst: mirror copies agree, parity XORs to zero.
func TestEnginesRedundancyConsistent(t *testing.T) {
	for _, e := range redundant() {
		t.Run(subtest(e), func(t *testing.T) {
			a, _ := raidtest.Build[raidtest.Array](t, e, disks64)
			ctx := context.Background()
			sh := raidtest.NewShadow(a)
			rng := rand.New(rand.NewSource(3))
			for op := 0; op < 120; op++ {
				b := rng.Int63n(a.Blocks())
				if err := sh.Write(ctx, b, min(1+rng.Int63n(4), a.Blocks()-b)); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(ctx); err != nil {
				t.Fatalf("redundancy check failed: %v", err)
			}
		})
	}
}

// TestEnginesDegradedReadAfterFailure: write, fail each disk in turn,
// and verify all data remains readable through the redundancy.
func TestEnginesDegradedReadAfterFailure(t *testing.T) {
	for _, e := range redundant() {
		t.Run(subtest(e), func(t *testing.T) {
			for victim := 0; victim < e.N; victim++ {
				a, raw := raidtest.Build[raid.Array](t, e, disks64)
				sh := raidtest.Fill(t, a)
				raw[victim].Fail()
				sh.Check(t, fmt.Sprintf("victim %d: degraded read", victim))
			}
		})
	}
}

// TestEnginesDegradedWriteThenRead: fail a disk, write new data in
// degraded mode, and verify it reads back correctly.
func TestEnginesDegradedWriteThenRead(t *testing.T) {
	for _, e := range redundant() {
		if e.Name == "afraid(4)" {
			continue // a deferred-parity write refuses a down member (TestCallsForeground)
		}
		t.Run(subtest(e), func(t *testing.T) {
			ctx := context.Background()
			for victim := 0; victim < e.N; victim++ {
				a, raw := raidtest.Build[raid.Array](t, e, disks64)
				sh := raidtest.Fill(t, a)
				raw[victim].Fail()
				// Overwrite a window spanning several stripes.
				if err := sh.Write(ctx, 3, 11); err != nil {
					t.Fatalf("victim %d: degraded write: %v", victim, err)
				}
				if err := a.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				sh.Check(t, fmt.Sprintf("victim %d: read after degraded write", victim))
			}
		})
	}
}

// writeLiar reports healthy until, once armed, a write of its fails with
// err: a member lost behind a stale health probe, which an engine plans
// onto and loses mid-call, and which from that answer on reads as down, as
// a RemoteDev does. With stays set it still reads healthy after failing,
// as a member that refused the write or rejected the request does.
type writeLiar struct {
	raid.Dev
	err         error
	stays       bool
	armed, lost atomic.Bool
}

var (
	errWriteLost    = errors.New("injected: write lost behind a stale health probe")
	errWriteRefused = errors.New("injected: write refused by a member still in service")
)

func (d *writeLiar) Healthy() bool { return !d.lost.Load() }

func (d *writeLiar) fail() error {
	d.lost.Store(!d.stays)
	return d.err
}

func (d *writeLiar) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	if d.armed.Load() {
		return d.fail()
	}
	return d.Dev.WriteBlocks(ctx, b, p)
}

func (d *writeLiar) WriteBlocksBackground(ctx context.Context, b int64, p []byte) error {
	if d.armed.Load() {
		return d.fail()
	}
	return d.Dev.WriteBlocksBackground(ctx, b, p)
}

// liarDisks returns disks whose member i is liars[i] where that is set.
// Build over them once.
func liarDisks(liars ...*writeLiar) raidtest.Disks {
	return raidtest.Disks{Blocks: disks64.Blocks, Wrap: func(i int, d raid.Dev) raid.Dev {
		if i >= len(liars) || liars[i] == nil {
			return d
		}
		liars[i].Dev = d
		return liars[i]
	}}
}

// TestEnginesWriteFailureMidCall is the write twin of
// TestStripeReadFailoverOnStaleHealth, on every engine and every victim: a
// member lost mid-call counts as one down at plan time. The write ends as
// its twin does, with the victim failed before the write (nil or
// ErrDataLoss alike), and leaves no member but the victim dirty. A write
// that succeeded reads back at once, leaves the victim's regions missed,
// reads back new once the victim is readmitted, before its resync — no
// read is served from a missed region — and a resync of the victim alone
// leaves Verify clean and the shadow matching.
func TestEnginesWriteFailureMidCall(t *testing.T) {
	const b, n = 1, 13 // partial rows around full ones on every stripe
	ctx := context.Background()
	for _, e := range raidtest.Engines() {
		for victim := 0; victim < e.N; victim++ {
			t.Run(fmt.Sprintf("%s/d%d", subtest(e), victim), func(t *testing.T) {
				twin, raw := raidtest.Build[raid.Array](t, e, disks64)
				tsh := raidtest.Fill(t, twin)
				raw[victim].Fail()
				want := tsh.Write(ctx, b, n)

				il := intent.NewLog(e.N, disks64.Blocks, 8)
				liars := make([]*writeLiar, e.N)
				liars[victim] = &writeLiar{err: errWriteLost}
				a, _ := raidtest.Build[raid.Array](t, e.With(core.Options{Intent: il}), liarDisks(liars...))
				sh := raidtest.Fill(t, a)
				liars[victim].armed.Store(true)
				err := sh.Write(ctx, b, n)
				if (err == nil) != (want == nil) || errors.Is(err, raid.ErrDataLoss) != errors.Is(want, raid.ErrDataLoss) {
					t.Fatalf("member lost mid-call: write returned %v; with it down at plan time: %v", err, want)
				}
				for d := 0; d < e.N; d++ {
					if d != victim && il.MissedBlocks(d) != 0 {
						t.Fatalf("member %d missed %d blocks", d, il.MissedBlocks(d))
					}
				}
				if err != nil {
					return
				}
				sh.Check(t, "right after the write")
				liars[victim].armed.Store(false)
				liars[victim].lost.Store(false) // readmitted
				sh.Check(t, "with the victim readmitted, before its resync")
				regions := il.TakeDirty(victim)
				if len(regions) == 0 {
					t.Fatal("the victim's lost writes left no intent")
				}
				r := a.(raidtest.Array)
				if _, err := raid.Resync(ctx, r, victim, regions, nil); err != nil {
					t.Fatal(err)
				}
				if err := a.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if err := r.Verify(ctx); err != nil {
					t.Fatalf("after the victim's resync: %v", err)
				}
				sh.Check(t, "after the victim's resync")
			})
		}
	}
}

// TestEnginesWriteFailureOnHealthyMemberFails: a member that fails a write
// but still reads healthy stays in service with the old data, so on every
// engine the write fails with that member's error — alone, and beside a
// member the write lost, though either loss alone is within the rule.
func TestEnginesWriteFailureOnHealthyMemberFails(t *testing.T) {
	for _, e := range raidtest.Engines() {
		for _, beside := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/beside-loss=%v", subtest(e), beside), func(t *testing.T) {
				liars := []*writeLiar{{err: errWriteRefused, stays: true}, nil}
				if beside {
					liars[1] = &writeLiar{err: errWriteLost}
				}
				a, _ := raidtest.Build[raid.Array](t, e, liarDisks(liars...))
				sh := raidtest.Fill(t, a)
				for _, l := range liars {
					if l != nil {
						l.armed.Store(true)
					}
				}
				if err := sh.Write(context.Background(), 1, 13); !errors.Is(err, errWriteRefused) {
					t.Fatalf("write a healthy member failed returned %v, want its error", err)
				}
			})
		}
	}
}

// TestEnginesRebuild: fail a disk, replace it, rebuild, fail a
// *different* disk, and verify the data — proving the rebuild restored
// real redundancy.
func TestEnginesRebuild(t *testing.T) {
	for _, e := range redundant() {
		t.Run(subtest(e), func(t *testing.T) {
			ctx := context.Background()
			a, raw := raidtest.Build[raidtest.Array](t, e, disks64)
			sh := raidtest.Fill(t, a)
			victim := 1
			raw[victim].Fail()
			if err := raw[victim].Replace(); err != nil {
				t.Fatalf("replace: %v", err)
			}
			if err := a.Rebuild(ctx, victim); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if err := a.Verify(ctx); err != nil {
				t.Fatalf("verify after rebuild: %v", err)
			}
			// Now lose a different disk; the rebuilt one must carry it.
			raw[2].Fail()
			sh.Check(t, "after rebuild + second failure")
		})
	}
}

// TestEnginesDoubleFailureDetected: redundant arrays must report data
// loss, not silently return wrong data, when two overlapping copies die.
func TestEnginesDoubleFailureDetected(t *testing.T) {
	// Arrays tolerating more than one failure, or with layouts where disks
	// 0 and 1 may not share a redundancy group, are exempt.
	exempt := map[string]bool{"raidx 4x3": true, "rs(4,2)": true, "rs(6,2)": true, "rs(4,3)": true}
	for _, e := range redundant() {
		if exempt[e.Name] {
			continue
		}
		t.Run(subtest(e), func(t *testing.T) {
			a, raw := raidtest.Build[raid.Array](t, e, disks64)
			raidtest.Fill(t, a)
			// For 4-disk arrays, failing disks 0 and 1 always kills a
			// copy pair or two stripe members.
			raw[0].Fail()
			raw[1].Fail()
			err := a.ReadBlocks(context.Background(), 0, make([]byte, a.Blocks()*raidtest.BS))
			if err == nil {
				t.Fatal("double-failure read succeeded")
			}
			if !errors.Is(err, raid.ErrDataLoss) && !errors.Is(err, disk.ErrFailed) {
				t.Fatalf("got %v, want data-loss or disk-failed error", err)
			}
		})
	}
}

func TestRAID0FailureIsFatal(t *testing.T) {
	a, raw := raidtest.Build[raid.Array](t, raidtest.RAID0(4), raidtest.Disks{Blocks: 16})
	raidtest.Fill(t, a)
	raw[2].Fail()
	if err := a.ReadBlocks(context.Background(), 0, make([]byte, a.Blocks()*raidtest.BS)); err == nil {
		t.Fatal("RAID-0 read with failed disk succeeded")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := raid.NewRAID5(nil); err == nil {
		t.Error("RAID-5 over no disks accepted")
	}
	devs, _ := raidtest.Disks{Blocks: 16}.Make(2)
	if _, err := raid.NewRAID5(devs); err == nil {
		t.Error("RAID-5 over 2 disks accepted")
	}
	devs3, _ := raidtest.Disks{Blocks: 16}.Make(3)
	if _, err := raid.NewRAID10(devs3); err == nil {
		t.Error("RAID-10 over odd disks accepted")
	}
	if _, err := core.New(devs3, 2, 2, core.Options{}); err == nil {
		t.Error("RAID-x with mismatched grid accepted")
	}
	small, _ := raidtest.Disks{BS: 128, Blocks: 16}.Make(1)
	if _, err := raid.NewRAID10(append(small, devs[0])); err == nil {
		t.Error("mixed block sizes accepted")
	}
}

// TestHotSpareFailover: lose a disk, swap a spare into its slot and
// rebuild it, verify the array is fully redundant again by losing a
// second disk afterwards.
func TestHotSpareFailover(t *testing.T) {
	a, raw := raidtest.Build[raidtest.Array](t, raidtest.RAIDx(4, 1), disks64)
	spares, _ := disks64.Make(2)
	ctx := context.Background()
	sh := raidtest.Fill(t, a)
	failover := func(idx int, spare raid.Dev) {
		t.Helper()
		if old, err := a.SwapDev(idx, spare); err != nil || old != raid.Dev(raw[idx]) {
			t.Fatalf("swap of member %d returned (%v, %v), want the failed disk", idx, old, err)
		}
		if err := a.Rebuild(ctx, idx); err != nil {
			t.Fatalf("rebuild of member %d: %v", idx, err)
		}
	}

	raw[2].Fail()
	failover(2, spares[0])
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after failover: %v", err)
	}
	// The rebuilt spare must carry the data when another disk dies.
	raw[0].Fail()
	sh.Check(t, "after spare failover + second failure")
	failover(0, spares[1])
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after second failover: %v", err)
	}
}

// TestHotSpareGeometryMismatch: a wrong-sized spare is refused and the
// member table is left as it was.
func TestHotSpareGeometryMismatch(t *testing.T) {
	a, _ := raidtest.Build[raidtest.Array](t, raidtest.RAIDx(4, 1), disks64)
	tiny, _ := raidtest.Disks{Blocks: 8}.Make(1)
	before := a.Members().Load()
	if _, err := a.SwapDev(1, tiny[0]); err == nil {
		t.Fatal("mismatched spare accepted")
	}
	if a.Members().Load() != before {
		t.Fatal("a refused swap changed the member table")
	}
}
