package raid_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

// chunk is the repair loop's rebuildChunk: the most blocks one repair
// transfer may move.
const chunk = 128

// mirrorPlacer is what the mirroring layouts have in common.
type mirrorPlacer interface {
	DataBlocks() int64
	DataLoc(int64) layout.Loc
	MirrorLoc(int64) layout.Loc
}

// wantMirrorRestore computes the calls of a full rebuild of disk idx
// under a mirroring layout from its forward maps alone: every physical
// block of idx holding one copy of a logical block is restored from the
// other copy, chunk blocks of each extent at a time. Within a chunk the
// restored blocks are written in contiguous runs; they are read one block
// per call (perBlock: the OSM engine, whose peers scatter over the other
// disks) or in contiguous runs of the source disk.
func wantMirrorRestore(lay mirrorPlacer, idx int, ext [][2]int64, perBlock bool) []raidtest.DevCall {
	src := map[int64]layout.Loc{}
	for lb := int64(0); lb < lay.DataBlocks(); lb++ {
		d, m := lay.DataLoc(lb), lay.MirrorLoc(lb)
		if d.Disk == idx {
			src[d.Block] = m
		}
		if m.Disk == idx {
			src[m.Block] = d
		}
	}
	// extend grows the last call of the list when it continues it, or
	// starts a new one.
	extend := func(calls []raidtest.DevCall, cont bool, disk int, phys int64, kind string) []raidtest.DevCall {
		if last := len(calls) - 1; cont && last >= 0 && calls[last].Disk == disk && calls[last].Phys+int64(calls[last].Blocks) == phys {
			calls[last].Blocks++
			return calls
		}
		return append(calls, raidtest.DevCall{Disk: disk, Phys: phys, Blocks: 1, Kind: kind})
	}
	var reads, writes []raidtest.DevCall
	for _, e := range ext {
		for c := e[0]; c < e[1]; c += chunk {
			for pb := c; pb < min(c+chunk, e[1]); pb++ {
				if s, ok := src[pb]; ok {
					writes = extend(writes, pb > c, idx, pb, "write")
					reads = extend(reads, pb > c && !perBlock, s.Disk, s.Block, "read")
				}
			}
		}
	}
	return append(reads, writes...)
}

// wantStripeRestore computes the calls of a full rebuild of device idx of
// an n-device parity array with the given rows per device: per chunk of
// rows, one read of those rows from every survivor and one write of them
// to idx — whatever the rotation, every device holds one shard of every
// stripe.
func wantStripeRestore(n, idx int, rows int64) []raidtest.DevCall {
	var calls []raidtest.DevCall
	for c := int64(0); c < rows; c += chunk {
		for d := 0; d < n; d++ {
			kind := "read"
			if d == idx {
				kind = "write"
			}
			calls = append(calls, raidtest.DevCall{Disk: d, Phys: c, Blocks: int(min(chunk, rows-c)), Kind: kind})
		}
	}
	return calls
}

// TestCallsRestore pins the repair I/O of every redundant engine: the
// exact (disk, physical block, length, read|write) set of a full rebuild
// through the one restore loop, against expectations computed from the
// layouts alone, and that no repair transfer moves more than one chunk —
// a whole column in one call cannot cross the transport's frame limit.
// Then the same for Verify, the loop's compare over every member: each
// member's rebuild reads, plus one read of each of its chunks, and no
// write.
func TestCallsRestore(t *testing.T) {
	const per = 600 // blocks per device: extents of 300 or 600, neither a chunk multiple
	const victim = 1
	geo := func(n int) layout.Geometry { return layout.Geometry{Disks: n, DiskBlocks: per} }
	whole, halves := [][2]int64{{0, per}}, [][2]int64{{0, per / 2}, {per / 2, per}}
	cases := []struct {
		e    raidtest.Engine
		ext  [][2]int64                       // every member's extents
		want func(idx int) []raidtest.DevCall // a full rebuild of member idx
	}{
		{raidtest.RAIDx(4, 1), halves,
			func(idx int) []raidtest.DevCall {
				return wantMirrorRestore(layout.NewOSM(4, 1, per), idx, halves, true)
			}},
		{raidtest.RAID5(4), whole, func(idx int) []raidtest.DevCall { return wantStripeRestore(4, idx, per) }},
		{raidtest.RS(6, 2), whole, func(idx int) []raidtest.DevCall { return wantStripeRestore(8, idx, per) }},
		{raidtest.RAID10(4), whole,
			func(idx int) []raidtest.DevCall {
				return wantMirrorRestore(layout.NewRAID10(geo(4)), idx, whole, false)
			}},
		{raidtest.Chained(4), halves,
			func(idx int) []raidtest.DevCall {
				return wantMirrorRestore(layout.NewChained(geo(4)), idx, halves, false)
			}},
	}
	for _, c := range cases {
		t.Run(c.e.Name, func(t *testing.T) {
			rec := &raidtest.Recorder{}
			a, raw := raidtest.Build[raidtest.Array](t, c.e, raidtest.Disks{Blocks: per, Wrap: rec.Dev})
			ctx := context.Background()
			raidtest.Fill(t, a)
			raw[victim].Fail()
			if err := raw[victim].Replace(); err != nil {
				t.Fatal(err)
			}
			rec.Take()
			if err := a.Rebuild(ctx, victim); err != nil {
				t.Fatal(err)
			}
			check := func(what string, want []raidtest.DevCall) {
				t.Helper()
				got := raidtest.Sorted(rec.Take())
				for _, call := range got {
					if call.Blocks > chunk {
						t.Errorf("%s transfer %+v moves more than %d blocks", what, call, chunk)
					}
				}
				if want = raidtest.Sorted(want); !reflect.DeepEqual(got, want) {
					t.Errorf("%s device calls: got %d, want %d\n got  %s\n want %s",
						what, len(got), len(want), head(got), head(want))
				}
			}
			check("rebuild", c.want(victim))

			if err := a.Verify(ctx); err != nil {
				t.Fatalf("verify after rebuild: %v", err)
			}
			var want []raidtest.DevCall
			for i := 0; i < c.e.N; i++ {
				for _, call := range c.want(i) {
					if call.Kind == "read" {
						want = append(want, call)
					}
				}
				for _, e := range c.ext {
					for pb := e[0]; pb < e[1]; pb += chunk {
						want = append(want, raidtest.DevCall{Disk: i, Phys: pb, Blocks: int(min(chunk, e[1]-pb)), Kind: "read"})
					}
				}
			}
			check("verify", want)
		})
	}
}

// head renders the first calls of a list for a failure message.
func head(c []raidtest.DevCall) string {
	if len(c) > 12 {
		return fmt.Sprintf("%v ...", c[:12])
	}
	return fmt.Sprint(c)
}

// TestRepairSwapDevBlankUntilRebuilt: on every redundant engine a member
// the engine was told is blank — a swapped-in spare, or its own device
// emptied in place and handed back through SwapDev — takes writes at once
// but serves no read until its rebuild completes; so does a member a
// rebuild is rewriting in place, whose blocks are known wrong. A rebuild
// that finishes after a newer spare took the slot does not unmask the
// newer one.
func TestRepairSwapDevBlankUntilRebuilt(t *testing.T) {
	const per, victim = 300, 2
	reads := func(d *disk.Disk) int64 { r, _, _, _ := d.Stats(); return r }
	for _, e := range []raidtest.Engine{raidtest.RAIDx(4, 1), raidtest.RAID5(4), raidtest.RS(6, 2), raidtest.RAID10(4), raidtest.Chained(4)} {
		// setup builds the engine over fresh disks and fills it; readAll
		// reads the whole array twice (the second pass prefers the other
		// copy on the mirrored engines) and checks it against the shadow.
		setup := func(t *testing.T) (a raidtest.Array, raw []*disk.Disk, sh *raidtest.Shadow, readAll func(string)) {
			a, raw = raidtest.Build[raidtest.Array](t, e, raidtest.Disks{Blocks: per})
			sh = raidtest.Fill(t, a)
			return a, raw, sh, func(when string) {
				t.Helper()
				sh.Check(t, "read "+when)
				sh.Check(t, "read "+when)
			}
		}
		// rebuilt rebuilds the victim and checks it is a read source again.
		rebuilt := func(t *testing.T, a raidtest.Array, raw []*disk.Disk, victimDisk *disk.Disk, readAll func(string)) {
			t.Helper()
			if err := a.Rebuild(context.Background(), victim); err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(context.Background()); err != nil {
				t.Fatalf("verify after rebuild: %v", err)
			}
			before := reads(victimDisk)
			for i := range raw {
				if i != victim {
					raw[i].Fail()
					readAll(fmt.Sprintf("after the rebuild with member %d down", i))
					raw[i].Readmit()
				}
			}
			if reads(victimDisk) == before {
				t.Fatal("the rebuilt member serves no reads")
			}
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Run("spare", func(t *testing.T) {
				ctx := context.Background()
				a, raw, sh, readAll := setup(t)
				spares, spareDisks := raidtest.Disks{Blocks: per}.Make(2)
				if _, err := a.SwapDev(e.N, spares[0]); err == nil {
					t.Fatal("swap of a member out of range accepted")
				}
				tiny, _ := raidtest.Disks{Blocks: per / 2}.Make(1)
				if _, err := a.SwapDev(victim, tiny[0]); err == nil {
					t.Fatal("undersized spare accepted")
				}
				raw[victim].Fail()
				if old, err := a.SwapDev(victim, spares[0]); err != nil || old != raw[victim] {
					t.Fatalf("swap returned (%v, %v), want the failed member", old, err)
				}
				// Blank: every write lands on the spare, no read touches it.
				if err := sh.Write(ctx, 0, 64); err != nil {
					t.Fatal(err)
				}
				if _, w, _, _ := spareDisks[0].Stats(); w == 0 {
					t.Fatal("a write skipped the blank spare")
				}
				readAll("with a blank spare")
				if r := reads(spareDisks[0]); r != 0 {
					t.Fatalf("the blank spare served %d reads", r)
				}
				// A second spare takes the slot while the first one's rebuild
				// is under way: the rebuild of the first must not unmask it.
				swapped := false
				err := raid.RebuildFrom(ctx, a, victim, nil, func(context.Context, int) error {
					if !swapped {
						swapped = true
						if _, err := a.SwapDev(victim, spares[1]); err != nil {
							t.Error(err)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				readAll("after a superseded rebuild")
				if r := reads(spareDisks[1]); r != 0 {
					t.Fatalf("the second, never rebuilt spare served %d reads", r)
				}
				// Its own rebuild makes it a read source.
				rebuilt(t, a, raw, spareDisks[1], readAll)
			})
			t.Run("in place", func(t *testing.T) {
				a, raw, _, readAll := setup(t)
				reg := obs.NewRegistry()
				a.Members().Attach(nil, reg, nil)
				raw[victim].Fail()
				if err := raw[victim].Replace(); err != nil {
					t.Fatal(err)
				}
				if old, err := a.SwapDev(victim, raw[victim]); err != nil || old != raw[victim] {
					t.Fatalf("swap of the emptied member returned (%v, %v), want the member itself", old, err)
				}
				if ev := reg.Events().Events(); len(ev) != 1 || ev[0].Kind != obs.EventSwap || ev[0].Detail != "device emptied in place" {
					t.Fatalf("swap events %+v, want one naming the in-place empty", ev)
				}
				before := reads(raw[victim])
				readAll("with the member emptied in place")
				if r := reads(raw[victim]) - before; r != 0 {
					t.Fatalf("the emptied member served %d reads", r)
				}
				rebuilt(t, a, raw, raw[victim], readAll)
			})
			t.Run("rebuild in place", func(t *testing.T) {
				ctx := context.Background()
				a, raw, _, readAll := setup(t)
				if err := raw[victim].WriteBlocks(ctx, 0, bytes.Repeat([]byte{0xEE}, per*raidtest.BS)); err != nil {
					t.Fatal(err)
				}
				// The member keeps its place; its rebuild alone must keep
				// reads off the blocks it has not rewritten yet.
				var served int64 = -1
				err := raid.RebuildFrom(ctx, a, victim, nil, func(context.Context, int) error {
					if served < 0 {
						before := reads(raw[victim])
						readAll("during a rebuild in place")
						served = reads(raw[victim]) - before
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if served != 0 {
					t.Fatalf("the member under rebuild served %d reads", served)
				}
				readAll("after the rebuild in place")
				rebuilt(t, a, raw, raw[victim], readAll)
			})
		})
	}
}

// TestRepairRebuildTargetFlaps: on every redundant engine, a rebuild
// target that drops out between two chunks misses a write to a chunk the
// rebuild already restored (logical block 0 lives at physical block 0 of
// member 0 on each) — within one call, or while the rebuild is paused
// and before it resumes. The rebuild completes, but its commit leaves
// that block missed, so it reads back new, and a resync of the target
// makes the array verify clean. The array keeps a region-granular log,
// the kind the supervisor persists.
func TestRepairRebuildTargetFlaps(t *testing.T) {
	const victim, blocks = 0, 300
	ctx := context.Background()
	errPause := errors.New("paused")
	for _, e := range []raidtest.Engine{raidtest.RAIDx(4, 1), raidtest.RAID5(4), raidtest.RS(6, 2), raidtest.RAID10(4), raidtest.Chained(4)} {
		for _, resumed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/resumed=%v", e.Name, resumed), func(t *testing.T) {
				il := intent.NewLog(e.N, blocks, 8)
				a, raw := raidtest.Build[raidtest.Array](t, e.With(core.Options{Intent: il}), raidtest.Disks{Blocks: blocks})
				sh := raidtest.Fill(t, a)
				flap := func() {
					raw[victim].Fail()
					if err := sh.Write(ctx, 0, 1); err != nil {
						t.Errorf("write while the target is down: %v", err)
					}
					raw[victim].Readmit()
				}
				var prog raid.RebuildProgress
				chunks := 0
				err := raid.RebuildFrom(ctx, a, victim, &prog, func(context.Context, int) error {
					if chunks++; chunks == 1 && resumed {
						return errPause
					} else if chunks == 1 {
						flap()
					}
					return nil
				})
				if resumed {
					if !errors.Is(err, errPause) || prog.Done == 0 {
						t.Fatalf("the first call returned %v at block %d, want a pause past the first chunk", err, prog.Done)
					}
					flap()
					err = raid.RebuildFrom(ctx, a, victim, &prog, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !il.Missed(victim, 0, 1) || il.Blank(victim) {
					t.Fatal("the rebuild's commit dropped the write its target missed")
				}
				sh.Check(t, "after the rebuild")
				if _, err := raid.Resync(ctx, a, victim, il.TakeDirty(victim), nil); err != nil {
					t.Fatal(err)
				}
				if err := a.Verify(ctx); err != nil {
					t.Fatalf("verify after the resync: %v", err)
				}
				sh.Check(t, "after the resync")
			})
		}
	}
}

// BenchmarkVerify times one whole-array Verify of each redundant engine
// over in-memory disks of 4096 blocks of 4 KiB:
//
//	go test -run '^$' -bench Verify -benchtime 1x -count 3 ./internal/raid/
func BenchmarkVerify(b *testing.B) {
	for _, e := range []raidtest.Engine{raidtest.RS(8, 2), raidtest.RAID5(4), raidtest.RAIDx(4, 1), raidtest.RAID10(4), raidtest.Chained(4)} {
		b.Run(e.Name, func(b *testing.B) {
			a, _ := raidtest.Build[raidtest.Array](b, e, raidtest.Disks{BS: 4096, Blocks: 4096})
			raidtest.Fill(b, a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Verify(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
