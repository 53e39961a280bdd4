package raid_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
)

// chunk is the repair loop's rebuildChunk: the most blocks one repair
// transfer may move.
const chunk = 128

// devCall is one device call of a repair job.
type devCall struct {
	Disk   int
	Phys   int64
	Blocks int
	Kind   string // "read" or "write"
}

// recDev logs every transfer before passing it on. It hides the vectored
// interface, so every transfer arrives as one flat call.
type recDev struct {
	raid.Dev
	col   int
	mu    *sync.Mutex
	calls *[]devCall
}

func (d *recDev) note(b int64, p []byte, kind string) {
	d.mu.Lock()
	*d.calls = append(*d.calls, devCall{d.col, b, len(p) / d.BlockSize(), kind})
	d.mu.Unlock()
}

func (d *recDev) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	d.note(b, p, "read")
	return d.Dev.ReadBlocks(ctx, b, p)
}

func (d *recDev) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	d.note(b, p, "write")
	return d.Dev.WriteBlocks(ctx, b, p)
}

func sortCalls(c []devCall) []devCall {
	sort.Slice(c, func(i, j int) bool {
		if c[i].Disk != c[j].Disk {
			return c[i].Disk < c[j].Disk
		}
		if c[i].Phys != c[j].Phys {
			return c[i].Phys < c[j].Phys
		}
		if c[i].Blocks != c[j].Blocks {
			return c[i].Blocks < c[j].Blocks
		}
		return c[i].Kind < c[j].Kind
	})
	return c
}

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
func wantMirrorRestore(lay mirrorPlacer, idx int, ext [][2]int64, perBlock bool) []devCall {
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
	extend := func(calls []devCall, cont bool, disk int, phys int64, kind string) []devCall {
		if last := len(calls) - 1; cont && last >= 0 && calls[last].Disk == disk && calls[last].Phys+int64(calls[last].Blocks) == phys {
			calls[last].Blocks++
			return calls
		}
		return append(calls, devCall{disk, phys, 1, kind})
	}
	var reads, writes []devCall
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
func wantStripeRestore(n, idx int, rows int64) []devCall {
	var calls []devCall
	for c := int64(0); c < rows; c += chunk {
		cnt := int(min(chunk, rows-c))
		for d := 0; d < n; d++ {
			kind := "read"
			if d == idx {
				kind = "write"
			}
			calls = append(calls, devCall{d, c, cnt, kind})
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
		name  string
		n     int
		ext   [][2]int64 // every member's extents
		build func(devs []raid.Dev) (raid.Rebuilder, error)
		want  func(idx int) []devCall // a full rebuild of member idx
	}{
		{"raidx 4x1", 4, halves,
			func(devs []raid.Dev) (raid.Rebuilder, error) { return core.New(devs, 4, 1, core.Options{}) },
			func(idx int) []devCall { return wantMirrorRestore(layout.NewOSM(4, 1, per), idx, halves, true) }},
		{"raid5(4)", 4, whole,
			func(devs []raid.Dev) (raid.Rebuilder, error) { return raid.NewRAID5(devs) },
			func(idx int) []devCall { return wantStripeRestore(4, idx, per) }},
		{"rs(6,2)", 8, whole,
			func(devs []raid.Dev) (raid.Rebuilder, error) { return raid.NewRS(devs, 2) },
			func(idx int) []devCall { return wantStripeRestore(8, idx, per) }},
		{"raid10(4)", 4, whole,
			func(devs []raid.Dev) (raid.Rebuilder, error) { return raid.NewRAID10(devs) },
			func(idx int) []devCall { return wantMirrorRestore(layout.NewRAID10(geo(4)), idx, whole, false) }},
		{"chained(4)", 4, halves,
			func(devs []raid.Dev) (raid.Rebuilder, error) { return raid.NewChained(devs) },
			func(idx int) []devCall { return wantMirrorRestore(layout.NewChained(geo(4)), idx, halves, false) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			devs, raw := mkDisks(c.n, per)
			var mu sync.Mutex
			var calls []devCall
			for i := range devs {
				devs[i] = &recDev{Dev: devs[i], col: i, mu: &mu, calls: &calls}
			}
			a, err := c.build(devs)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			arr := a.(raid.Array)
			data := make([]byte, arr.Blocks()*int64(testBS))
			fill(data, 5)
			if err := arr.WriteBlocks(ctx, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			raw[victim].Fail()
			if err := raw[victim].Replace(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			calls = nil
			mu.Unlock()
			if err := a.Rebuild(ctx, victim); err != nil {
				t.Fatal(err)
			}
			check := func(what string, want []devCall) {
				t.Helper()
				mu.Lock()
				got := sortCalls(calls)
				calls = nil
				mu.Unlock()
				for _, call := range got {
					if call.Blocks > chunk {
						t.Errorf("%s transfer %+v moves more than %d blocks", what, call, chunk)
					}
				}
				if want = sortCalls(want); !reflect.DeepEqual(got, want) {
					t.Errorf("%s device calls: got %d, want %d\n got  %s\n want %s",
						what, len(got), len(want), head(got), head(want))
				}
			}
			check("rebuild", c.want(victim))

			if err := a.(raid.Verifier).Verify(ctx); err != nil {
				t.Fatalf("verify after rebuild: %v", err)
			}
			var want []devCall
			for i := 0; i < c.n; i++ {
				for _, call := range c.want(i) {
					if call.Kind == "read" {
						want = append(want, call)
					}
				}
				for _, e := range c.ext {
					for pb := e[0]; pb < e[1]; pb += chunk {
						want = append(want, devCall{i, pb, int(min(chunk, e[1]-pb)), "read"})
					}
				}
			}
			check("verify", want)
		})
	}
}

// head renders the first calls of a list for a failure message.
func head(c []devCall) string {
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
	type swappable interface {
		raid.Array
		raid.Restorer
		raid.DevSwapper
		raid.Verifier
	}
	cases := []struct {
		name  string
		n     int
		build func(devs []raid.Dev) (swappable, error)
	}{
		{"raidx 4x1", 4, func(devs []raid.Dev) (swappable, error) { return core.New(devs, 4, 1, core.Options{}) }},
		{"raid5(4)", 4, func(devs []raid.Dev) (swappable, error) { return raid.NewRAID5(devs) }},
		{"rs(6,2)", 8, func(devs []raid.Dev) (swappable, error) { return raid.NewRS(devs, 2) }},
		{"raid10(4)", 4, func(devs []raid.Dev) (swappable, error) { return raid.NewRAID10(devs) }},
		{"chained(4)", 4, func(devs []raid.Dev) (swappable, error) { return raid.NewChained(devs) }},
	}
	reads := func(d *disk.Disk) int64 { r, _, _, _ := d.Stats(); return r }
	for _, c := range cases {
		// setup builds the engine over fresh disks and fills it; readAll
		// reads the whole array twice (the second pass prefers the other
		// copy on the mirrored engines) and checks it against shadow.
		setup := func(t *testing.T) (a swappable, devs []raid.Dev, raw []*disk.Disk, shadow []byte, readAll func(string)) {
			ctx := context.Background()
			devs, raw = mkDisks(c.n, per)
			a, err := c.build(devs)
			if err != nil {
				t.Fatal(err)
			}
			shadow = make([]byte, a.Blocks()*int64(testBS))
			fill(shadow, 61)
			if err := a.WriteBlocks(ctx, 0, shadow); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			readAll = func(when string) {
				t.Helper()
				got := make([]byte, len(shadow))
				for pass := 0; pass < 2; pass++ {
					if err := a.ReadBlocks(ctx, 0, got); err != nil {
						t.Fatalf("read %s: %v", when, err)
					}
					if !bytes.Equal(got, shadow) {
						t.Fatalf("read %s returned wrong data", when)
					}
				}
			}
			return a, devs, raw, shadow, readAll
		}
		// rebuilt rebuilds the victim and checks it is a read source again.
		rebuilt := func(t *testing.T, a swappable, raw []*disk.Disk, victimDisk *disk.Disk, readAll func(string)) {
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
		t.Run(c.name, func(t *testing.T) {
			t.Run("spare", func(t *testing.T) {
				ctx := context.Background()
				a, devs, raw, shadow, readAll := setup(t)
				spares, spareDisks := mkDisks(2, per)
				if _, err := a.SwapDev(c.n, spares[0]); err == nil {
					t.Fatal("swap of a member out of range accepted")
				}
				tiny, _ := mkDisks(1, per/2)
				if _, err := a.SwapDev(victim, tiny[0]); err == nil {
					t.Fatal("undersized spare accepted")
				}
				raw[victim].Fail()
				if old, err := a.SwapDev(victim, spares[0]); err != nil || old != devs[victim] {
					t.Fatalf("swap returned (%v, %v), want the failed member", old, err)
				}
				// Blank: every write lands on the spare, no read touches it.
				fill(shadow[:64*testBS], 62)
				if err := a.WriteBlocks(ctx, 0, shadow[:64*testBS]); err != nil {
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
				a, devs, raw, _, readAll := setup(t)
				reg := obs.NewRegistry()
				a.Members().Attach(nil, reg, nil)
				raw[victim].Fail()
				if err := raw[victim].Replace(); err != nil {
					t.Fatal(err)
				}
				if old, err := a.SwapDev(victim, devs[victim]); err != nil || old != devs[victim] {
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
				a, _, raw, _, readAll := setup(t)
				junk := make([]byte, per*testBS)
				fill(junk, 63)
				if err := raw[victim].WriteBlocks(ctx, 0, junk); err != nil {
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

// BenchmarkVerify times one whole-array Verify of each redundant engine
// over in-memory disks of 4096 blocks of 4 KiB:
//
//	go test -run '^$' -bench Verify -benchtime 1x -count 3 ./internal/raid/
func BenchmarkVerify(b *testing.B) {
	const bs, per = 4096, 4096
	cases := []struct {
		name  string
		n     int
		build func(devs []raid.Dev) (raid.Array, error)
	}{
		{"rs(8,2)", 10, func(devs []raid.Dev) (raid.Array, error) { return raid.NewRS(devs, 2) }},
		{"raid5(4)", 4, func(devs []raid.Dev) (raid.Array, error) { return raid.NewRAID5(devs) }},
		{"raidx 4x1", 4, func(devs []raid.Dev) (raid.Array, error) { return core.New(devs, 4, 1, core.Options{}) }},
		{"raid10(4)", 4, func(devs []raid.Dev) (raid.Array, error) { return raid.NewRAID10(devs) }},
		{"chained(4)", 4, func(devs []raid.Dev) (raid.Array, error) { return raid.NewChained(devs) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			devs := make([]raid.Dev, c.n)
			for i := range devs {
				devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, per), disk.DefaultModel())
			}
			a, err := c.build(devs)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, a.Blocks()*bs)
			fill(data, 1)
			if err := a.WriteBlocks(ctx, 0, data); err != nil {
				b.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.(raid.Verifier).Verify(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
