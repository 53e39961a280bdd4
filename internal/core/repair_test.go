package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
)

// intentArray builds a RAID-x over instant mem disks with a write-intent
// log attached, returning the array, the raw disks, and the log.
func intentArray(t *testing.T, nodes, k int, blocks int64, regionBlocks int64) (*RAIDx, []*disk.Disk, *intent.Log) {
	t.Helper()
	devs := make([]raid.Dev, nodes*k)
	raw := make([]*disk.Disk, nodes*k)
	for i := range devs {
		d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	il := intent.NewLog(nodes*k, blocks, regionBlocks)
	a, err := New(devs, nodes, k, Options{Intent: il, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return a, raw, il
}

// TestResyncSourceMapping: the physical→logical inverse must agree with
// the layout's forward maps on every geometry — each logical block's two
// locations resolve back to it, and physical blocks nothing maps to are
// reported not-ok.
func TestResyncSourceMapping(t *testing.T) {
	for _, g := range []struct {
		n, k   int
		blocks int64
	}{
		{2, 1, 12}, {3, 1, 16}, {4, 1, 30}, {4, 2, 24}, {5, 3, 60}, {8, 2, 95},
	} {
		devs := make([]raid.Dev, g.n*g.k)
		for i := range devs {
			devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, g.blocks), disk.DefaultModel())
		}
		a, err := New(devs, g.n, g.k, Options{})
		if err != nil {
			t.Fatalf("%dx%d: %v", g.n, g.k, err)
		}
		lay := a.Layout()
		// Forward: every logical block's data and mirror locations must
		// invert to that block.
		for lb := int64(0); lb < a.Blocks(); lb++ {
			for _, loc := range []struct {
				disk  int
				block int64
			}{
				{lay.DataLoc(lb).Disk, lay.DataLoc(lb).Block},
				{lay.MirrorLoc(lb).Disk, lay.MirrorLoc(lb).Block},
			} {
				got, ok := a.resyncSource(loc.block, loc.disk)
				if !ok || got != lb {
					t.Fatalf("%dx%d/%d: resyncSource(%d, d%d) = %d,%v, want %d",
						g.n, g.k, g.blocks, loc.block, loc.disk, got, ok, lb)
				}
			}
		}
		// Inverse: each physical block maps to at most one logical block,
		// and the mapped ones are exactly 2·Blocks() across the array.
		mapped := int64(0)
		for idx := 0; idx < g.n*g.k; idx++ {
			for pb := int64(0); pb < g.blocks; pb++ {
				if lb, ok := a.resyncSource(pb, idx); ok {
					mapped++
					d, m := lay.DataLoc(lb), lay.MirrorLoc(lb)
					if !(d.Disk == idx && d.Block == pb) && !(m.Disk == idx && m.Block == pb) {
						t.Fatalf("%dx%d: resyncSource(%d, d%d) = %d but block lives elsewhere",
							g.n, g.k, pb, idx, lb)
					}
				}
			}
		}
		if mapped != 2*a.Blocks() {
			t.Fatalf("%dx%d/%d: %d physical blocks mapped, want %d",
				g.n, g.k, g.blocks, mapped, 2*a.Blocks())
		}
	}
}

// TestRepairRebuildResume: a rebuild aborted by its pace function keeps
// a checkpoint; resuming from it finishes without redoing the work
// already landed, and the progress gauges track it.
func TestRepairRebuildResume(t *testing.T) {
	a, raw, _ := intentArray(t, 4, 1, 800, 0)
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(bs))
	rand.New(rand.NewSource(31)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	const victim = 2
	// Baseline: count the device writes of an uninterrupted rebuild.
	raw[victim].Fail()
	if err := raw[victim].Replace(); err != nil {
		t.Fatal(err)
	}
	_, w0, _, _ := raw[victim].Stats()
	if err := a.Rebuild(ctx, victim); err != nil {
		t.Fatal(err)
	}
	_, w1, _, _ := raw[victim].Stats()
	fullWrites := w1 - w0
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the pace hook aborts after abortAfter landed
	// chunks (RebuildFrom paces once per landed write).
	raw[victim].Fail()
	if err := raw[victim].Replace(); err != nil {
		t.Fatal(err)
	}
	errPaused := errors.New("paused")
	abortAfter := int(fullWrites) / 2
	calls := 0
	var prog raid.RebuildProgress
	err := raid.RebuildFrom(ctx, a, victim, &prog, func(ctx context.Context, bytes int) error {
		calls++
		if calls >= abortAfter {
			return errPaused
		}
		return nil
	})
	if !errors.Is(err, errPaused) {
		t.Fatalf("interrupted rebuild returned %v, want pause error", err)
	}
	if prog.Done == 0 {
		t.Fatal("no checkpoint recorded before the abort")
	}
	_, w2, _, _ := raw[victim].Stats()

	// Resume from the checkpoint: the second run must do at most the
	// remaining work (plus one re-copied boundary chunk), not start over.
	if err := raid.RebuildFrom(ctx, a, victim, &prog, nil); err != nil {
		t.Fatal(err)
	}
	_, w3, _, _ := raw[victim].Stats()
	resumeWrites := w3 - w2
	if want := fullWrites - int64(abortAfter) + 2; resumeWrites > want {
		t.Fatalf("resume did %d writes, want <= %d (full rebuild is %d)", resumeWrites, want, fullWrites)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after resumed rebuild: %v", err)
	}
	g := a.opt.Obs.Snapshot().Gauges
	if done, total := g["raidx.rebuild_done_blocks"], g["raidx.rebuild_total_blocks"]; total == 0 || done != total {
		t.Fatalf("progress gauges %d/%d after completion", done, total)
	}
	// One counter, in physical blocks over both halves of the disk.
	if want := a.Layout().DiskBlocks; prog.Done != want || prog.Total != want {
		t.Fatalf("checkpoint %+v, want %d of %d physical blocks", prog, want, want)
	}
	// A checkpoint persisted under the four-field shape decodes as nothing
	// done: it resumes earlier, never later.
	var old raid.RebuildProgress
	if err := json.Unmarshal([]byte(`{"data_done":400,"data_total":400,"groups_done":128,"groups_total":400}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Done != 0 {
		t.Fatalf("old-shape checkpoint decoded as %+v, want zero done", old)
	}
}

// TestResyncDeltaOnlyTransfersDirty: writes landed while a device was
// down are intent-logged; after readmission a delta resync moves only
// the dirty regions — a small fraction of the device — and restores full
// redundancy.
func TestResyncDeltaOnlyTransfersDirty(t *testing.T) {
	const blocks = 800
	a, raw, il := intentArray(t, 4, 1, blocks, 8)
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(bs))
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	raw[victim].Fail()
	// A handful of degraded writes: some hit the victim's data column,
	// some its mirror groups; every skipped copy must be intent-logged.
	for i := 0; i < 10; i++ {
		lb := rng.Int63n(a.Blocks())
		buf := make([]byte, bs)
		rng.Read(buf)
		if err := a.WriteBlocks(ctx, lb, buf); err != nil {
			t.Fatal(err)
		}
		copy(data[lb*int64(bs):], buf)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if il.MissedBlocks(victim) == 0 {
		t.Fatal("degraded writes left no intents")
	}
	// The device returns with stale contents (not blank).
	raw[victim].Readmit()
	st, err := raid.Resync(ctx, a, victim, il.TakeDirty(victim), nil)
	if err != nil {
		t.Fatal(err)
	}
	deviceBytes := int64(blocks) * int64(bs)
	if st.BytesCopied == 0 || st.BytesCopied >= deviceBytes/4 {
		t.Fatalf("resync copied %d bytes, want a small fraction of the %d-byte device", st.BytesCopied, deviceBytes)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after delta resync: %v", err)
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data diverged after delta resync")
	}
	// A sampled scrub of the readmitted device finds nothing left to fix.
	sc, err := raid.ScrubSample(ctx, a, victim, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.BlocksChecked == 0 || sc.Mismatches != 0 {
		t.Fatalf("scrub checked %d blocks, %d mismatches; want >0 checked, 0 mismatches", sc.BlocksChecked, sc.Mismatches)
	}
}

// TestResyncReadmitRace: writes racing a device's suspect→healthy flaps
// must never be lost — each write either reaches both copies or leaves
// an intent, so resync-until-clean restores full redundancy. Run under
// -race (CI repair shard does).
func TestResyncReadmitRace(t *testing.T) {
	const blocks = 400
	a, raw, il := intentArray(t, 4, 1, blocks, 8)
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(bs))
	rand.New(rand.NewSource(5)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	const victim = 3
	shadow := make([]byte, len(data))
	copy(shadow, data)
	var shadowMu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: each owns a disjoint block range and retries every write
	// until it succeeds, so the final content of each block is known.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			span := a.Blocks() / 4
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lb := int64(w)*span + rng.Int63n(span)
				buf := make([]byte, bs)
				rng.Read(buf)
				for {
					if err := a.WriteBlocks(ctx, lb, buf); err == nil {
						break
					}
				}
				shadowMu.Lock()
				copy(shadow[lb*int64(bs):], buf)
				shadowMu.Unlock()
			}
		}()
	}
	// The victim flaps: offline, back with stale data, offline again —
	// the readmit-races-degraded-write window over and over.
	for flap := 0; flap < 25; flap++ {
		raw[victim].Fail()
		raw[victim].Readmit()
	}
	close(stop)
	wg.Wait()
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Resync until the log is clean: writes that raced a flap may mark
	// new regions while an earlier resync is draining them.
	for pass := 0; ; pass++ {
		if pass > 20 {
			t.Fatal("intent log never drained")
		}
		regions := il.TakeDirty(victim)
		if len(regions) == 0 {
			break
		}
		if _, err := raid.Resync(ctx, a, victim, regions, nil); err != nil {
			for _, r := range regions {
				il.MarkRange(victim, r.Start, r.Count)
			}
			t.Fatalf("resync pass %d: %v", pass, err)
		}
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after flap storm + resync: %v", err)
	}
	got := make([]byte, len(shadow))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("a write raced a readmit and was lost")
	}
}
