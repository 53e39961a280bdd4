package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/vclock"
)

const bs = 1024

// simArray builds a RAID-x over simulated disks with a flat timing
// model (no seek) for easy arithmetic, returning the raw disks too.
func simArray(t *testing.T, s *vclock.Sim, nodes, k int, blocks int64, model disk.Model, opt Options) (*RAIDx, []*disk.Disk) {
	t.Helper()
	devs := make([]raid.Dev, nodes*k)
	raw := make([]*disk.Disk, nodes*k)
	for i := range devs {
		d := disk.New(s, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), model)
		devs[i] = d
		raw[i] = d
	}
	a, err := New(devs, nodes, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return a, raw
}

// TestSmallWriteHidesMirror: a single-block write should cost one disk
// write (no read-modify-write, no second synchronous write); the image
// lands in the background and Flush waits for it.
func TestSmallWriteHidesMirror(t *testing.T) {
	s := vclock.New()
	model := disk.Model{Seek: 0, TrackSkip: 0, BandwidthBps: 1e6, PerRequest: 0}
	a, _ := simArray(t, s, 4, 1, 16, model, Options{})
	s.Spawn("client", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		data := bytes.Repeat([]byte{1}, bs)
		if err := a.WriteBlocks(ctx, 0, data); err != nil {
			t.Error(err)
		}
		// 1024 B at 1 MB/s = 1.024 ms for the data write only.
		want := time.Duration(float64(bs) / 1e6 * float64(time.Second))
		if p.Now() != want {
			t.Errorf("small write took %v, want %v (mirror must be hidden)", p.Now(), want)
		}
		if err := a.Flush(ctx); err != nil {
			t.Error(err)
		}
		// Flush waits for the background image write (same size, on a
		// different disk, so it overlapped the data write).
		if p.Now() != want {
			t.Errorf("flush completed at %v, want %v (image write overlaps)", p.Now(), want)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestForegroundMirrorAblation: with ForegroundMirror the client waits
// for the image write too (it overlaps the data write on another disk,
// so it costs one extra message-free disk time only when queued —
// here they overlap, so we check it is at least not hidden when the
// mirror disk is busy).
func TestForegroundMirrorAblation(t *testing.T) {
	s := vclock.New()
	model := disk.Model{Seek: 0, TrackSkip: 0, BandwidthBps: 1e6, PerRequest: 0}
	a, raw := simArray(t, s, 4, 1, 16, model, Options{ForegroundMirror: true})
	s.Spawn("client", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		// Pre-load the mirror disk of group 0 (disk 3) with queued work.
		busy := 10 * time.Millisecond
		raw[3].Arm().Reserve(busy)
		data := bytes.Repeat([]byte{1}, bs)
		if err := a.WriteBlocks(ctx, 0, data); err != nil {
			t.Error(err)
		}
		// Foreground mirror: the client waits for the image write,
		// which queues behind 10 ms of existing work.
		xfer := time.Duration(float64(bs) / 1e6 * float64(time.Second))
		if p.Now() != busy+xfer {
			t.Errorf("foreground-mirror write took %v, want %v", p.Now(), busy+xfer)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// Same scenario with background mirroring: the client is unaffected.
	s2 := vclock.New()
	a2, raw2 := simArray(t, s2, 4, 1, 16, model, Options{})
	s2.Spawn("client", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		raw2[3].Arm().Reserve(10 * time.Millisecond)
		data := bytes.Repeat([]byte{1}, bs)
		if err := a2.WriteBlocks(ctx, 0, data); err != nil {
			t.Error(err)
		}
		xfer := time.Duration(float64(bs) / 1e6 * float64(time.Second))
		if p.Now() != xfer {
			t.Errorf("background-mirror write took %v, want %v", p.Now(), xfer)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGatheredMirrorIsOneLongWrite: writing one full mirror group must
// issue a single physical write on the mirror disk; the scatter
// ablation issues GroupSize separate writes and pays GroupSize seeks.
func TestGatheredMirrorIsOneLongWrite(t *testing.T) {
	// Per-request controller overhead is what separates one gathered
	// write from GroupSize scattered ones once the disk detects the
	// sequential continuation.
	model := disk.Model{Seek: 8 * time.Millisecond, TrackSkip: 0, BandwidthBps: 1e6, PerRequest: time.Millisecond}

	run := func(opt Options) (mirrorWrites int64, mirrorBusy time.Duration) {
		s := vclock.New()
		a, raw := simArray(t, s, 4, 1, 16, model, opt)
		s.Spawn("client", func(p *vclock.Proc) {
			ctx := vclock.With(context.Background(), p)
			// Blocks 0..2 form mirror group 0, mirrored on disk 3.
			data := bytes.Repeat([]byte{7}, 3*bs)
			if err := a.WriteBlocks(ctx, 0, data); err != nil {
				t.Error(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Error(err)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		_, w, _, _ := raw[3].Stats()
		return w, raw[3].BgLane().BusyTime()
	}

	gw, gb := run(Options{})
	sw, sb := run(Options{ScatterMirror: true})
	if gw != 1 {
		t.Errorf("gathered: %d mirror writes, want 1", gw)
	}
	if sw != 3 {
		t.Errorf("scattered: %d mirror writes, want 3", sw)
	}
	if gb >= sb {
		t.Errorf("gathered mirror busy %v not cheaper than scattered %v", gb, sb)
	}
}

// TestPartialGroupMirrorWrites: a write covering parts of two mirror
// groups must land images in both groups' slots, contiguously.
func TestPartialGroupMirrorWrites(t *testing.T) {
	s := vclock.New()
	model := disk.Model{Seek: 0, TrackSkip: 0, BandwidthBps: 1e9, PerRequest: 0}
	a, _ := simArray(t, s, 4, 1, 16, model, Options{})
	s.Spawn("client", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		// Blocks 2..4 span group 0 (blocks 0-2) and group 1 (blocks 3-5).
		data := make([]byte, 3*bs)
		rand.New(rand.NewSource(1)).Read(data)
		if err := a.WriteBlocks(ctx, 2, data); err != nil {
			t.Error(err)
		}
		if err := a.Flush(ctx); err != nil {
			t.Error(err)
		}
		// Verify both images directly via the layout.
		for i := 0; i < 3; i++ {
			lb := int64(2 + i)
			m := a.Layout().MirrorLoc(lb)
			got := make([]byte, bs)
			if err := a.Devices()[m.Disk].ReadBlocks(ctx, m.Block, got); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(got, data[i*bs:(i+1)*bs]) {
				t.Errorf("image of block %d wrong", lb)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeWriteParallelism: in an n-disk array with no contention, a
// full-stripe write should take roughly 1/n of the serial time because
// the per-disk writes overlap.
func TestLargeWriteParallelism(t *testing.T) {
	s := vclock.New()
	model := disk.Model{Seek: 0, TrackSkip: 0, BandwidthBps: 1e6, PerRequest: 0}
	a, _ := simArray(t, s, 4, 1, 64, model, Options{})
	s.Spawn("client", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		// 16 blocks over 4 disks = 4 blocks per disk.
		data := make([]byte, 16*bs)
		if err := a.WriteBlocks(ctx, 0, data); err != nil {
			t.Error(err)
		}
		perDisk := time.Duration(float64(4*bs) / 1e6 * float64(time.Second))
		if p.Now() != perDisk {
			t.Errorf("16-block write took %v, want %v (4 disks in parallel)", p.Now(), perDisk)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDetectsCorruption: Verify must flag a mismatched image.
func TestVerifyDetectsCorruption(t *testing.T) {
	a, raw := pureArray(t, 4, 1, 16)
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*bs)
	rand.New(rand.NewSource(2)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	// Corrupt one image block behind the engine's back.
	m := a.Layout().MirrorLoc(5)
	if err := raw[m.Disk].WriteBlocks(ctx, m.Block, bytes.Repeat([]byte{0xEE}, bs)); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err == nil {
		t.Fatal("verify missed corrupted image")
	}
}

func pureArray(t *testing.T, nodes, k int, blocks int64) (*RAIDx, []*disk.Disk) {
	t.Helper()
	devs := make([]raid.Dev, nodes*k)
	raw := make([]*disk.Disk, nodes*k)
	for i := range devs {
		d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	a, err := New(devs, nodes, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, raw
}

// TestMultiFailureDifferentGroups: an n-by-k RAID-x tolerates multiple
// failed disks as long as no block loses both copies — e.g. two disks
// on the same node never hold a block and its image.
func TestMultiFailureSameNode(t *testing.T) {
	a, raw := pureArray(t, 4, 3, 24)
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*bs)
	rand.New(rand.NewSource(8)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	// Disks 1, 5, 9 all live on node 1: orthogonality guarantees no
	// block and its image are both on node 1.
	raw[1].Fail()
	raw[5].Fail()
	raw[9].Fail()
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("read with a whole node down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data with a whole node down")
	}
}

// TestBalancedReadAvoidsBusyDisk: with BalanceReads, a single-block
// read dodges a data disk buried under queued work by reading the
// orthogonal image instead — at the base layout and after a grow alike.
func TestBalancedReadAvoidsBusyDisk(t *testing.T) {
	run := func(balance, grow bool) time.Duration {
		s := vclock.New()
		model := disk.Model{Seek: 0, TrackSkip: 0, BandwidthBps: 1e6, PerRequest: 0}
		a, raw := simArray(t, s, 4, 1, 16, model, Options{BalanceReads: balance})
		var took time.Duration
		s.Spawn("reader", func(p *vclock.Proc) {
			ctx := vclock.With(context.Background(), p)
			if grow {
				added := make([]raid.Dev, 2)
				for i := range added {
					d := disk.New(s, fmt.Sprintf("d%d", 4+i), store.NewMem(bs, 16), model)
					added[i], raw = d, append(raw, d)
				}
				m, err := a.BeginGrow(2, added, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Run(ctx, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
			// Populate the last block (a grow moves it) and its image.
			lb := a.Blocks() - 1
			if moved, _ := a.Epoch().Moved(lb); moved != grow {
				t.Errorf("block %d moved = %v, want %v", lb, moved, grow)
			}
			if err := a.WriteBlocks(ctx, lb, make([]byte, bs)); err != nil {
				t.Error(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Error(err)
			}
			start := p.Now()
			// Bury the block's data disk under 50 ms of work.
			raw[a.Epoch().DataLoc(lb).Disk].Arm().Reserve(50 * time.Millisecond)
			buf := make([]byte, bs)
			if err := a.ReadBlocks(ctx, lb, buf); err != nil {
				t.Error(err)
			}
			took = p.Now() - start
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	for _, grow := range []bool{false, true} {
		plain := run(false, grow)
		balanced := run(true, grow)
		if plain < 50*time.Millisecond {
			t.Fatalf("grow=%v: unbalanced read took %v, expected to queue behind 50ms", grow, plain)
		}
		if balanced >= 10*time.Millisecond {
			t.Fatalf("grow=%v: balanced read took %v, expected to dodge the busy disk", grow, balanced)
		}
	}
}

// TestBalancedReadCorrectness: balancing never changes results, even
// interleaved with writes.
func TestBalancedReadCorrectness(t *testing.T) {
	devs := make([]raid.Dev, 4)
	for i := range devs {
		devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, 64), disk.DefaultModel())
	}
	a, err := New(devs, 4, 1, Options{BalanceReads: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shadow := make([]byte, a.Blocks()*int64(bs))
	rng := rand.New(rand.NewSource(21))
	for op := 0; op < 300; op++ {
		b := rng.Int63n(a.Blocks())
		if rng.Intn(2) == 0 {
			buf := make([]byte, bs)
			rng.Read(buf)
			if err := a.WriteBlocks(ctx, b, buf); err != nil {
				t.Fatal(err)
			}
			copy(shadow[b*int64(bs):], buf)
		} else {
			buf := make([]byte, bs)
			if err := a.ReadBlocks(ctx, b, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, shadow[b*int64(bs):(b+1)*int64(bs)]) {
				t.Fatalf("op %d: balanced read diverged at block %d", op, b)
			}
		}
	}
}

// TestRandomGeometriesWithFailures: property sweep across random n-by-k
// geometries — write a random image, fail a random disk, verify every
// byte is still served, rebuild, verify redundancy.
func TestRandomGeometriesWithFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(7) // 2..8 nodes
		k := 1 + rng.Intn(3) // 1..3 disks per node
		blocks := int64(2 * (n - 1) * (2 + rng.Intn(6)))
		devs := make([]raid.Dev, n*k)
		raw := make([]*disk.Disk, n*k)
		for i := range devs {
			d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
			devs[i] = d
			raw[i] = d
		}
		a, err := New(devs, n, k, Options{})
		if err != nil {
			t.Fatalf("trial %d (%dx%d, %d blocks): %v", trial, n, k, blocks, err)
		}
		ctx := context.Background()
		data := make([]byte, a.Blocks()*int64(bs))
		rng.Read(data)
		if err := a.WriteBlocks(ctx, 0, data); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		if err := a.Flush(ctx); err != nil {
			t.Fatalf("trial %d: flush: %v", trial, err)
		}
		victim := rng.Intn(n * k)
		raw[victim].Fail()
		got := make([]byte, len(data))
		if err := a.ReadBlocks(ctx, 0, got); err != nil {
			t.Fatalf("trial %d (%dx%d): degraded read with disk %d down: %v", trial, n, k, victim, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d (%dx%d): degraded data mismatch", trial, n, k)
		}
		if err := raw[victim].Replace(); err != nil {
			t.Fatalf("replace: %v", err)
		}
		if err := a.Rebuild(ctx, victim); err != nil {
			t.Fatalf("trial %d: rebuild: %v", trial, err)
		}
		if err := a.Verify(ctx); err != nil {
			t.Fatalf("trial %d (%dx%d): verify after rebuild: %v", trial, n, k, err)
		}
	}
}

// TestSwapDevDuringReadStorm: hot-swapping members while parallel reads
// and writes are in flight must be race-free (the device table is
// copy-on-write; run under -race) and must never fail an operation —
// in-flight requests finish against the table they started with.
func TestSwapDevDuringReadStorm(t *testing.T) {
	const nodes, blocks = 4, 64
	devs := make([]raid.Dev, nodes)
	for i := range devs {
		devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.Model{})
	}
	a, err := New(devs, nodes, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.WriteBlocks(ctx, 0, bytes.Repeat([]byte{7}, 8*bs)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8*bs)
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := a.ReadBlocks(ctx, 0, buf); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if err := a.WriteBlocks(ctx, int64(8+g), bytes.Repeat([]byte{byte(g)}, bs)); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}()
	}
	for swap := 0; swap < 40; swap++ {
		idx := swap % nodes
		spare := disk.New(nil, fmt.Sprintf("spare%d", swap), store.NewMem(bs, blocks), disk.Model{})
		if _, err := a.SwapDev(idx, spare); err != nil {
			t.Fatal(err)
		}
		// The spare is blank; regenerate it from the orthogonal copies
		// while the storm continues.
		if err := a.Rebuild(ctx, idx); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestBlankSpareWideArray: a blank spare is never a read source, however
// wide the array. On a 66-column array a spare swapped in at column 65
// serves no read until its rebuild completes — the column's blocks come
// from their images — and serves them directly afterwards.
func TestBlankSpareWideArray(t *testing.T) {
	const blocks = 84
	a, raw := pureArray(t, 22, 3, blocks)
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(bs))
	rand.New(rand.NewSource(66)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	const col = 65
	raw[col].Fail()
	spare := disk.New(nil, "spare", store.NewMem(bs, blocks), disk.DefaultModel())
	if _, err := a.SwapDev(col, spare); err != nil {
		t.Fatal(err)
	}
	readAll := func(what string) (spareReads int64) {
		t.Helper()
		before, _, _, _ := spare.Stats()
		got := make([]byte, len(data))
		if err := a.ReadBlocks(ctx, 0, got); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: read returned the wrong data", what)
		}
		after, _, _, _ := spare.Stats()
		return after - before
	}
	if n := readAll("before rebuild"); n != 0 {
		t.Fatalf("blank spare served %d reads before its rebuild", n)
	}
	if err := a.Rebuild(ctx, col); err != nil {
		t.Fatal(err)
	}
	if n := readAll("after rebuild"); n == 0 {
		t.Fatal("rebuilt spare still bypassed by reads")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}
