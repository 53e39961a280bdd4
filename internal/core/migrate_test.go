package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/vclock"
)

// migArray builds a real-time RAID-x plus a factory for additional
// disks of matching geometry (the devices a grow attaches).
func migArray(t *testing.T, nodes, k int, blocks int64, opt Options) (*RAIDx, []*disk.Disk, func(n int) []raid.Dev) {
	t.Helper()
	devs := make([]raid.Dev, nodes*k)
	raw := make([]*disk.Disk, nodes*k)
	for i := range devs {
		d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	a, err := New(devs, nodes, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	next := nodes * k
	mk := func(n int) []raid.Dev {
		out := make([]raid.Dev, n)
		for i := range out {
			out[i] = disk.New(nil, fmt.Sprintf("d%d", next), store.NewMem(bs, blocks), disk.DefaultModel())
			next++
		}
		return out
	}
	return a, raw, mk
}

func fillRandom(t *testing.T, a *RAIDx, seed int64) []byte {
	t.Helper()
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(bs))
	rand.New(rand.NewSource(seed)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return data
}

func checkContent(t *testing.T, a *RAIDx, want []byte, what string) {
	t.Helper()
	ctx := context.Background()
	got := make([]byte, len(want))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("%s: read back: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: content diverges at byte %d (block %d)", what, i, int64(i)/int64(bs))
			}
		}
	}
}

// TestMigrationGrowLiveTraffic is the core of the grow drill: expand
// 4 nodes to 12 while writers hammer the array. Every foreground write
// must succeed (no retries allowed), the final content must match the
// writers' shadow, redundancy must verify, and the migration must have
// moved only the minimal block set.
func TestMigrationGrowLiveTraffic(t *testing.T) {
	const blocks = 96 // half=48, gs=3: 192 data blocks over 4 disks
	a, _, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	shadow := fillRandom(t, a, 7)
	var shadowMu sync.Mutex

	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writeErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			span := a.Blocks() / 4
			for {
				select {
				case <-stop:
					return
				default:
				}
				lb := int64(w)*span + rng.Int63n(span)
				n := 1 + rng.Int63n(4)
				if lb+n > int64(w+1)*span {
					n = int64(w+1)*span - lb
				}
				buf := make([]byte, n*int64(bs))
				rng.Read(buf)
				if err := a.WriteBlocks(ctx, lb, buf); err != nil {
					writeErrs.Add(1)
					t.Errorf("foreground write during rebalance: %v", err)
					return
				}
				shadowMu.Lock()
				copy(shadow[lb*int64(bs):], buf)
				shadowMu.Unlock()
			}
		}()
	}
	// Pace yields so the writers genuinely interleave with copy windows.
	pace := func(ctx context.Context, bytes int) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	}
	var lastCkpt int64
	if err := m.Run(ctx, pace, func(cursor int64) error { lastCkpt = cursor; return nil }); err != nil {
		t.Fatalf("migration run: %v", err)
	}
	close(stop)
	wg.Wait()
	if writeErrs.Load() != 0 {
		t.Fatalf("%d foreground write errors during rebalance", writeErrs.Load())
	}
	if lastCkpt != a.Blocks() {
		t.Fatalf("final checkpoint %d, want %d", lastCkpt, a.Blocks())
	}
	if _, _, active := a.Migrating(); active {
		t.Fatal("migration still active after Run returned")
	}
	if got := a.Epoch().Gen(); got != 1 {
		t.Fatalf("epoch generation %d after grow, want 1", got)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	shadowMu.Lock()
	defer shadowMu.Unlock()
	checkContent(t, a, shadow, "after grow")
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after grow: %v", err)
	}
	// Minimal movement: growing 4 -> 12 must move 8/12 of the data
	// blocks and no images, within the issue's 1.25x slack.
	minMoves := a.Blocks() * 8 / 12
	st := m.Status()
	if st.MovedBlocks < minMoves || st.MovedBlocks > minMoves+minMoves/4 {
		t.Fatalf("moved %d blocks, want within [%d, %d]", st.MovedBlocks, minMoves, minMoves+minMoves/4)
	}
	if st.MovedBytes != st.MovedBlocks*int64(bs) {
		t.Fatalf("moved bytes %d inconsistent with %d blocks", st.MovedBytes, st.MovedBlocks)
	}
}

// TestMigrationPauseResume: a pace abort leaves the cursor at the last
// committed window; the array serves I/O mid-migration; a second Run
// finishes the job.
func TestMigrationPauseResume(t *testing.T) {
	const blocks = 96
	a, _, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	data := fillRandom(t, a, 11)

	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pace is only consulted for windows that moved blocks; abort at the
	// first such window, which leaves later windows uncopied.
	pauseErr := errors.New("pause")
	err = m.Run(ctx, func(ctx context.Context, bytes int) error {
		return pauseErr
	}, nil)
	if !errors.Is(err, pauseErr) {
		t.Fatalf("paused run returned %v, want pause error", err)
	}
	cursor, gen, active := a.Migrating()
	if !active || gen != 1 {
		t.Fatalf("Migrating() = %d/%d/%v after pause", cursor, gen, active)
	}
	if cursor <= 0 || cursor >= a.Blocks() {
		t.Fatalf("paused cursor %d, want strictly inside (0,%d)", cursor, a.Blocks())
	}
	// Mid-migration I/O: overwrite a block below and above the cursor.
	for _, lb := range []int64{0, cursor, a.Blocks() - 1} {
		buf := bytes.Repeat([]byte{byte(40 + lb%10)}, bs)
		if err := a.WriteBlocks(ctx, lb, buf); err != nil {
			t.Fatalf("write block %d mid-migration: %v", lb, err)
		}
		copy(data[lb*int64(bs):], buf)
		got := make([]byte, bs)
		if err := a.ReadBlocks(ctx, lb, got); err != nil {
			t.Fatalf("read block %d mid-migration: %v", lb, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("block %d read back wrong mid-migration", lb)
		}
	}
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	checkContent(t, a, data, "after pause+resume")
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestMigrationRestartResume models a crash mid-rebalance: the process
// restarts, reopens the array at the source epoch over the widened
// device table, and resumes from the persisted checkpoint — re-copying
// only the delta, not the whole remap.
func TestMigrationRestartResume(t *testing.T) {
	const blocks = 96
	a, _, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	data := fillRandom(t, a, 13)

	newDevs := mk(8)
	m, err := a.BeginGrow(8, newDevs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt int64
	stopErr := errors.New("crash")
	err = m.Run(ctx, func(ctx context.Context, bytes int) error {
		if ckpt >= a.Blocks()/2 {
			return stopErr
		}
		return nil
	}, func(cursor int64) error { ckpt = cursor; return nil })
	if !errors.Is(err, stopErr) {
		t.Fatalf("interrupted run returned %v", err)
	}
	firstMoved := m.Status().MovedBlocks

	// "Restart": a fresh engine over the same 12 devices, positioned at
	// the source epoch, resuming from the persisted cursor.
	sourceDesc := a.Epoch().Desc()
	src, err := layout.EpochFromDesc(sourceDesc)
	if err != nil {
		t.Fatal(err)
	}
	devs := a.Devices()
	b, err := NewAtEpoch(append([]raid.Dev(nil), devs...), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.BeginGrow(8, nil, ckpt)
	if err != nil {
		t.Fatalf("resume BeginGrow: %v", err)
	}
	if err := m2.Run(ctx, nil, nil); err != nil {
		t.Fatalf("resumed migration: %v", err)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	checkContent(t, b, data, "after restart resume")
	if err := b.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Delta resync, not a full redo: the two runs together moved the
	// minimal set plus at most one re-copied window.
	minMoves := b.Blocks() * 8 / 12
	total := firstMoved + m2.Status().MovedBlocks
	if total < minMoves || total > minMoves+migChunk {
		t.Fatalf("restart redid work: %d+%d moved, want within [%d, %d]",
			firstMoved, m2.Status().MovedBlocks, minMoves, minMoves+migChunk)
	}
}

// TestMigrationShrink: grow 4 -> 8, then shrink 8 -> 6 under live
// checks; retired columns hold no live blocks, reads survive their
// disks failing, and repair refuses to touch them.
func TestMigrationShrink(t *testing.T) {
	const blocks = 96
	a, _, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	data := fillRandom(t, a, 17)

	m, err := a.BeginGrow(4, mk(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	m2, err := a.BeginShrink(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(ctx, nil, nil); err != nil {
		t.Fatalf("shrink migration: %v", err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	checkContent(t, a, data, "after shrink")
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after shrink: %v", err)
	}
	for _, idx := range []int{6, 7} {
		if !a.ColumnRetired(idx) {
			t.Fatalf("column %d not retired after shrink", idx)
		}
		if err := a.Rebuild(ctx, idx); !errors.Is(err, ErrRetiredColumn) {
			t.Fatalf("rebuild of retired column %d: %v, want ErrRetiredColumn", idx, err)
		}
	}
	if a.ColumnRetired(0) || a.ColumnRetired(5) {
		t.Fatal("live column reported retired")
	}
	// Retired disks hold nothing the array needs.
	for _, d := range a.Devices()[6:8] {
		d.(*disk.Disk).Fail()
	}
	checkContent(t, a, data, "after failing retired disks")
}

// TestMigrationExclusion: while a migration is in flight, rebuilds,
// resyncs, scrubs, verifies, and a second membership change all refuse
// with typed errors.
func TestMigrationExclusion(t *testing.T) {
	const blocks = 96
	il := intent.NewLog(12, blocks, 8)
	a, _, mk := migArray(t, 4, 1, blocks, Options{Intent: il})
	ctx := context.Background()
	fillRandom(t, a, 19)

	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(ctx, 0); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("rebuild during migration: %v, want ErrMigrationActive", err)
	}
	if _, err := raid.Resync(ctx, a, 0, []intent.Region{{Start: 0, Count: 8}}, nil); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("resync during migration: %v, want ErrMigrationActive", err)
	}
	if _, err := raid.ScrubSample(ctx, a, 0, 0, nil); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("scrub during migration: %v, want ErrMigrationActive", err)
	}
	if err := a.Verify(ctx); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("verify during migration: %v, want ErrMigrationActive", err)
	}
	if _, err := a.BeginGrow(1, nil, 0); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("second grow during migration: %v, want ErrMigrationActive", err)
	}
	if _, err := a.BeginShrink(1, 0); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("shrink during migration: %v, want ErrMigrationActive", err)
	}
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationSourceFailover: a node killed mid-rebalance must not
// stall the migration — the copier reads the surviving copy of every
// block whose primary source is down.
func TestMigrationSourceFailover(t *testing.T) {
	const blocks = 96
	a, raw, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	data := fillRandom(t, a, 23)

	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill a source node's disk before any window copies.
	raw[1].Fail()
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatalf("migration with a dead source: %v", err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// All data remains readable: moved blocks were copied from the
	// mirror images, unmoved blocks on the dead disk read degraded.
	checkContent(t, a, data, "after grow with dead source")
}

// TestMigrationGrowVclockDeterministic runs the 4 -> 12 grow drill
// under the virtual clock, twice, and requires the two scheduler traces
// to be identical. Two writers share the clock with the copier: the
// migrator itself writes at its pace points, on both sides of the
// advancing cursor, and a stamped writer Proc writes (block, sequence)
// stamped blocks into the window at the cursor — the blocks being copied —
// while Run runs, so the logical window parks writer and copier on the
// virtual clock. Every write must succeed with no vclock deadlock, content
// and redundancy must verify at the new epoch, and the move count must
// stay within the minimal-movement bound.
func TestMigrationGrowVclockDeterministic(t *testing.T) {
	first, total := growVclock(t)
	second, total2 := growVclock(t)
	if total != total2 || len(first) != len(second) {
		t.Fatalf("runs differ: %d vs %d scheduler events", total, total2)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("runs diverge at scheduler event %d: %v vs %v", i, first[i], second[i])
		}
	}
	parked := 0
	for _, ev := range first {
		if ev.Kind == vclock.TracePark && ev.Extra == "gate:raid.Window" {
			parked++
		}
	}
	if parked == 0 {
		t.Fatal("no writer or copier ever waited in the window: the schedule did not overlap them")
	}
	t.Logf("%d scheduler events, %d window waits", total, parked)
}

// growVclock is one run of the vclock grow drill; it returns the
// scheduler trace.
func growVclock(t *testing.T) ([]vclock.TraceEvent, int64) {
	t.Helper()
	const blocks = 96
	s := vclock.New()
	tr := s.EnableTrace(1 << 17)
	model := disk.Model{Seek: 0, TrackSkip: 0, BandwidthBps: 64e6, PerRequest: 50 * time.Microsecond}
	mkSim := func(first, n int) []raid.Dev {
		out := make([]raid.Dev, n)
		for i := range out {
			out[i] = disk.New(s, fmt.Sprintf("d%d", first+i), store.NewMem(bs, blocks), model)
		}
		return out
	}
	a, err := New(mkSim(0, 4), 4, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	newDevs := mkSim(4, 8)

	var (
		shadow     []byte
		moved      int64
		stamped    int
		lowWrites  int // writes below the cursor: already-migrated homes
		highWrites int // writes above it: old homes under the source map
	)
	// writer stamps each block it writes with (block, sequence) and aims
	// at the window the copier takes next, until the migration ends.
	writer := func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		buf := make([]byte, bs)
		for seq := int64(1); ; seq++ {
			cursor, _, active := a.Migrating()
			if !active {
				break
			}
			lb := min(cursor+seq%migChunk, a.Blocks()-1)
			binary.BigEndian.PutUint64(buf, uint64(lb))
			binary.BigEndian.PutUint64(buf[8:], uint64(seq))
			if err := a.WriteBlocks(ctx, lb, buf); err != nil {
				t.Errorf("stamped write at block %d (cursor %d): %v", lb, cursor, err)
				return
			}
			copy(shadow[lb*int64(bs):], buf)
			stamped++
			p.Sleep(100 * time.Microsecond)
		}
		if err := a.Flush(ctx); err != nil {
			t.Error(err)
		}
	}
	s.Spawn("migrator", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		shadow = make([]byte, a.Blocks()*int64(bs))
		rand.New(rand.NewSource(41)).Read(shadow)
		if err := a.WriteBlocks(ctx, 0, shadow); err != nil {
			t.Error(err)
			return
		}
		if err := a.Flush(ctx); err != nil {
			t.Error(err)
			return
		}
		// Begun with no write in flight: the start's instant claim of the
		// whole array waits in real time (see beginMigration).
		m, err := a.BeginGrow(8, newDevs, 0)
		if err != nil {
			t.Error(err)
			return
		}
		s.Spawn("writer", writer)
		rng := rand.New(rand.NewSource(43))
		buf := make([]byte, bs)
		pace := func(ctx context.Context, bytes int) error {
			p.Sleep(250 * time.Microsecond)
			cursor, _, _ := a.Migrating()
			for i := 0; i < 8; i++ {
				lb := rng.Int63n(a.Blocks())
				if lb < cursor {
					lowWrites++
				} else {
					highWrites++
				}
				rng.Read(buf)
				if err := a.WriteBlocks(ctx, lb, buf); err != nil {
					t.Errorf("foreground write at block %d (cursor %d): %v", lb, cursor, err)
					return err
				}
				copy(shadow[lb*int64(bs):], buf)
			}
			return nil
		}
		if err := m.Run(ctx, pace, nil); err != nil {
			t.Errorf("migration run: %v", err)
			return
		}
		moved = m.Status().MovedBlocks
		if err := a.Flush(ctx); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	ctx := context.Background()
	if got := a.Epoch().Gen(); got != 1 {
		t.Fatalf("epoch generation %d after grow, want 1", got)
	}
	if lowWrites == 0 || highWrites == 0 || stamped == 0 {
		t.Fatalf("writes did not straddle the cursor (%d below, %d above, %d stamped)", lowWrites, highWrites, stamped)
	}
	checkContent(t, a, shadow, "after vclock grow")
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after vclock grow: %v", err)
	}
	minMoves := a.Blocks() * 8 / 12
	if moved < minMoves || moved > minMoves+minMoves/4 {
		t.Fatalf("moved %d blocks, want within [%d, %d]", moved, minMoves, minMoves+minMoves/4)
	}
	if tr.Total() > 1<<17 {
		t.Fatalf("%d scheduler events overflow the trace", tr.Total())
	}
	return tr.Events(), tr.Total()
}

// TestRebuildAndResyncUnderEpoch: after a completed grow the layout is
// override-driven; a swapped disk must rebuild by the epoch's inverse
// maps, and a flapped disk must delta-resync the same way.
func TestRebuildAndResyncUnderEpoch(t *testing.T) {
	const blocks = 96
	il := intent.NewLog(12, blocks, 8)
	a, raw, mk := migArray(t, 4, 1, blocks, Options{Intent: il})
	ctx := context.Background()
	data := fillRandom(t, a, 29)

	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Swap-and-rebuild a base disk that both donated data and holds
	// mirror groups.
	spare := disk.New(nil, "spare0", store.NewMem(bs, blocks), disk.DefaultModel())
	if _, err := a.SwapDev(0, spare); err != nil {
		t.Fatal(err)
	}
	prog := &raid.RebuildProgress{}
	if err := raid.RebuildFrom(ctx, a, 0, prog, nil); err != nil {
		t.Fatalf("epoched rebuild: %v", err)
	}
	if prog.Epoch != a.Epoch().Gen() {
		t.Fatalf("rebuild checkpoint epoch %d, want %d", prog.Epoch, a.Epoch().Gen())
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after epoched rebuild: %v", err)
	}
	checkContent(t, a, data, "after epoched rebuild")

	// Flap another disk through writes, then delta-resync it.
	victim := 2
	raw[victim].Fail()
	buf := bytes.Repeat([]byte{0xEE}, 8*bs)
	if err := a.WriteBlocks(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	copy(data[:len(buf)], buf)
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	raw[victim].Readmit()
	for pass := 0; ; pass++ {
		if pass > 10 {
			t.Fatal("intent log never drained")
		}
		regions := il.TakeDirty(victim)
		if len(regions) == 0 {
			break
		}
		if _, err := raid.Resync(ctx, a, victim, regions, nil); err != nil {
			t.Fatalf("epoched resync: %v", err)
		}
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after epoched resync: %v", err)
	}
	checkContent(t, a, data, "after epoched resync")
}

// TestMigrationCheckpointBeforeCommit pins the durability ordering of
// the copy loop: for a window that moved blocks, the cursor must reach
// the checkpoint sink BEFORE the engine publishes it. Foreground
// writes route to new-epoch homes as soon as the published cursor
// covers them, and a crash-resume re-copies old homes from the durable
// cursor on — so a publish ahead of the durable record would let a
// resume silently overwrite acknowledged writes.
func TestMigrationCheckpointBeforeCommit(t *testing.T) {
	const blocks = 96
	a, _, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	fillRandom(t, a, 31)

	from := a.Epoch()
	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	to := m.TargetEpoch()
	var prevHi int64
	movedWindows := 0
	err = m.Run(ctx, nil, func(hi int64) error {
		lo := prevHi
		prevHi = hi
		moved := false
		for lb := lo; lb < hi; lb++ {
			if from.DataLoc(lb) != to.DataLoc(lb) || from.MirrorLoc(lb) != to.MirrorLoc(lb) {
				moved = true
				break
			}
		}
		published, _, active := a.Migrating()
		if !active {
			t.Fatalf("checkpoint for window ending %d after migration finished", hi)
		}
		if moved {
			movedWindows++
			if published >= hi {
				t.Fatalf("cursor %d published before the checkpoint for window ending %d was durable", published, hi)
			}
		} else if published != hi {
			t.Fatalf("zero-move window ending %d checkpointed at published cursor %d", hi, published)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if movedWindows == 0 {
		t.Fatal("grow moved no windows; ordering never exercised")
	}
}

// TestMigrationResumeFromDurableCursorKeepsWrites is the lost-update
// regression for a coordinator crash: resume restarts from the durable
// cursor, while foreground writes route by the published one. A write
// the published cursor routed to its new home must survive the resumed
// run's re-copy of everything above the durable cursor — which holds
// only because the two cursors agree wherever blocks moved.
func TestMigrationResumeFromDurableCursorKeepsWrites(t *testing.T) {
	const blocks = 96
	a, _, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	shadow := fillRandom(t, a, 37)

	fromDesc := a.Epoch().Desc()
	m, err := a.BeginGrow(8, mk(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	to := m.TargetEpoch()
	// Crash the persistence sink mid-migration: checkpoints before the
	// crash are durable, the erroring one is not.
	crashErr := errors.New("checkpoint sink crashed")
	var durable int64 = -1
	err = m.Run(ctx, nil, func(cursor int64) error {
		// Crash at the final window's checkpoint: by then moved windows
		// (minimal movement concentrates them in the tail) sit durably
		// below the cursor.
		if cursor == a.Blocks() {
			return crashErr
		}
		durable = cursor
		return nil
	})
	if !errors.Is(err, crashErr) {
		t.Fatalf("crashed run returned %v", err)
	}
	if durable < 0 {
		t.Fatal("no durable checkpoint before the crash")
	}
	published, _, active := a.Migrating()
	if !active {
		t.Fatal("migration not active after the crashed run")
	}
	// An acknowledged foreground write to the highest moved block the
	// published cursor already routes to its new home.
	src, err := layout.EpochFromDesc(fromDesc)
	if err != nil {
		t.Fatal(err)
	}
	var lb int64 = -1
	for b := published - 1; b >= 0; b-- {
		if src.DataLoc(b) != to.DataLoc(b) {
			lb = b
			break
		}
	}
	if lb < 0 {
		t.Fatal("no moved block below the published cursor")
	}
	buf := bytes.Repeat([]byte{0xA7}, bs)
	if err := a.WriteBlocks(ctx, lb, buf); err != nil {
		t.Fatal(err)
	}
	copy(shadow[lb*int64(bs):], buf)
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh engine over the same devices at the source
	// epoch, resuming from the DURABLE cursor — exactly what the repair
	// supervisor reloads after a crash.
	re, err := NewAtEpoch(append([]raid.Dev(nil), a.Devices()...), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := re.BeginGrow(8, nil, durable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	checkContent(t, re, shadow, "after crash-resume from the durable cursor")
	if err := re.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEpochMountRegistersObs: mounting at a non-zero epoch is the same
// construction as a fresh mount — the backlog and rebuild gauges are
// registered and a member that is already down is flagged on the event
// log. (Before the one-constructor fold, every mount of a rebalanced
// cluster skipped both.)
func TestEpochMountRegistersObs(t *testing.T) {
	a, _, mk := migArray(t, 4, 1, 96, Options{})
	ctx := context.Background()
	data := fillRandom(t, a, 23)
	m, err := a.BeginGrow(2, mk(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ep := a.Epoch()
	if ep.Gen() != 1 {
		t.Fatalf("grown array at generation %d, want 1", ep.Gen())
	}
	devs := a.Devices()
	devs[2].(*disk.Disk).Fail()

	reg := obs.NewRegistry()
	b, err := NewAtEpoch(devs, ep, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, g := range []string{"raidx.backlog_us", "raidx.bg_backlog_us", "raidx.rebuild_done_blocks", "raidx.rebuild_total_blocks"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s not registered by a generation-1 mount", g)
		}
	}
	var mounts []obs.Event
	for _, ev := range snap.Events {
		if ev.Kind == obs.EventDegradedMount {
			mounts = append(mounts, ev)
		}
	}
	if len(mounts) != 1 || mounts[0].Detail != "1 of 6 devices unhealthy at mount" {
		t.Fatalf("degraded-mount events = %+v, want one naming 1 of 6 devices", mounts)
	}
	checkContent(t, b, data, "degraded generation-1 mount")
}

// TestMigrationCopiesFreshCopy: a member readmitted with missed regions
// before a grow holds stale copies there; the migration moves the fresh
// copy of every block it relocates, so the grown array reads back what
// was written and, once the member's resync has run, verifies clean.
func TestMigrationCopiesFreshCopy(t *testing.T) {
	const blocks, victim = 96, 1
	a, raw, mk := migArray(t, 4, 1, blocks, Options{})
	ctx := context.Background()
	data := fillRandom(t, a, 23)
	raw[victim].Fail()
	fresh := append([]byte(nil), data...)
	most := fresh[:len(fresh)-8*bs] // the victim stays readable, not blank
	rand.New(rand.NewSource(24)).Read(most)
	if err := a.WriteBlocks(ctx, 0, most); err != nil {
		t.Fatal(err)
	}
	raw[victim].Readmit() // back stale where the write missed it
	m, err := a.BeginGrow(2, mk(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	checkContent(t, a, fresh, "after a grow beside a stale member")
	il := a.Members().Intent()
	if _, err := raid.Resync(ctx, a, victim, il.TakeDirty(victim), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("after the stale member's resync: %v", err)
	}
	checkContent(t, a, fresh, "after the resync")
}
