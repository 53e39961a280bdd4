package repair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/repair"
	"repro/internal/store"
)

// TestRepairLocalStateRecovery: the supervisor persists its intent
// snapshot into StateDir; a NEW supervisor built over the same directory
// — fresh process, empty in-memory log — recovers the dirty map before
// it starts and delta-resyncs only those regions. This is restart
// recovery without asking any peer.
func TestRepairLocalStateRecovery(t *testing.T) {
	const nodes, blocks = 4, 400
	stateDir := t.TempDir()
	cfg := repair.Config{
		Poll:          2 * time.Millisecond,
		FailureBudget: 10 * time.Second,
		StateDir:      stateDir,
	}

	// First life: write a base image, lose a member, dirty some regions.
	h := newHarness(t, raidx, blocks, 0, cfg)
	ctx := context.Background()
	sh := raidtest.Fill(t, h.arr)
	sup1 := h.sup
	sup1.Start(ctx)

	const victim = 1
	h.raw[victim].Fail()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 8; i++ {
		if err := sh.Write(ctx, rng.Int63n(h.arr.Blocks()), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait for snapshot CONTENT, not existence: the supervisor persists at
	// poll cadence, and an early save may predate the last storm marks.
	raidtest.Eventually(t, "the intent snapshot to catch up to the live log", func() bool {
		return snapCaughtUp(h.il, stateDir)
	})
	raidtest.Eventually(t, "the rebuild checkpoint", func() bool {
		_, err := os.Stat(filepath.Join(stateDir, "repair.ckpt"))
		return err == nil
	})
	// The repair host "crashes": the supervisor stops, its in-memory
	// intent log is dropped on the floor.
	sup1.Stop()

	// An array re-created with another intent geometry ignores the
	// snapshot instead of merging it, and says so.
	fresh, _ := raidtest.Disks{BS: bs, Blocks: blocks}.Make(nodes)
	il3, reg3 := intent.NewLog(nodes, blocks, 16), obs.NewRegistry()
	a3, err := raidx.With(core.Options{Intent: il3}).New(fresh)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := cfg
	cfg3.Obs = reg3
	repair.New(a3.(raidtest.Array), nil, cfg3)
	ev := reg3.Events().Events()
	if raidtest.Missed(il3, nodes) != 0 || !slices.ContainsFunc(ev, func(e obs.Event) bool { return strings.HasPrefix(e.Detail, "stale local intent snapshot ignored") }) {
		t.Fatalf("a snapshot of another geometry was not ignored: %d blocks missed, events %+v", raidtest.Missed(il3, nodes), ev)
	}

	// Second life: the member is back (with stale contents), and the new
	// supervisor starts from an EMPTY log plus the StateDir.
	h.raw[victim].Readmit()
	il2 := intent.NewLog(nodes, blocks, 8)
	a2, err := raidx.With(core.Options{Intent: il2}).New(h.arr.Members().Load().Devs)
	if err != nil {
		t.Fatal(err)
	}
	arr2 := a2.(raidtest.Array)
	// A checkpoint written before the "escalated" key was retired still
	// loads: the victim's interrupted resync resumes.
	if err := os.WriteFile(filepath.Join(stateDir, "repair.ckpt"), []byte(`{"version":1,"devices":[{},{"state":"resyncing","escalated":true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sup2 := repair.New(arr2, nil, cfg)
	if il2.MissedBlocks(victim) == 0 {
		t.Fatal("local intent snapshot not recovered at construction")
	}
	if st := sup2.DevState(victim); st != repair.StateResyncing {
		t.Fatalf("an old checkpoint with the escalated key restored %q, want resyncing", st)
	}
	sup2.Start(ctx)
	defer sup2.Stop()
	raidtest.Eventually(t, "the recovered resync", func() bool {
		st := sup2.Status()
		return st.Devices[victim].Resyncs >= 1 && st.Devices[victim].State == repair.StateHealthy
	})
	deviceBytes := int64(blocks) * bs
	if rb := sup2.Status().Devices[victim].ResyncBytes; rb == 0 || rb >= deviceBytes/4 {
		t.Fatalf("recovered resync moved %d bytes, want a small nonzero fraction of %d", rb, deviceBytes)
	}
	if err := arr2.Verify(ctx); err != nil {
		t.Fatalf("verify after recovered resync: %v", err)
	}
	sh.On(arr2).Check(t, "after recovered resync")
}

// TestRepairCheckpointResumesRebuild: a rebuild interrupted by a
// supervisor restart resumes from the persisted checkpoint instead of
// starting over.
func TestRepairCheckpointResumesRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			cfg := repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 5 * time.Millisecond,
				StateDir:      t.TempDir(),
				// Slow enough to stop mid-rebuild: a chunk every ~80 ms.
				Pace: qos.New(qos.Config{BackgroundBytesPerSec: 128 * 128 * bs / 10}).Wait,
			}
			h := newHarness(t, e, 800, 2, cfg)
			sh := raidtest.Fill(t, h.arr)
			ctx := context.Background()
			h.sup.Start(ctx)

			const victim = 0
			h.raw[victim].Fail()
			raidtest.Eventually(t, "rebuild to make some progress", func() bool {
				st := h.sup.Status()
				return st.Devices[victim].State == repair.StateRebuilding && st.Devices[victim].Prog.Done > 0
			})
			h.sup.Stop()
			frozen := h.sup.Status().Devices[victim].Prog

			// New supervisor over the same array (the swapped-in spare is
			// still installed) with the same StateDir: it must come up
			// already in rebuilding state, at or before the frozen checkpoint.
			sup2 := repair.New(h.arr, nil, cfg)
			st := sup2.Status()
			if st.Devices[victim].State != repair.StateRebuilding {
				t.Fatalf("recovered state = %q, want rebuilding", st.Devices[victim].State)
			}
			if st.Devices[victim].Prog.Done == 0 {
				t.Fatal("rebuild checkpoint not recovered")
			}
			if st.Devices[victim].Prog.Done > frozen.Done {
				t.Fatalf("recovered checkpoint %+v ahead of frozen %+v", st.Devices[victim].Prog, frozen)
			}
			sup2.Start(ctx)
			defer sup2.Stop()
			waitRebuilt(t, sup2, victim, "resumed rebuild to finish")
			h.checkHealed(t, sh, "resumed rebuild")
		})
	}
}

// TestRepairStateDirOverFaultFS: the supervisor's own persistence holds
// up under a lying file system — a crash during a snapshot save leaves a
// loadable (old or new) snapshot, never a torn one.
func TestRepairStateDirOverFaultFS(t *testing.T) {
	ffs := store.NewFaultFS(store.OS)
	stateDir := t.TempDir()
	cfg := repair.Config{
		Poll:          2 * time.Millisecond,
		FailureBudget: 10 * time.Second,
		StateDir:      stateDir,
		FS:            ffs,
	}
	h := newHarness(t, raidx, 400, 0, cfg)
	raidtest.Fill(t, h.arr)
	ctx := context.Background()
	h.sup.Start(ctx)
	const victim = 2
	h.raw[victim].Fail()
	buf := make([]byte, bs)
	for i := 0; i < 4; i++ {
		if err := h.arr.WriteBlocks(ctx, int64(i*40), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	raidtest.Eventually(t, "snapshot to land through the fault fs", func() bool {
		_, err := store.ReadFileFS(ffs, filepath.Join(stateDir, "intent.snap"))
		return err == nil
	})
	h.sup.Stop()
	ffs.CrashTorn()

	il2 := intent.NewLog(4, 400, 8)
	if err := il2.LoadFrom(ffs, filepath.Join(stateDir, "intent.snap")); err != nil {
		t.Fatalf("snapshot unreadable after torn crash: %v", err)
	}
	if il2.MissedBlocks(victim) == 0 {
		t.Fatal("dirty map lost across torn crash")
	}
}

// parkAfterFirstChunk is a Pace hook that holds the job at its first pace
// point — after the first chunk landed — until release closes or the job
// is cancelled; parked closes when it gets there.
func parkAfterFirstChunk() (pace func(context.Context, int) error, parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	pace = func(ctx context.Context, _ int) error {
		first := false
		once.Do(func() { first = true; close(parked) })
		if first {
			select {
			case <-release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	return pace, parked, release
}

// waitParked waits for the job to reach parkAfterFirstChunk's hold.
func waitParked(t *testing.T, parked chan struct{}) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the job's first chunk")
	}
}

// TestRepairCheckpointDuringJob: the loop keeps persisting and tracking
// health while a job runs. With a rebuild held between two chunks, and no
// Stop, repair.ckpt names the member rebuilding with its landed chunk; a
// second member that fails meanwhile reads suspect, and intent.snap holds
// the regions it missed. (raid5(4) with a blank member has no redundancy
// left for a second loss: every write would fail, so it checks only the
// checkpoint.)
func TestRepairCheckpointDuringJob(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			const victim, second, blocks = 0, 2, 800
			dir := t.TempDir()
			// A rebuild of the victim in place, as a restart over a crash
			// mid-rebuild resumes it; the failure budget is long, so the
			// second member stays suspect.
			if err := os.WriteFile(filepath.Join(dir, "repair.ckpt"), []byte(`{"version":1,"devices":[{"state":"rebuilding"}]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			pace, parked, release := parkAfterFirstChunk()
			h := newHarness(t, e, blocks, 0, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: time.Hour,
				StateDir:      dir,
				Pace:          pace,
			})
			sh := raidtest.Fill(t, h.arr)
			ctx := context.Background()
			h.sup.Start(ctx)
			defer h.sup.Stop()
			defer close(release)
			waitParked(t, parked)

			raidtest.Eventually(t, "repair.ckpt to record the landed chunk", func() bool {
				raw, err := os.ReadFile(filepath.Join(dir, "repair.ckpt"))
				var ck struct{ Devices []repair.DevStatus }
				if err != nil || json.Unmarshal(raw, &ck) != nil || len(ck.Devices) <= victim {
					return false
				}
				d := ck.Devices[victim]
				return d.State == repair.StateRebuilding && d.Prog.Done > 0
			})
			if st := h.sup.Status(); st.Active != victim || st.Devices[victim].State != repair.StateRebuilding {
				t.Fatalf("the held rebuild reads active %d, state %q", st.Active, st.Devices[victim].State)
			}
			if e.Name == raidtest.RAID5(4).Name {
				return
			}

			// On raidx a block whose other copy is on the blank victim has
			// no readable copy left, so its write fails; the rest succeed.
			h.raw[second].Fail()
			rng := rand.New(rand.NewSource(11))
			ok := 0
			for i := 0; i < 32; i++ {
				switch err := sh.Write(ctx, rng.Int63n(h.arr.Blocks()), 1); {
				case err == nil:
					ok++
				case !errors.Is(err, raid.ErrDataLoss):
					t.Fatalf("write without member %d: %v", second, err)
				}
			}
			if err := h.arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if ok == 0 || h.il.MissedBlocks(second) == 0 {
				t.Fatalf("%d of 32 writes succeeded without member %d, leaving %d blocks against it; want some of both", ok, second, h.il.MissedBlocks(second))
			}
			h.waitState(t, second, repair.StateSuspect)
			raidtest.Eventually(t, "intent.snap to hold the second member's regions", func() bool {
				return snapCaughtUp(h.il, dir)
			})
			if st := h.sup.Status(); st.Active != victim || st.Devices[victim].State != repair.StateRebuilding {
				t.Fatalf("the rebuild stopped holding its slot: active %d, state %q", st.Active, st.Devices[victim].State)
			}
		})
	}
}

// TestRepairCheckpointMidResync: a resync takes its regions out of the
// live intent log before it copies them, yet every intent.snap saved
// while it runs still lists each region not yet copied, so a crash
// mid-resync replays them after the restart instead of forgetting them.
func TestRepairCheckpointMidResync(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			const victim, blocks = 1, 400
			dir := t.TempDir()
			polls := &polled{}
			g := raidtest.Disks{BS: bs, Blocks: blocks, Wrap: func(i int, d raid.Dev) raid.Dev {
				if i != victim+1 {
					return d
				}
				polls.Dev = d
				return polls
			}}
			pace, parked, release := parkAfterFirstChunk()
			h := newHarnessOn(t, e, g, 0, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: time.Hour,
				StateDir:      dir,
				Pace:          pace,
			})
			sh := raidtest.Fill(t, h.arr)
			ctx := context.Background()
			h.raw[victim].Fail()
			for lb := int64(0); lb < h.arr.Blocks(); lb += 37 {
				if err := sh.Write(ctx, lb, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			live, _ := h.il.MarshalBinary()
			owed := snapRuns(t, live, e.N, blocks, victim)
			if len(owed) < 3 {
				t.Fatalf("the writes dirtied %d runs of member %d, want several", len(owed), victim)
			}
			h.raw[victim].Readmit()
			h.sup.Start(ctx)
			defer h.sup.Stop()
			waitParked(t, parked)
			if h.il.MissedBlocks(victim) == 0 {
				t.Fatal("the parked resync committed its take")
			}
			// Three ticks beside the held job, each of which persists.
			from := polls.n.Load()
			raidtest.Eventually(t, "three ticks beside the resync", func() bool { return polls.n.Load() >= from+3 })
			snap, err := os.ReadFile(filepath.Join(dir, "intent.snap"))
			if err != nil {
				t.Fatal(err)
			}
			saved := snapRuns(t, snap, e.N, blocks, victim)
			// The first run may be partly copied; none of the others is.
			for _, r := range owed[1:] {
				if !slices.ContainsFunc(saved, func(s intent.Region) bool {
					return s.Start <= r.Start && r.Start+r.Count <= s.Start+s.Count
				}) {
					t.Fatalf("intent.snap saved mid-resync lost run %+v (it holds %+v)", r, saved)
				}
			}
			close(release)
			raidtest.Eventually(t, "the resync to finish", func() bool {
				st := h.sup.Status().Devices[victim]
				return st.Resyncs == 1 && st.State == repair.StateHealthy
			})
			h.checkHealed(t, sh, "a resync checkpointed mid-job")
		})
	}
}

// restartMidRebuild runs a first supervised life of e that swaps its spare
// in for failed member 0 and pauses the rebuild after a chunk, stops it,
// and opens a second life over the same devices and StateDir: a new
// engine with an empty intent log and a new supervisor, not started, that
// recovered both from the directory.
func restartMidRebuild(t *testing.T, e raidtest.Engine) (first *harness, arr raidtest.Array, il *intent.Log, sup *repair.Supervisor, sh *raidtest.Shadow) {
	t.Helper()
	const blocks = 400
	dir := t.TempDir()
	var h *harness
	paces := 0
	h = newHarness(t, e, blocks, 1, repair.Config{
		Poll:          2 * time.Millisecond,
		FailureBudget: 5 * time.Millisecond,
		StateDir:      dir,
		Pace: func(context.Context, int) error {
			if paces++; paces == 1 {
				h.sup.Pause()
			}
			return nil
		},
	})
	sh = raidtest.Fill(t, h.arr)
	h.sup.Start(context.Background())
	h.raw[0].Fail()
	raidtest.Eventually(t, "the spare's rebuild to pause", func() bool {
		st := h.sup.Status()
		return st.Paused && st.Active == -1 && st.Devices[0].State == repair.StateRebuilding
	})
	h.sup.Stop()

	il = intent.NewLog(e.N, blocks, 8)
	a, err := e.With(core.Options{Intent: il}).New(h.arr.Members().Load().Devs)
	if err != nil {
		t.Fatal(err)
	}
	arr = a.(raidtest.Array)
	sup = repair.New(arr, nil, repair.Config{Poll: 2 * time.Millisecond, FailureBudget: time.Hour, StateDir: dir})
	return h, arr, il, sup, sh.On(arr)
}

// TestRepairCheckpointSpareStaysBlank: a spare swapped in before a
// supervisor restart stays blank after it — intent.snap carries its
// missed regions — so it serves no read until the resumed rebuild
// completes.
func TestRepairCheckpointSpareStaysBlank(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			h, arr, _, sup, sh := restartMidRebuild(t, e)
			spare := h.spares[0]
			before, _, _, _ := spare.Stats()
			sh.Check(t, "after the restart")
			if after, _, _, _ := spare.Stats(); after != before {
				t.Fatalf("the half-rebuilt spare served %d reads after the restart", after-before)
			}
			sup.Start(context.Background())
			defer sup.Stop()
			waitRebuilt(t, sup, 0, "the resumed rebuild")
			ctx := context.Background()
			if err := arr.Verify(ctx); err != nil {
				t.Fatalf("verify after the resumed rebuild: %v", err)
			}
			sh.Check(t, "after the resumed rebuild")
		})
	}
}

// TestRepairCheckpointRebuildBesideMissedMember: a rebuild of member 0
// resumes from repair.ckpt while member 2 comes back with 64 writes'
// regions missed. The rebuild takes no stale block of member 2 — a write
// whose one copy is on the blank member and the other on the absent one
// is refused, and a stripe decodes around member 2's missed rows — and
// once both jobs are done every acknowledged stamp reads back and the
// array verifies clean.
func TestRepairCheckpointRebuildBesideMissedMember(t *testing.T) {
	for _, e := range []raidtest.Engine{raidx, raidtest.RS(4, 2), raidtest.RAID5(4)} {
		t.Run(e.Name, func(t *testing.T) {
			const second = 2
			h, arr, il, sup, sh := restartMidRebuild(t, e)
			ctx := context.Background()
			h.raw[second].Fail()
			rng := rand.New(rand.NewSource(48))
			for i := 0; i < 64; i++ {
				lb := rng.Int63n(arr.Blocks())
				if err := sh.Write(ctx, lb, 1); err != nil {
					if !errors.Is(err, raid.ErrDataLoss) {
						t.Fatal(err)
					}
					sh.Refused(lb, 1)
				}
			}
			h.raw[second].Readmit()
			sup.Start(ctx)
			defer sup.Stop()
			raidtest.Eventually(t, "the rebuild and the resync", func() bool {
				st := sup.Status()
				for i := range st.Devices {
					if st.Devices[i].State != repair.StateHealthy || il.MissedBlocks(i) != 0 {
						return false
					}
				}
				return st.Active == -1 && st.Devices[0].Rebuilds == 1
			})
			if err := arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := arr.Verify(ctx); err != nil {
				t.Fatalf("verify after both jobs: %v", err)
			}
			sh.Check(t, "after both jobs")
		})
	}
}

// snapCaughtUp reports whether the intent.snap in dir holds what a
// snapshot of il holds now.
func snapCaughtUp(il *intent.Log, dir string) bool {
	saved, err := os.ReadFile(filepath.Join(dir, "intent.snap"))
	live, _ := il.MarshalBinary()
	return err == nil && bytes.Equal(saved, live)
}

// snapRuns lists the runs of blocks of member dev that the intent
// snapshot snap of an n-member array of blocks blocks carries.
func snapRuns(t *testing.T, snap []byte, n int, blocks int64, dev int) []intent.Region {
	t.Helper()
	probe := intent.NewLog(n, blocks, 8)
	if err := probe.Merge(snap); err != nil {
		t.Fatal(err)
	}
	return probe.TakeDirty(dev)
}

// TestRepairCheckpointAheadStormRestart: a write-ahead storm marks every
// block of every member, and the repair host restarts from an intent.snap
// that carries all of it, as after a crash mid-storm. Every recovered mark
// loads as missed on every copy, yet no member is blank: the array reads,
// each member is resynced from whichever copy is readable, and the array
// verifies clean.
func TestRepairCheckpointAheadStormRestart(t *testing.T) {
	const n, blocks = 4, 64
	dir := t.TempDir()
	il := intent.NewLog(n, blocks, 8)
	a, _ := raidtest.Build[raidtest.Array](t, raidx.With(core.Options{Intent: il, IntentAhead: true}), raidtest.Disks{BS: bs, Blocks: blocks})
	sh := raidtest.Fill(t, a)
	cfg := repair.Config{Poll: time.Millisecond, FailureBudget: time.Hour, StateDir: dir}
	sup := repair.New(a, nil, cfg)
	// Paused, the supervisor persists at poll cadence and ages nothing:
	// the host dies with the whole storm in its snapshot.
	sup.Pause()
	ctx := context.Background()
	sup.Start(ctx)
	for lb := int64(0); lb < a.Blocks(); lb++ {
		if err := sh.Write(ctx, lb, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	raidtest.Eventually(t, "intent.snap to carry the storm", func() bool { return snapCaughtUp(il, dir) })
	sup.Stop()

	il2 := intent.NewLog(n, blocks, 8)
	a2, err := raidx.With(core.Options{Intent: il2}).New(a.Members().Load().Devs)
	if err != nil {
		t.Fatal(err)
	}
	arr2 := a2.(raidtest.Array)
	sup2 := repair.New(arr2, nil, cfg)
	for i := 0; i < n; i++ {
		if il2.MissedBlocks(i) != blocks || il2.Blank(i) {
			t.Fatalf("member %d recovered %d of %d blocks missed, blank %v; want all, not blank", i, il2.MissedBlocks(i), blocks, il2.Blank(i))
		}
	}
	sh = sh.On(arr2)
	sh.Check(t, "after the restart")
	sup2.Start(ctx)
	defer sup2.Stop()
	raidtest.Eventually(t, "every member resynced", func() bool {
		st := sup2.Status()
		for i := range st.Devices {
			if st.Devices[i].State != repair.StateHealthy || st.Devices[i].Rebuilds != 0 {
				return false
			}
		}
		return st.Active == -1 && raidtest.Missed(il2, n) == 0
	})
	if err := arr2.Verify(ctx); err != nil {
		t.Fatalf("verify after the recovery: %v", err)
	}
	sh.Check(t, "after the recovery")
}
