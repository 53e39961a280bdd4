package repair_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/qos"
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
		probe := intent.NewLog(nodes, blocks, 8)
		return probe.LoadFrom(nil, filepath.Join(stateDir, "intent.snap")) == nil &&
			probe.DirtyRegions(victim) == h.il.DirtyRegions(victim)
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
	if il3.AnyDirty() || !slices.ContainsFunc(ev, func(e obs.Event) bool { return strings.HasPrefix(e.Detail, "stale local intent snapshot ignored") }) {
		t.Fatalf("a snapshot of another geometry was not ignored: dirty %v, events %+v", il3.AnyDirty(), ev)
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
	if il2.DirtyRegions(victim) == 0 {
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
	if il2.DirtyRegions(victim) == 0 {
		t.Fatal("dirty map lost across torn crash")
	}
}
