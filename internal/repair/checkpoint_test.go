package repair_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/raid"
	"repro/internal/repair"
	"repro/internal/store"
)

// waitForFile polls until path exists (the supervisor persists at poll
// cadence, so saves land asynchronously).
func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", path)
}

// TestRepairLocalStateRecovery: the supervisor persists its intent
// snapshot into StateDir; a NEW supervisor built over the same directory
// — fresh process, empty in-memory log — recovers the dirty map before
// it starts and delta-resyncs only those regions. This is restart
// recovery without asking any peer.
func TestRepairLocalStateRecovery(t *testing.T) {
	const nodes, blocks = 4, 400
	stateDir := t.TempDir()
	devs := make([]raid.Dev, nodes)
	raw := make([]*disk.Disk, nodes)
	for i := range devs {
		d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	cfg := repair.Config{
		Poll:          2 * time.Millisecond,
		FailureBudget: 10 * time.Second,
		StateDir:      stateDir,
	}

	// First life: write a base image, lose a member, dirty some regions.
	il1 := intent.NewLog(nodes, blocks, 8)
	arr1, err := core.New(devs, nodes, 1, core.Options{Intent: il1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, arr1.Blocks()*int64(bs))
	rand.New(rand.NewSource(7)).Read(data)
	if err := arr1.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := arr1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sup1 := repair.New(arr1, nil, cfg)
	sup1.Start(ctx)

	const victim = 1
	raw[victim].Fail()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 8; i++ {
		lb := rng.Int63n(arr1.Blocks())
		buf := make([]byte, bs)
		rng.Read(buf)
		if err := arr1.WriteBlocks(ctx, lb, buf); err != nil {
			t.Fatal(err)
		}
		copy(data[lb*int64(bs):], buf)
	}
	if err := arr1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait for snapshot CONTENT, not existence: the supervisor persists at
	// poll cadence, and an early save may predate the last storm marks.
	snapDeadline := time.Now().Add(5 * time.Second)
	for {
		probe := intent.NewLog(nodes, blocks, 8)
		if err := probe.LoadFrom(nil, filepath.Join(stateDir, "intent.snap")); err == nil &&
			probe.DirtyRegions(victim) == il1.DirtyRegions(victim) {
			break
		}
		if time.Now().After(snapDeadline) {
			t.Fatal("intent snapshot never caught up to the live log")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitForFile(t, filepath.Join(stateDir, "repair.ckpt"))
	// The repair host "crashes": the supervisor stops, its in-memory
	// intent log is dropped on the floor.
	sup1.Stop()

	// Second life: the member is back (with stale contents), and the new
	// supervisor starts from an EMPTY log plus the StateDir.
	raw[victim].Readmit()
	il2 := intent.NewLog(nodes, blocks, 8)
	arr2, err := core.New(devs, nodes, 1, core.Options{Intent: il2})
	if err != nil {
		t.Fatal(err)
	}
	sup2 := repair.New(arr2, nil, cfg)
	if il2.DirtyRegions(victim) == 0 {
		t.Fatal("local intent snapshot not recovered at construction")
	}
	sup2.Start(ctx)
	defer sup2.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := sup2.Status()
		if st.Devices[victim].Resyncs >= 1 && st.Devices[victim].State == repair.StateHealthy {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := sup2.Status()
	if st.Devices[victim].Resyncs < 1 {
		t.Fatalf("no resync after recovery: %+v", st.Devices[victim])
	}
	deviceBytes := int64(blocks) * bs
	if rb := st.Devices[victim].ResyncBytes; rb == 0 || rb >= deviceBytes/4 {
		t.Fatalf("recovered resync moved %d bytes, want a small nonzero fraction of %d", rb, deviceBytes)
	}
	if err := arr2.Verify(ctx); err != nil {
		t.Fatalf("verify after recovered resync: %v", err)
	}
	got := make([]byte, len(data))
	if err := arr2.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data wrong after recovered resync")
	}
}

// TestRepairCheckpointResumesRebuild: a rebuild interrupted by a
// supervisor restart resumes from the persisted checkpoint instead of
// starting over.
func TestRepairCheckpointResumesRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.name, func(t *testing.T) {
			cfg := repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 5 * time.Millisecond,
				StateDir:      t.TempDir(),
				// Slow enough to stop mid-rebuild: a chunk every ~80 ms.
				RateBytesPerSec: 128 * rebuildChunkBytes() / 10,
			}
			h := newEngineHarness(t, e, 800, 2, cfg)
			data := h.fillRandom(t, 9)
			ctx := context.Background()
			h.sup.Start(ctx)

			const victim = 0
			h.raw[victim].Fail()
			h.waitFor(t, 5*time.Second, "rebuild to make some progress", func() bool {
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
			h.waitRebuilt(t, sup2, victim, "resumed rebuild to finish")
			h.checkHealed(t, data, "resumed rebuild")
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
	h := newHarness(t, 4, 400, 0, cfg)
	h.fillRandom(t, 10)
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
	h.waitFor(t, 5*time.Second, "snapshot to land through the fault fs", func() bool {
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
