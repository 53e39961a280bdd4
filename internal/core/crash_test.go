package core_test

// The in-process crash harness: RAID-x over file-backed stores on a
// fault-injection file system. A simulated power cut mid-write-storm
// drops every unsynced write (optionally tearing the last one, or after
// an fsync that lied), the array is reopened as a restarted node would,
// and the repair supervisor — recovering its write-ahead intent snapshot
// from an honest state directory — delta-resyncs only the storm's dirty
// regions until the array verifies clean. Zero foreground I/O errors,
// recovery traffic a fraction of the disks.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/repair"
	"repro/internal/store"
)

const (
	crashBS     = 1024
	crashBlocks = 400
	crashNodes  = 4
)

// crashRig is one "process life" of the simulated node: an array over
// file stores opened through the shared FaultFS.
type crashRig struct {
	arr    *core.RAIDx
	il     *intent.Log
	stores []*store.File
}

func openCrashRig(t *testing.T, ffs *store.FaultFS, imgDir string) *crashRig {
	t.Helper()
	devs := make([]raid.Dev, crashNodes)
	stores := make([]*store.File, crashNodes)
	for i := range devs {
		fst, err := store.OpenFileFS(ffs, filepath.Join(imgDir, fmt.Sprintf("d%d.img", i)),
			crashBS, crashBlocks, store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = fst
		devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), fst, disk.DefaultModel())
	}
	il := intent.NewLog(crashNodes, crashBlocks, 8)
	arr, err := core.New(devs, crashNodes, 1, core.Options{Intent: il, IntentAhead: true})
	if err != nil {
		t.Fatal(err)
	}
	return &crashRig{arr: arr, il: il, stores: stores}
}

func (r *crashRig) syncAll(t *testing.T) {
	t.Helper()
	for _, s := range r.stores {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashRecoveryTornWrites(t *testing.T) { testCrashRecovery(t, "torn") }
func TestCrashRecoveryLyingFsync(t *testing.T) { testCrashRecovery(t, "lying") }

func testCrashRecovery(t *testing.T, mode string) {
	ffs := store.NewFaultFS(store.OS)
	imgDir := t.TempDir()
	// The supervisor's state directory lives on an honest file system —
	// the write-ahead intent snapshots must survive the cut that takes
	// the data disks' caches with it.
	stateDir := t.TempDir()
	ctx := context.Background()

	// ---- First life: baseline, then a write storm, then the plug. ----
	rig := openCrashRig(t, ffs, imgDir)
	sh := raidtest.Fill(t, rig.arr)
	rig.syncAll(t) // honest durability barrier: the baseline is safe
	// Baseline fully mirrored and synced: no debt, its ahead marks aged out.
	rig.il.AgeAhead()
	rig.il.AgeAhead()

	cfg := repair.Config{Poll: time.Millisecond, FailureBudget: 10 * time.Second, StateDir: stateDir}
	sup1 := repair.New(rig.arr, nil, cfg)
	// Paused: jobs must not race the storm, but the tick loop still
	// persists intent snapshots at poll cadence.
	sup1.Pause()
	sup1.Start(ctx)

	if mode == "lying" {
		ffs.SetSyncLies(true)
	}
	stormBlocks := make(map[int64]bool)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 25; i++ {
		lb := rng.Int63n(rig.arr.Blocks())
		if err := sh.Write(ctx, lb, 1); err != nil {
			t.Fatalf("foreground write during storm: %v", err)
		}
		stormBlocks[lb] = true
		if mode == "lying" && i%5 == 4 {
			// The app asks for durability and is lied to.
			for _, s := range rig.stores {
				if err := s.Sync(); err != nil {
					t.Fatalf("lying sync still errored: %v", err)
				}
			}
		}
	}
	if err := rig.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Let the paused supervisor persist the storm's write-ahead marks:
	// the snapshot on the honest FS must cover the live log exactly.
	raidtest.Eventually(t, "intent snapshot to catch up", func() bool {
		probe := intent.NewLog(crashNodes, crashBlocks, 8)
		if err := probe.LoadFrom(store.OS, filepath.Join(stateDir, "intent.snap")); err != nil {
			return false
		}
		want, _ := rig.il.MarshalBinary()
		got, _ := probe.MarshalBinary()
		return bytes.Equal(got, want)
	})
	sup1.Stop()
	if ffs.UnsyncedBytes() == 0 {
		t.Fatal("storm left nothing volatile; the crash would prove nothing")
	}
	switch mode {
	case "torn":
		ffs.CrashTorn()
	case "lying":
		ffs.Crash()
		ffs.SetSyncLies(false)
	}

	// ---- Second life: reopen, recover, resync, verify. ----
	rig2 := openCrashRig(t, ffs, imgDir)
	for i, s := range rig2.stores {
		if s.WasClean() {
			t.Fatalf("image %d reopened clean after the crash", i)
		}
	}
	sup2 := repair.New(rig2.arr, nil, cfg)
	recoveredDirty := raidtest.Missed(rig2.il, crashNodes)
	if recoveredDirty == 0 {
		t.Fatal("intent snapshot not recovered from the state directory")
	}
	sup2.Start(ctx)
	defer sup2.Stop()
	raidtest.Eventually(t, "recovery resync of every member", func() bool {
		if raidtest.Missed(rig2.il, crashNodes) != 0 {
			return false
		}
		st := sup2.Status()
		for i := range st.Devices {
			if st.Devices[i].State != repair.StateHealthy {
				return false
			}
		}
		return st.Active == -1
	})

	if err := rig2.arr.Verify(ctx); err != nil {
		t.Fatalf("verify after crash recovery: %v", err)
	}
	// Delta, not a full rebuild: recovery traffic bounded by the regions
	// the storm could have dirtied, far under the array's total bytes.
	st := sup2.Status()
	var resynced int64
	for i := range st.Devices {
		if st.Devices[i].Rebuilds != 0 {
			t.Fatalf("member %d took a full rebuild; recovery must be a delta resync", i)
		}
		resynced += st.Devices[i].ResyncBytes
	}
	totalBytes := int64(crashNodes) * crashBlocks * crashBS
	if resynced == 0 || resynced >= totalBytes/4 {
		t.Fatalf("recovery moved %d bytes, want a small nonzero fraction of %d", resynced, totalBytes)
	}
	if max := recoveredDirty * int64(crashBS); resynced > max {
		t.Fatalf("recovery moved %d bytes, more than the %d the snapshot marked", resynced, max)
	}
	// Every block the storm did not touch must read back as the durable
	// baseline; storm blocks may hold old, new, or torn content, but the
	// copies are consistent (Verify above) and reads must not error.
	if err := rig2.arr.ReadBlocks(ctx, 0, make([]byte, rig2.arr.Blocks()*crashBS)); err != nil {
		t.Fatalf("foreground read after recovery: %v", err)
	}
	after := sh.On(rig2.arr)
	for lb := range rig2.arr.Blocks() {
		if err := after.Diff(ctx, lb, 1); err != nil && !stormBlocks[lb] {
			t.Fatalf("untouched block corrupted by the crash: %v", err)
		}
	}
}
