package repair_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/repair"
	"repro/internal/store"
)

// newDisks are the eight members a grow adds to a 96-block harness.
func newDisks() []raid.Dev {
	devs, _ := raidtest.Disks{BS: bs, Blocks: 96}.Make(8)
	return devs
}

// TestSupervisedGrow: the supervisor drives a grow as a background job,
// persists the epoch checkpoint, and reports completion through Status.
func TestSupervisedGrow(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, raidx, 96, 0, repair.Config{
		Poll:     2 * time.Millisecond,
		StateDir: dir,
	})
	sh := raidtest.Fill(t, h.arr)
	ctx := context.Background()
	h.sup.Start(ctx)
	defer h.sup.Stop()

	if err := h.sup.StartGrow(8, newDisks(), 0); err != nil {
		t.Fatal(err)
	}
	raidtest.Eventually(t, "grow to complete", func() bool {
		st := h.sup.RebalanceStatus()
		return st != nil && st.Done && !st.Running
	})
	if gen := h.rx.Epoch().Gen(); gen != 1 {
		t.Fatalf("epoch gen %d after grow, want 1", gen)
	}
	if err := h.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sh.Check(t, "across supervised grow")
	if err := h.arr.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// The durable epoch record marks the migration done at the new
	// generation.
	raidtest.Eventually(t, "epoch checkpoint", func() bool {
		ck, err := repair.LoadRebalance(store.OS, dir)
		return err == nil && ck != nil && ck.Done && ck.Source.Gen() == 1
	})
	st := h.sup.Status()
	if st.Rebalance == nil || !st.Rebalance.Done || st.Rebalance.Action != "grow" {
		t.Fatalf("status rebalance = %+v", st.Rebalance)
	}
	// The progress gauges: the cursor reached the total.
	g := h.reg.Snapshot().Gauges
	if cur, total := g["rebalance.cursor_blocks"], g["rebalance.total_blocks"]; total != h.rx.Blocks() || cur != total {
		t.Errorf("rebalance gauges cursor %d / total %d after the grow, want both %d", cur, total, h.rx.Blocks())
	}
}

// TestRebalanceRepairExclusion: membership changes refuse while
// recovery runs, and recovery jobs refuse while a rebalance is in
// flight — both ways, typed.
func TestRebalanceRepairExclusion(t *testing.T) {
	h := newHarness(t, raidx, 96, 1, repair.Config{
		Poll:          2 * time.Millisecond,
		FailureBudget: time.Hour,
	})
	raidtest.Fill(t, h.arr)

	// A member mid-recovery blocks membership changes. Pause keeps the
	// state machine transitioning but the recovery job queued, so the
	// "busy" window stays open for the assertion.
	h.raw[1].Fail()
	h.sup.Start(context.Background())
	defer h.sup.Stop()
	h.waitState(t, 1, repair.StateSuspect)
	h.sup.Pause()
	newDevs := newDisks()
	h.il.MarkRange(1, 0, 8)
	h.raw[1].Readmit()
	raidtest.Eventually(t, "resync state", func() bool {
		return h.sup.Owns(1)
	})
	if err := h.sup.StartGrow(8, newDevs, 0); !errors.Is(err, repair.ErrRepairBusy) {
		t.Fatalf("StartGrow during recovery: %v, want ErrRepairBusy", err)
	}
	// Drain recovery, then start the rebalance and hold it paused so it
	// stays active.
	h.sup.Resume()
	h.waitState(t, 1, repair.StateHealthy)
	h.sup.Pause()
	if err := h.sup.StartGrow(8, newDevs, 0); err != nil {
		t.Fatalf("StartGrow after recovery: %v", err)
	}
	if err := h.sup.StartShrink(1, 0); !errors.Is(err, repair.ErrRebalanceActive) {
		t.Fatalf("StartShrink during rebalance: %v, want ErrRebalanceActive", err)
	}
	if err := h.arr.Rebuild(context.Background(), 0); !errors.Is(err, core.ErrMigrationActive) {
		t.Fatalf("manual rebuild during rebalance: %v, want ErrMigrationActive", err)
	}
	// Resume lets the tick loop restart the migration runner and finish.
	h.sup.Resume()
	raidtest.Eventually(t, "paused grow to finish after resume", func() bool {
		st := h.sup.RebalanceStatus()
		return st != nil && st.Done
	})
	if err := h.arr.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceStopEndsRunner: the migration runner is a child of the
// supervisor's lifetime — once Stop returns it has exited, so the cursor
// and the epoch checkpoint no longer move (a runner that outlived Stop
// kept copying windows and rewriting epoch.json next to whatever the
// caller did next: close the stores, start a successor).
func TestRebalanceStopEndsRunner(t *testing.T) {
	dir := t.TempDir()
	parked := make(chan struct{}, 1) // the runner reached its first pace point
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	h := newHarness(t, raidx, 96, 0, repair.Config{
		Poll:     2 * time.Millisecond,
		StateDir: dir,
		// Park the runner in its pace call — after a committed window —
		// until it is released or its context ends.
		Pace: func(ctx context.Context, _ int) error {
			select {
			case parked <- struct{}{}:
			default:
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	raidtest.Fill(t, h.arr)
	h.sup.Start(context.Background())
	if err := h.sup.StartGrow(8, newDisks(), 0); err != nil {
		t.Fatal(err)
	}
	<-parked
	ckpt := filepath.Join(dir, "epoch.json")
	cursor, _, active := h.rx.Migrating()
	before, err := os.Stat(ckpt)
	if !active || cursor == 0 || err != nil {
		t.Fatalf("parked runner: active=%v cursor=%d, checkpoint: %v", active, cursor, err)
	}

	h.sup.Stop()

	if st := h.sup.RebalanceStatus(); st == nil || st.Running {
		t.Fatalf("after Stop the rebalance runner is still going: %+v", st)
	}
	if now, _, _ := h.rx.Migrating(); now != cursor {
		t.Fatalf("cursor moved %d -> %d after Stop", cursor, now)
	}
	if after, err := os.Stat(ckpt); err != nil || !after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("epoch checkpoint rewritten after Stop: %v -> %v (%v)", before.ModTime(), after.ModTime(), err)
	}
}

// TestRebalanceCrashResume: kill the supervisor mid-grow, rebuild the
// whole stack from the persisted epoch checkpoint (the raidxnode reopen
// path), and finish with only the delta.
func TestRebalanceCrashResume(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, raidx, 96, 0, repair.Config{
		Poll:     2 * time.Millisecond,
		StateDir: dir,
		// Slow the copy so the "crash" lands mid-flight.
		Pace: qos.New(qos.Config{BackgroundBytesPerSec: 256 << 10}).Wait,
	})
	sh := raidtest.Fill(t, h.arr)
	h.sup.Start(context.Background())

	if err := h.sup.StartGrow(8, newDisks(), 0); err != nil {
		t.Fatal(err)
	}
	raidtest.Eventually(t, "some progress", func() bool {
		cursor, _, active := h.rx.Migrating()
		return active && cursor > 0
	})
	h.sup.Stop() // "crash": runner cancelled at its next pace point

	ck, err := repair.LoadRebalance(store.OS, dir)
	if err != nil || ck == nil {
		t.Fatalf("epoch checkpoint after crash: %v, %v", ck, err)
	}
	if ck.Done || ck.Action != "grow" || ck.Nodes != 8 {
		t.Fatalf("checkpoint %+v, want in-flight grow by 8", ck)
	}

	// Reopen: array at the source epoch over the widened table, then
	// resume the recorded action from the persisted cursor.
	src, err := layout.EpochFromDesc(ck.Source)
	if err != nil {
		t.Fatal(err)
	}
	devs := append([]raid.Dev(nil), h.rx.Devices()...)
	arr2, err := core.NewAtEpoch(devs, src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sup2 := repair.New(arr2, nil, repair.Config{Poll: 2 * time.Millisecond, StateDir: dir})
	sup2.Start(context.Background())
	defer sup2.Stop()
	if err := sup2.StartGrow(ck.Nodes, nil, ck.Cursor); err != nil {
		t.Fatalf("resume grow: %v", err)
	}
	raidtest.Eventually(t, "resumed grow to finish", func() bool {
		st := sup2.RebalanceStatus()
		return st != nil && st.Done
	})
	ctx := context.Background()
	if err := arr2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sh.On(arr2).Check(t, "across crash + resume")
	if err := arr2.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// The done record is written after the completed status becomes
	// visible, so wait for it rather than racing the runner's last save.
	var ck2 *repair.RebalanceCkpt
	raidtest.Eventually(t, "final checkpoint to record the grown epoch", func() bool {
		ck2, err = repair.LoadRebalance(store.OS, dir)
		return err == nil && ck2 != nil && ck2.Done
	})
	if ck2.Source.Gen() != 1 {
		t.Fatalf("final checkpoint %+v", ck2)
	}
	sup2.Stop() // no save may race the TempDir cleanup
}
