package cdd_test

// Online-membership integration drill over real TCP: the repair
// supervisor drives a grow while foreground traffic runs against the
// same array and a node is killed outright mid-rebalance. (The partition
// drill runs through the real rebalance coordinator, in internal/node.)
// Test names match the CI grow shard (TestGrow).

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/repair"
)

// TestGrowChaosNodeKillMidRebalance kills a donating member outright —
// server and all its connections — while a grow is copying. The
// migration must finish from the surviving mirrors, readers must see
// zero errors throughout, and every byte must read back correctly on
// the grown, degraded array.
func TestGrowChaosNodeKillMidRebalance(t *testing.T) {
	const blocks = 96
	devs, _, nodes, reg := faultCluster(t, 8, 1, blocks, nil)
	a, err := core.New(devs[:4], 4, 1, core.Options{Obs: reg, ForegroundMirror: true})
	if err != nil {
		t.Fatal(err)
	}
	sup := repair.New(a, nil, repair.Config{
		Poll:          5 * time.Millisecond,
		FailureBudget: 10 * time.Minute,
		ScrubStride:   -1,
		// Unpaced, the ~96 KiB of moves finishes between two 5ms polls
		// and the kill lands after completion; at this background rate
		// the second copy window waits ~1s for the first one's bytes, so
		// the kill is genuinely mid-rebalance.
		Pace: qos.New(qos.Config{BackgroundBytesPerSec: 32 << 10}).Wait,
	})

	ctx := context.Background()
	bs := a.BlockSize()
	golden := make([]byte, int(a.Blocks())*bs)
	rand.New(rand.NewSource(97)).Read(golden)
	if err := a.WriteBlocks(ctx, 0, golden); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sup.Start(ctx)
	defer sup.Stop()

	var readErrs, reads atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(98 + r)))
			buf := make([]byte, 4*bs)
			for {
				select {
				case <-done:
					return
				default:
				}
				off := int64(rng.Intn(int(a.Blocks()) - 4))
				if err := a.ReadBlocks(ctx, off, buf); err != nil {
					t.Errorf("foreground read at %d: %v", off, err)
					readErrs.Add(1)
					return
				}
				if !bytes.Equal(buf, golden[off*int64(bs):(off+4)*int64(bs)]) {
					t.Errorf("foreground read at %d returned wrong data", off)
					readErrs.Add(1)
					return
				}
				reads.Add(1)
			}
		}()
	}

	if err := sup.StartGrow(4, devs[4:8], 0); err != nil {
		t.Fatal(err)
	}
	waitMigrationCursor(t, a, 10*time.Second)
	nodes[2].Close() // no courtesy fail call: the server just dies

	waitWithin(t, 60*time.Second, "grow to complete past the dead member", func() bool {
		st := sup.RebalanceStatus()
		return st != nil && st.Done && !st.Running
	})
	if gen := a.Epoch().Gen(); gen != 1 {
		t.Fatalf("epoch generation %d after grow, want 1", gen)
	}

	close(done)
	wg.Wait()
	if readErrs.Load() != 0 || reads.Load() == 0 {
		t.Fatalf("readers: %d errors over %d reads", readErrs.Load(), reads.Load())
	}

	// Degraded audit: the dead member's blocks read from their mirrors.
	got := make([]byte, len(golden))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("final degraded read: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("data wrong after grow with a dead member")
	}
}

// waitMigrationCursor polls until the array's migration has committed
// at least one window, returning the migration for later inspection.
func waitMigrationCursor(t *testing.T, a *core.RAIDx, within time.Duration) *core.Migration {
	t.Helper()
	waitWithin(t, within, "migration to make progress", func() bool {
		cursor, _, active := a.Migrating()
		return active && cursor > 0
	})
	m := a.CurrentMigration()
	if m == nil {
		t.Fatal("no current migration after progress")
	}
	return m
}

// waitWithin polls cond until it holds or the deadline passes.
func waitWithin(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
