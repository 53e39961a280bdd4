package raid_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/trace"
)

// TestMirroredWriteNeedsReadableCopy: on every mirrored engine, a write to
// a block whose one copy sits on a failed member and whose other sits on
// a blank member (emptied and handed back through SwapDev) could never be
// read back, so it fails with ErrDataLoss and writes nothing.
func TestMirroredWriteNeedsReadableCopy(t *testing.T) {
	for _, c := range []struct {
		raidtest.Engine
		failed, blank int
		block         int64
	}{
		{raidtest.RAID10(4), 0, 1, 0},
		{raidtest.Chained(4), 1, 2, 1},
		{raidtest.RAIDx(4, 1), 0, 3, 0},
	} {
		t.Run(c.Name, func(t *testing.T) {
			rec := &raidtest.Recorder{}
			a, raw := raidtest.Build[raidtest.Array](t, c.Engine, raidtest.Disks{Blocks: 64, Wrap: rec.Dev})
			raidtest.Fill(t, a)
			raw[c.failed].Fail()
			if err := raw[c.blank].Replace(); err != nil {
				t.Fatal(err)
			}
			if _, err := a.SwapDev(c.blank, a.Members().Load().Devs[c.blank]); err != nil {
				t.Fatal(err)
			}
			rec.Take()
			ctx := context.Background()
			if err := a.WriteBlocks(ctx, c.block, make([]byte, raidtest.BS)); !errors.Is(err, raid.ErrDataLoss) {
				t.Fatalf("write of block %d: err = %v, want ErrDataLoss", c.block, err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if calls := rec.Take(); len(calls) != 0 {
				t.Fatalf("refused write still reached the members: %v", calls)
			}
			if err := a.ReadBlocks(ctx, c.block, make([]byte, raidtest.BS)); !errors.Is(err, raid.ErrDataLoss) {
				t.Fatalf("read of block %d: err = %v, want ErrDataLoss", c.block, err)
			}
		})
	}
}

// TestMirroredReadsEachBlockFromItsFreshCopy: a column whose two copies
// each missed writes to different blocks of one snapshot region while the
// other was down reads every block from the copy that took its last
// write, with the engine's private log and with an attached one that
// snapshots 8-block regions alike.
func TestMirroredReadsEachBlockFromItsFreshCopy(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		raidtest.Engine
		width int64 // columns: block width is column 0's second block
	}{{raidtest.RAID10(4), 2}, {raidtest.Chained(4), 4}} {
		for i, e := range []raidtest.Engine{c.Engine, c.With(core.Options{Intent: intent.NewLog(c.N, 64, 8)})} {
			t.Run(fmt.Sprintf("%s/attached=%v", c.Name, i == 1), func(t *testing.T) {
				a, raw := raidtest.Build[raidtest.Array](t, e, raidtest.Disks{Blocks: 64})
				sh := raidtest.Fill(t, a)
				// Column 0's copies are on members 0 and 1: each misses a block.
				for down, lb := range []int64{0, c.width} {
					raw[down].Fail()
					if err := sh.Write(ctx, lb, 1); err != nil {
						t.Fatal(err)
					}
					raw[down].Readmit()
				}
				sh.Check(t, "after each copy missed a write")
			})
		}
	}
}

var errFlaky = errors.New("injected read error")

// flakyReads fails every read while on is set, and still reports healthy.
type flakyReads struct {
	raid.Dev
	on *atomic.Bool
}

func (d *flakyReads) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	if d.on.Load() {
		return errFlaky
	}
	return d.Dev.ReadBlocks(ctx, b, p)
}

// TestMirroredFailover: on every mirrored engine, a read whose first copy
// errs while its member still reports healthy is served from the other
// copy, under a <name>.failover span naming the failing member, and counted
// once in <name>.failover_reads. With the other copy failed too, the read
// is lost: the error wraps ErrDataLoss and names both causes.
func TestMirroredFailover(t *testing.T) {
	// Block 0's first copy is on member 0, its other copy on other. The
	// first read of a fresh RAID-10 or chained array reads the primary copy.
	for _, c := range []struct {
		raidtest.Engine
		other int
	}{
		{raidtest.RAID10(4), 1},
		{raidtest.Chained(4), 1},
		{raidtest.RAIDx(4, 1), 3},
	} {
		t.Run(c.Name, func(t *testing.T) {
			reg, tr, flaky := obs.NewRegistry(), trace.New(trace.Config{}), &atomic.Bool{}
			g := raidtest.Disks{Blocks: 64, Wrap: func(i int, d raid.Dev) raid.Dev {
				if i == 0 {
					return &flakyReads{d, flaky}
				}
				return d
			}}
			a, raw := raidtest.Build[raid.Array](t, c.With(core.Options{Obs: reg, Trace: tr}), g)
			ctx := context.Background()
			want := make([]byte, a.Blocks()*raidtest.BS)
			rand.New(rand.NewSource(5)).Read(want)
			if err := a.WriteBlocks(ctx, 0, want); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			flaky.Store(true)

			got := make([]byte, len(want))
			rctx, root := tr.StartRoot(ctx, "test.read", "")
			err := a.ReadBlocks(rctx, 0, got)
			root.End(err)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read with member 0 flaky: err = %v, data equal = %v", err, bytes.Equal(got, want))
			}
			failover := false
			for _, sp := range tr.Spans() {
				failover = failover || (sp.Name == a.Name()+".failover" && sp.Subject == "d0")
			}
			if !failover {
				t.Errorf("no %s.failover span on d0", a.Name())
			}
			if n := reg.Counter(a.Name() + ".failover_reads").Value(); n != 1 {
				t.Errorf("%s.failover_reads = %d, want 1", a.Name(), n)
			}

			raw[c.other].Fail()
			err = a.ReadBlocks(ctx, 0, got[:raidtest.BS])
			if !errors.Is(err, raid.ErrDataLoss) || !errors.Is(err, errFlaky) || !strings.Contains(err.Error(), fmt.Sprintf("d%d", c.other)) {
				t.Fatalf("read with both copies failed: err = %v, want ErrDataLoss naming %v and member d%d", err, errFlaky, c.other)
			}
		})
	}
}
