package cdd_test

// The grouped write: a RAID-x write's foreground run on a member and the
// deferred images that member hosts leave as one vectored write
// (raid.GroupDev), and reach the manager as the same frames as when they
// leave apart.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/store"
	"repro/internal/trace"
)

// groupCluster starts n loopback nodes of one disk each (4 KiB blocks)
// and returns them, their disks and a plain RemoteDev per node.
func groupCluster(t *testing.T, n int, blocks int64) ([]*cdd.Node, []*disk.Disk, []raid.Dev) {
	t.Helper()
	nodes, disks, devs := make([]*cdd.Node, n), make([]*disk.Disk, n), make([]raid.Dev, n)
	for i := range nodes {
		disks[i] = disk.New(nil, fmt.Sprintf("n%d.d0", i), store.NewMem(4<<10, blocks), disk.DefaultModel())
		node, err := cdd.ListenAndServe("127.0.0.1:0", disks[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		c, err := cdd.Connect(node.Addr())
		if err != nil {
			node.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			node.Close()
		})
		nodes[i], devs[i] = node, c.Dev(0)
	}
	return nodes, disks, devs
}

// ungrouped hides raid.GroupDev and keeps raid.VecDev: the engine issues
// the runs of a member as branches of their own.
type ungrouped struct {
	raid.Dev
	raid.VecDev
}

// mgrWrites sums the managers' foreground and background write ops.
func mgrWrites(nodes []*cdd.Node) (writes, bg int64) {
	for _, n := range nodes {
		writes += n.Manager.Obs().Counter("mgr.write_ops").Value()
		bg += n.Manager.Obs().Counter("mgr.bg_write_ops").Value()
	}
	return writes, bg
}

// TestCallsGroupedWrite pins the frames a 64 KiB RAID-x write over four
// nodes costs: one OpWrite per member and one OpWriteBG per mirror group
// it touches, 4 + 6, whether each member's images ride behind its write
// or go out on their own — and its spans, one col-write per member and one
// mirror-write per image run, so a traced write reads the same either way.
func TestCallsGroupedWrite(t *testing.T) {
	for _, hide := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", hide), func(t *testing.T) {
			nodes, _, devs := groupCluster(t, 4, 256)
			if hide {
				for i, d := range devs {
					devs[i] = ungrouped{d, d.(raid.VecDev)}
				}
			}
			tr := trace.New(trace.Config{SlowThreshold: -1})
			a, err := core.New(devs, 4, 1, core.Options{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			w0, bg0 := mgrWrites(nodes)
			if err := a.WriteBlocks(ctx, 0, make([]byte, 64<<10)); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			w1, bg1 := mgrWrites(nodes)
			if w1-w0 != 4 || bg1-bg0 != 6 {
				t.Errorf("a 64 KiB write cost %d mgr.write_ops + %d mgr.bg_write_ops, want 4 + 6", w1-w0, bg1-bg0)
			}
			spans := map[string]int{}
			for _, sp := range tr.Spans() {
				spans[sp.Name]++
			}
			if cw, mw := spans["raidx.col-write"], spans["raidx.mirror-write"]; cw != 4 || mw != 6 {
				t.Errorf("a 64 KiB write recorded %d raidx.col-write + %d raidx.mirror-write spans, want 4 + 6", cw, mw)
			}
		})
	}
}

// healthyDev answers healthy until a foreground write of its has failed,
// as a RemoteDev whose cached health predates its disk's failure does: a
// write is planned onto the failed member, its grouped call fails
// mid-flight, and from that answer on the member reads as down.
type healthyDev struct {
	*cdd.RemoteDev
	lost *atomic.Bool
}

func (d healthyDev) Healthy() bool { return !d.lost.Load() }

func (d healthyDev) WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	return d.note(d.RemoteDev.WriteBlocksVec(ctx, b, segs))
}

func (d healthyDev) WriteBlocksWith(ctx context.Context, b int64, segs [][]byte, bg []raid.Run) error {
	return d.note(d.RemoteDev.WriteBlocksWith(ctx, b, segs, bg))
}

func (d healthyDev) note(err error) error {
	if err != nil {
		d.lost.Store(true)
	}
	return err
}

// TestGroupedWriteFailureMarksCarriedRuns fails the disk under a member's
// grouped write. The write must succeed, as it does with the member down
// at plan time: every block's other copy landed. It must leave dirty in
// the intent log both the victim's foreground run and every image run the
// call carried, and nothing of any other member. Reads right after the
// write see it; a delta resync of the victim alone then leaves the array
// verifying clean.
func TestGroupedWriteFailureMarksCarriedRuns(t *testing.T) {
	const blocks = 256
	_, disks, devs := groupCluster(t, 4, blocks)
	lost := make([]atomic.Bool, len(devs))
	for i, d := range devs {
		devs[i] = healthyDev{d.(*cdd.RemoteDev), &lost[i]}
	}
	il := intent.NewLog(4, blocks, 1)
	a, err := core.New(devs, 4, 1, core.Options{Intent: il})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sh := raidtest.Fill(t, a)
	if il.AnyDirty() {
		t.Fatal("intent log dirty after a clean fill")
	}
	const b, n = 0, 16 // 64 KiB
	lay := a.Layout()
	victim := lay.DataLoc(b).Disk
	var data, images []int64
	for lb := int64(b); lb < b+n; lb++ {
		if l := lay.DataLoc(lb); l.Disk == victim {
			data = append(data, l.Block)
		}
		if l := lay.MirrorLoc(lb); l.Disk == victim {
			images = append(images, l.Block)
		}
	}
	if len(images) == 0 {
		t.Fatalf("member %d hosts no image of blocks [%d, %d)", victim, b, b+n)
	}

	disks[victim].Fail()
	if err := sh.Write(ctx, b, n); err != nil {
		t.Fatalf("write with one member failed mid-call: %v", err)
	}
	for d := range devs {
		if d != victim && len(il.Dirty(d)) != 0 {
			t.Fatalf("member %d is dirty: %v", d, il.Dirty(d))
		}
	}
	dirty := map[int64]bool{}
	for _, r := range il.Dirty(victim) {
		for blk := r.Start; blk < r.Start+r.Count; blk++ {
			dirty[blk] = true
		}
	}
	for _, blk := range data {
		if !dirty[blk] {
			t.Errorf("data block %d of member %d is not dirty", blk, victim)
		}
	}
	for _, blk := range images {
		if !dirty[blk] {
			t.Errorf("carried image block %d of member %d is not dirty", blk, victim)
		}
	}

	sh.Check(t, "right after the write")

	disks[victim].Readmit()
	lost[victim].Store(false)
	if _, err := raid.Resync(ctx, a, victim, il.TakeDirty(victim), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := raid.Verify(ctx, a); err != nil {
		t.Fatalf("after resync: %v", err)
	}
	sh.Check(t, "after resync")
}
