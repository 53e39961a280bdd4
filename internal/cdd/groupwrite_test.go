package cdd_test

// The grouped write: a RAID-x write's foreground run on a member and the
// deferred images that member hosts leave as one OpWrite table
// (raid.GroupDev), its images background extents, and reach the disks as
// the same writes as when they leave apart.

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/store"
	"repro/internal/trace"
)

// groupCluster starts n loopback nodes of one disk each (4 KiB blocks)
// and returns them, their disks, a plain RemoteDev per node and the
// registry all the clients count into.
func groupCluster(t *testing.T, n int, blocks int64) ([]*cdd.Node, []*disk.Disk, []raid.Dev, *obs.Registry) {
	t.Helper()
	nodes, disks, devs := make([]*cdd.Node, n), make([]*disk.Disk, n), make([]raid.Dev, n)
	reg := obs.NewRegistry()
	for i := range nodes {
		disks[i] = disk.New(nil, fmt.Sprintf("n%d.d0", i), store.NewMem(4<<10, blocks), disk.DefaultModel())
		node, err := cdd.ListenAndServe("127.0.0.1:0", disks[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		c, err := cdd.ConnectWith(context.Background(), node.Addr(), cdd.Options{Obs: reg})
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
	return nodes, disks, devs, reg
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

// TestCallsGroupedWrite pins the request frames a 64 KiB RAID-x write
// over four nodes sends: one per member when each member's images ride in
// its write's table, and one more per image run, 4 + 6, when they go out
// on their own. Either way the managers count one write op per member and
// one background write per mirror group the write touches, 4 + 6, and the
// write records one col-write span per member and one mirror-write per
// image run, so a traced write reads the same.
func TestCallsGroupedWrite(t *testing.T) {
	for _, hide := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", hide), func(t *testing.T) {
			nodes, _, devs, reg := groupCluster(t, 4, 256)
			for i, d := range devs {
				// Healthy without a probe, whose frame would count.
				devs[i] = healthyDev{d.(*cdd.RemoteDev), new(atomic.Bool)}
				if hide {
					devs[i] = ungrouped{devs[i], devs[i].(raid.VecDev)}
				}
			}
			frames := reg.Counter("transport.frames_sent")
			tr := trace.New(trace.Config{SlowThreshold: -1})
			a, err := core.New(devs, 4, 1, core.Options{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			w0, bg0 := mgrWrites(nodes)
			f0 := frames.Value()
			if err := a.WriteBlocks(ctx, 0, make([]byte, 64<<10)); err != nil {
				t.Fatal(err)
			}
			want := int64(4)
			if hide {
				want = 10
			}
			if f := frames.Value() - f0; f != want {
				t.Errorf("a 64 KiB write sent %d request frames, want %d", f, want)
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
	_, disks, devs, _ := groupCluster(t, 4, blocks)
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
	if raidtest.Missed(il, 4) != 0 {
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
		if d != victim && il.MissedBlocks(d) != 0 {
			t.Fatalf("member %d missed %d blocks", d, il.MissedBlocks(d))
		}
	}
	for _, blk := range data {
		if !il.Missed(victim, blk, 1) {
			t.Errorf("data block %d of member %d is not dirty", blk, victim)
		}
	}
	for _, blk := range images {
		if !il.Missed(victim, blk, 1) {
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

// TestGroupedWriteSortsTable hands WriteBlocksWith image runs out of block
// order, with the data run between them, as a grow that relocates images
// may. The node serves only an ascending table, so every block lands
// only if the table goes out sorted.
func TestGroupedWriteSortsTable(t *testing.T) {
	_, disks, devs, _ := groupCluster(t, 1, 64)
	const bs = 4 << 10
	ctx := context.Background()
	fill := func(b byte, blocks int) []byte { return bytes.Repeat([]byte{b}, blocks*bs) }
	data := fill(0xD0, 2)
	bg := []raid.Run{{Phys: 40, Data: fill(0xB4, 1)}, {Phys: 20, Data: fill(0xB2, 2)}}
	if err := devs[0].(raid.GroupDev).WriteBlocksWith(ctx, 30, [][]byte{data[:bs], data[bs:]}, bg); err != nil {
		t.Fatal(err)
	}
	for _, r := range append(bg, raid.Run{Phys: 30, Data: data}) {
		got := make([]byte, len(r.Data))
		if err := disks[0].ReadBlocks(ctx, r.Phys, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.Data) {
			t.Errorf("the run at block %d did not land", r.Phys)
		}
	}
}

// TestGroupedWriteStaleEpoch: a grouped write placed with a retired
// layout fails typed, and the node counts each background extent it
// carried as a dropped mirror write, as it counts a notified one.
func TestGroupedWriteStaleEpoch(t *testing.T) {
	nodes, _, devs, _ := groupCluster(t, 1, 64)
	nodes[0].Manager.AdoptEpoch(2)
	drops := nodes[0].Manager.Obs().Counter("mgr.bg_stale_drops")
	const bs = 4 << 10
	bg := []raid.Run{{Phys: 20, Data: make([]byte, bs)}, {Phys: 40, Data: make([]byte, 2*bs)}}
	before := drops.Value()
	err := devs[0].(raid.GroupDev).WriteBlocksWith(context.Background(), 0, [][]byte{make([]byte, bs)}, bg)
	if !cdd.IsStaleEpoch(err) {
		t.Fatalf("grouped write at a retired generation: err = %v, want stale-epoch", err)
	}
	if d := drops.Value() - before; d != 2 {
		t.Errorf("bg_stale_drops rose by %d, want 2", d)
	}
}
