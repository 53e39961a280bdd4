package cdd

// Block ops on the wire, every one an extent table: what the manager
// rejects (and that a rejected table moves nothing), what it serves, the
// one generation fence, and the flush that must never send a run whose
// grant is gone.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/store"
	"repro/internal/transport"
)

const extTestBlocks = 16

// blockPayload frames an I/O header for disk claiming count extents,
// then the table of exts, each (block, blocks) and background when bg
// is set, then data — malformed on purpose where the case says so.
func blockPayload(disk, count uint32, exts [][2]int64, bg bool, data []byte) []byte {
	var tab []byte
	for _, e := range exts {
		tab = appendExtent(tab, Extent{Block: e[0], Blocks: uint32(e[1]), BG: bg})
	}
	return encodeIOHeader(ioHeader{Disk: disk, Count: count}, append(tab, data...))
}

// patterned fills the node's disk 0 with a known pattern and returns it.
func patterned(t testing.TB, n *Node) []byte {
	t.Helper()
	d := n.Manager.disks[0]
	img := make([]byte, int(d.NumBlocks())*d.BlockSize())
	for i := range img {
		img[i] = byte(i/d.BlockSize()) ^ 0xA5
	}
	if err := d.WriteBlocks(context.Background(), 0, img); err != nil {
		t.Fatal(err)
	}
	return img
}

func diskImage(t testing.TB, n *Node) []byte {
	t.Helper()
	d := n.Manager.disks[0]
	img := make([]byte, int(d.NumBlocks())*d.BlockSize())
	if err := d.ReadBlocks(context.Background(), 0, img); err != nil {
		t.Fatal(err)
	}
	return img
}

// blockKind is a block op as the node tells it apart: a read, or a write
// whose extents are all foreground or all background.
type blockKind struct {
	name string
	op   uint8
	bg   bool
}

var (
	readKind  = blockKind{"read", OpRead, false}
	writeKind = blockKind{"write", OpWrite, false}
	bgKind    = blockKind{"bg-write", OpWrite, true}
	blockOps  = []blockKind{readKind, writeKind, bgKind}
)

// TestWriteExtentsRejected: every malformed block op is CodeBadRequest
// with nothing moved, whichever of the three kinds carries it. Disk 0 is
// the one patterned; disk 1 is sparse and spans more than one frame.
func TestWriteExtentsRejected(t *testing.T) {
	const bs = 512
	bigBlocks := int64(transport.MaxPayload/bs + 1)
	n, err := ListenAndServe("127.0.0.1:0", []*disk.Disk{
		disk.New(nil, "d0", store.NewMem(bs, extTestBlocks), disk.DefaultModel()),
		disk.New(nil, "big", store.NewMem(bs, bigBlocks), disk.DefaultModel()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blk := func(k int) []byte { return bytes.Repeat([]byte{0xEE}, k*bs) }
	writes := []blockKind{writeKind, bgKind}
	cases := []struct {
		name  string
		ops   []blockKind
		disk  uint32
		count uint32
		exts  [][2]int64
		// wdata follows the table on a write, rdata on a read.
		wdata, rdata []byte
	}{
		{name: "no extent table", ops: blockOps, count: 0, wdata: blk(1)},
		{name: "short table", ops: blockOps, count: 2, exts: [][2]int64{{0, 1}}},
		{name: "table longer than payload", ops: blockOps, count: 1000, exts: [][2]int64{{0, 1}}, wdata: blk(1)},
		{name: "table count wraps uint32*12", ops: blockOps, count: math.MaxUint32, exts: [][2]int64{{0, 1}}, wdata: blk(1)},
		{name: "zero-length extent", ops: blockOps, count: 2, exts: [][2]int64{{0, 1}, {4, 0}}, wdata: blk(1)},
		{name: "negative block", ops: blockOps, count: 1, exts: [][2]int64{{-1, 1}}, wdata: blk(1)},
		{name: "past the disk", ops: blockOps, count: 2, exts: [][2]int64{{0, 1}, {extTestBlocks - 1, 2}}, wdata: blk(3)},
		{name: "block+blocks wraps int64", ops: blockOps, count: 2, exts: [][2]int64{{0, 1}, {math.MaxInt64, 2}}, wdata: blk(3)},
		{name: "blocks beyond any disk", ops: blockOps, count: 1, exts: [][2]int64{{1, math.MaxInt32}}, wdata: blk(1)},
		{name: "descending", ops: blockOps, count: 2, exts: [][2]int64{{8, 1}, {2, 1}}, wdata: blk(2)},
		{name: "overlapping", ops: blockOps, count: 2, exts: [][2]int64{{2, 3}, {4, 1}}, wdata: blk(4)},
		{name: "repeated", ops: blockOps, count: 2, exts: [][2]int64{{2, 1}, {2, 1}}, wdata: blk(2)},
		{name: "no such disk", ops: blockOps, disk: 2, count: 1, exts: [][2]int64{{0, 1}}, wdata: blk(1)},
		{name: "data longer than table", ops: writes, count: 2, exts: [][2]int64{{0, 1}, {4, 1}}, wdata: blk(3)},
		{name: "data shorter than table", ops: writes, count: 2, exts: [][2]int64{{0, 1}, {4, 2}}, wdata: blk(2)},
		{name: "data not whole blocks", ops: writes, count: 1, exts: [][2]int64{{0, 1}}, wdata: blk(1)[:bs-1]},
		{name: "read table followed by data", ops: []blockKind{readKind}, count: 1, exts: [][2]int64{{0, 1}}, rdata: blk(1)},
		{name: "read beyond one frame", ops: []blockKind{readKind}, disk: 1, count: 1, exts: [][2]int64{{0, bigBlocks}}},
		{name: "read with a background extent", ops: []blockKind{{"read", OpRead, true}}, count: 1, exts: [][2]int64{{0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range tc.ops {
				t.Run(k.name, func(t *testing.T) {
					data := tc.wdata
					if k.op == OpRead {
						data = tc.rdata
					}
					want := patterned(t, n)
					_, err := c.Transport().Call(context.Background(), k.op, [][]byte{blockPayload(tc.disk, tc.count, tc.exts, k.bg, data)}, nil, time.Time{})
					var re *transport.RemoteError
					if !errors.As(err, &re) || re.Code != transport.CodeBadRequest {
						t.Fatalf("err = %v, want CodeBadRequest", err)
					}
					if !bytes.Equal(diskImage(t, n), want) {
						t.Fatal("a rejected request changed the disk")
					}
				})
			}
		})
	}
}

// TestWriteExtentsRoundTrip: the well-formed twin of the table above, one
// request per row — adjacent and separated extents, first and last block
// of the disk, foreground and background extents in one table — and
// each counted as its kind: a read or a write with a foreground extent
// as one op, every background extent as one background write.
func TestWriteExtentsRoundTrip(t *testing.T) {
	n := startNode(t, 1, extTestBlocks)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev := c.Dev(0)
	ctx := context.Background()
	fg := func(b int64, k uint32) Extent { return Extent{Block: b, Blocks: k} }
	bg := func(b int64, k uint32) Extent { return Extent{Block: b, Blocks: k, BG: true} }
	cases := []struct {
		name               string
		op                 uint8
		exts               []Extent
		reads, writes, bgs int64
	}{
		{"write", OpWrite, []Extent{fg(0, 1), fg(1, 2), fg(7, 1), fg(extTestBlocks-1, 1)}, 0, 1, 0},
		{"background write, one extent", OpWrite, []Extent{bg(3, 2)}, 0, 0, 1},
		{"background write, two extents", OpWrite, []Extent{bg(0, 1), bg(extTestBlocks-2, 2)}, 0, 0, 2},
		{"foreground and background", OpWrite, []Extent{bg(0, 2), fg(2, 3), bg(9, 1), bg(10, 2)}, 0, 1, 3},
		{"read, two extents", OpRead, []Extent{fg(9, 2), fg(12, 1)}, 1, 0, 0},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := patterned(t, n)
			var segs [][]byte
			var read []byte // what a read must return, in table order
			for _, e := range tc.exts {
				for b := e.Block; b < e.Block+int64(e.Blocks); b++ {
					seg := bytes.Repeat([]byte{byte(16*i) + byte(b) + 1}, 512)
					if tc.op == OpRead {
						read = append(read, want[b*512:(b+1)*512]...)
					} else {
						copy(want[b*512:], seg)
					}
					segs = append(segs, seg)
				}
			}
			ops := func() [3]int64 {
				var v [3]int64
				for i, name := range []string{"mgr.read_ops", "mgr.write_ops", "mgr.bg_write_ops"} {
					v[i] = n.Manager.Obs().Counter(name).Value()
				}
				return v
			}
			before := ops()
			if err := dev.blockIO(ctx, tc.op, tc.exts, segs); err != nil {
				t.Fatal(err)
			}
			if err := dev.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			after := ops()
			if got, want := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]int64{tc.reads, tc.writes, tc.bgs}; got != want {
				t.Errorf("%d-extent request counted as %v read, write and bg write ops, want %v", len(tc.exts), got, want)
			}
			if tc.op == OpRead && !bytes.Equal(bytes.Join(segs, nil), read) {
				t.Error("the extents came back out of table order or wrong")
			}
			if !bytes.Equal(diskImage(t, n), want) {
				t.Fatal("extents landed at the wrong blocks")
			}
		})
	}
}

// TestWriteExtentsStaleEpoch: the generation fence sits before the op
// switch, so it covers the multi-extent form without being re-spelled.
func TestWriteExtentsStaleEpoch(t *testing.T) {
	n := startNode(t, 1, extTestBlocks)
	want := patterned(t, n)
	n.Manager.AdoptEpoch(5)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetArrayEpoch(3)
	seg := bytes.Repeat([]byte{0xEE}, 512)
	err = c.Dev(0).WriteExtents(context.Background(), []Extent{{Block: 1, Blocks: 1}, {Block: 5, Blocks: 1}}, [][]byte{seg, seg})
	var re *transport.RemoteError
	if !errors.As(err, &re) || re.Code != transport.CodeStaleEpoch {
		t.Fatalf("multi-extent write at a retired generation: err = %v, want CodeStaleEpoch", err)
	}
	if !bytes.Equal(diskImage(t, n), want) {
		t.Fatal("a stale-generation write changed the disk")
	}
}

// TestBlockIOBeyondOneFrame: a transfer larger than one frame leaves as
// consecutive requests that each fit — a 17 MiB write, background write
// and read through the one-extent calls in two requests each, and a
// two-extent table whose cut falls inside an extent and inside a
// segment, once foreground and once grouped, with its second extent
// background — and every block lands where the table says, every piece
// of a background extent background. The device stays healthy
// throughout. Last, a disk failure in the grouped table's
// background-only piece reaches the caller: that piece is a call.
func TestBlockIOBeyondOneFrame(t *testing.T) {
	const bs, mib = 4096, 1 << 20
	d0 := disk.New(nil, "d0", store.NewMem(bs, 40*mib/bs), disk.DefaultModel())
	n, err := ListenAndServe("127.0.0.1:0", []*disk.Disk{d0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev, ctx := c.Dev(0), context.Background()
	data := make([]byte, 17*mib)
	rand.New(rand.NewSource(17)).Read(data)
	ops := func(name string) func() int64 {
		ctr := n.Manager.Obs().Counter(name)
		before := ctr.Value()
		return func() int64 { return ctr.Value() - before }
	}
	readBack := func(at int64, want []byte) {
		t.Helper()
		reads := ops("mgr.read_ops")
		got := make([]byte, len(want))
		if err := dev.ReadBlocks(ctx, at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes at block %d read back wrong", len(want), at)
		}
		if r := reads(); r != 2 {
			t.Errorf("17 MiB read took %d requests, want 2", r)
		}
	}

	writes := ops("mgr.write_ops")
	if err := dev.WriteBlocks(ctx, 3, data); err != nil {
		t.Fatal(err)
	}
	if w := writes(); w != 2 {
		t.Errorf("17 MiB write took %d requests, want 2", w)
	}
	readBack(3, data)

	for i := range data {
		data[i] ^= 0x5A
	}
	bg := ops("mgr.bg_write_ops")
	if err := dev.WriteBlocksBackground(ctx, 1, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if w := bg(); w != 2 {
		t.Errorf("17 MiB background write took %d notifications, want 2", w)
	}
	readBack(1, data)

	// 1000 + 3352 blocks = 17 MiB, in segments of 3 blocks and 100 bytes;
	// the gap between the extents keeps the background write's bytes.
	exts := []Extent{{Block: 0, Blocks: 1000}, {Block: 2000, Blocks: 3352}}
	segments := func(b []byte) (segs [][]byte) {
		for len(b) > 0 {
			k := min(len(b), 3*bs+100)
			segs, b = append(segs, b[:k]), b[k:]
		}
		return segs
	}
	gap := append([]byte(nil), data[999*bs:1999*bs]...)
	for i := range data {
		data[i] ^= 0xC3
	}
	if err := dev.blockIO(ctx, OpWrite, exts, segments(data)); err != nil {
		t.Fatal(err)
	}
	readExts := func() {
		t.Helper()
		reads := ops("mgr.read_ops")
		got := make([]byte, len(data))
		if err := dev.blockIO(ctx, OpRead, exts, segments(got)); err != nil {
			t.Fatal(err)
		}
		if r := reads(); r != 2 || !bytes.Equal(got, data) {
			t.Fatalf("two-extent 17 MiB read: %d requests, equal %v", r, bytes.Equal(got, data))
		}
	}
	readExts()

	// The cut falls inside the background extent: the first request
	// carries the foreground extent and the background one's head, the
	// second, its tail alone, leaves as a notification.
	for i := range data {
		data[i] ^= 0x3C
	}
	exts[1].BG = true
	writes, bg = ops("mgr.write_ops"), ops("mgr.bg_write_ops")
	if err := dev.blockIO(ctx, OpWrite, exts, segments(data)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if w, b := writes(), bg(); w != 1 || b != 2 {
		t.Errorf("grouped 17 MiB table: %d write ops + %d background extents, want 1 + 2", w, b)
	}
	exts[1].BG = false
	readExts()
	got := make([]byte, len(gap))
	if err := dev.ReadBlocks(ctx, 1000, got); err != nil || !bytes.Equal(got, gap) {
		t.Fatalf("the gap between the extents changed (%v)", err)
	}
	if !dev.Healthy() {
		t.Fatal("a transfer larger than one frame marked the device unhealthy")
	}

	// The first piece's two extents land; the disk fails under the
	// second piece, the background extent's tail alone.
	exts[1].BG = true
	d0.FailAfter(2)
	if err := dev.blockIO(ctx, OpWrite, exts, segments(data)); err == nil {
		t.Fatal("grouped 17 MiB table returned nil though its background-only piece failed")
	}
}

// FuzzWriteExtents: whatever block op follows a valid header, the
// manager never panics, and a request it rejects has written nothing.
func FuzzWriteExtents(f *testing.F) {
	n := startNode(f, 1, extTestBlocks)
	seg := bytes.Repeat([]byte{0xEE}, 512)
	mixed := appendExtent(appendExtent(nil, Extent{Block: 1, Blocks: 1}), Extent{Block: 5, Blocks: 1, BG: true})
	f.Add(OpWrite, uint32(2), blockPayload(0, 0, [][2]int64{{1, 1}, {5, 1}}, false, append(seg, seg...))[ioHeaderLen:])
	f.Add(OpWrite, uint32(2), blockPayload(0, 0, [][2]int64{{5, 1}, {1, 1}}, true, append(seg, seg...))[ioHeaderLen:])
	f.Add(OpWrite, uint32(1), blockPayload(0, 0, [][2]int64{{15, 2}}, false, append(seg, seg...))[ioHeaderLen:])
	f.Add(OpRead, uint32(2), blockPayload(0, 0, [][2]int64{{0, 1}, {4, 3}}, false, nil)[ioHeaderLen:])
	f.Add(OpRead, uint32(1), blockPayload(0, 0, [][2]int64{{0, 1}}, false, seg)[ioHeaderLen:])
	f.Add(OpWrite, uint32(0), seg)
	f.Add(OpRead, uint32(1), blockPayload(0, 0, [][2]int64{{0, 1}}, true, nil)[ioHeaderLen:])
	f.Add(OpWrite, uint32(2), append(mixed, append(seg, seg...)...))
	f.Add(OpWrite, uint32(1), blockPayload(0, 0, [][2]int64{{15, 2}}, true, append(seg, seg...))[ioHeaderLen:])
	want := patterned(f, n)
	f.Fuzz(func(t *testing.T, op uint8, count uint32, body []byte) {
		op = []uint8{OpRead, OpWrite}[op%2]
		payload := encodeIOHeader(ioHeader{Disk: 0, Count: count}, body)
		resp, err := n.Manager.Handle(context.Background(), op, payload)
		if err == nil {
			bufpool.Put(resp)
			if op != OpRead {
				want = patterned(t, n) // accepted: a legitimate write, start over
				return
			}
		}
		if !bytes.Equal(diskImage(t, n), want) {
			t.Fatalf("%s (%v) but the disk changed", opSpanName(op), err)
		}
	})
}

// TestWriteBackRevokedRunNotSent: of three dirty runs the middle one's
// exclusive grant is gone by flush time (a release racing a writer). It
// is discarded and never sent; its siblings land in the SAME write; the
// new owner's bytes survive.
func TestWriteBackRevokedRunNotSent(t *testing.T) {
	n := startNode(t, 1, 64)
	c, reg := connectObs(t, n.Addr())
	s := NewSession(c, "three-runs", SessionConfig{Obs: reg, WriteBackBytes: 64 << 20, WriteBackAge: time.Hour})
	defer s.Close()
	ctx := context.Background()
	runs := []Range{BlockLockRange(0, 0, 8), BlockLockRange(0, 16, 8), BlockLockRange(0, 32, 8)}
	for _, r := range runs {
		if err := s.Acquire(ctx, Exclusive, []Range{r}); err != nil {
			t.Fatal(err)
		}
	}
	dev := s.Dev(0)
	ours := bytes.Repeat([]byte{0x11}, 2*512)
	for _, b := range []int64{2, 18, 34} {
		if err := dev.WriteBlocks(ctx, b, ours); err != nil {
			t.Fatal(err)
		}
	}
	if dev.DirtyBlocks() != 6 {
		t.Fatalf("dirty blocks = %d, want 6", dev.DirtyBlocks())
	}

	// The middle grant goes away without the flush Release would run,
	// and a new owner takes the range and writes.
	s.mu.Lock()
	s.excl = dropExact(s.excl, runs[1:2])
	s.mu.Unlock()
	if err := c.Unlock(ctx, s.Owner(), runs[1:2]); err != nil {
		t.Fatal(err)
	}
	c2, _ := connectObs(t, n.Addr())
	if ok, err := c2.TryLock("usurper", runs[1:2]); err != nil || !ok {
		t.Fatalf("usurper lock: ok=%v err=%v", ok, err)
	}
	theirs := bytes.Repeat([]byte{0x44}, 2*512)
	if err := c2.Dev(0).WriteBlocks(ctx, 18, theirs); err != nil {
		t.Fatal(err)
	}

	writes := n.Manager.Obs().Counter("mgr.write_ops")
	before := writes.Value()
	if err := dev.FlushWriteBack(ctx); err != nil {
		t.Fatal(err)
	}
	if got := writes.Value() - before; got != 1 {
		t.Errorf("the two surviving runs went out in %d writes, want 1", got)
	}
	if e, b := reg.Counter("sess.wb_errors").Value(), reg.Counter("sess.wb_blocks").Value(); e != 1 || b != 4 {
		t.Errorf("wb_errors = %d, wb_blocks = %d, want 1 and 4", e, b)
	}
	if dev.DirtyBlocks() != 0 {
		t.Errorf("%d blocks still dirty", dev.DirtyBlocks())
	}
	got := make([]byte, 2*512)
	for b, want := range map[int64][]byte{2: ours, 18: theirs, 34: ours} {
		if err := c2.Dev(0).ReadBlocks(ctx, b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("block %d holds %#x.., want %#x..", b, got[0], want[0])
		}
	}
}

// TestWriteBackRunAcrossAbuttingGrants: two adjacent dirty blocks, each
// under its own exclusive grant, form a run no single grant contains.
// Both are still ours: both reach the node and nothing is counted lost.
// With the grant over the second one gone, the run is cut at the
// boundary: the first is written, the second discarded.
func TestWriteBackRunAcrossAbuttingGrants(t *testing.T) {
	n := startNode(t, 1, 64)
	c, reg := connectObs(t, n.Addr())
	s := NewSession(c, "abutting", SessionConfig{Obs: reg, WriteBackBytes: 64 << 20, WriteBackAge: time.Hour})
	defer s.Close()
	ctx := context.Background()
	grants := []Range{BlockLockRange(0, 0, 4), BlockLockRange(0, 4, 4)}
	for _, r := range grants {
		if err := s.Acquire(ctx, Exclusive, []Range{r}); err != nil {
			t.Fatal(err)
		}
	}
	dev := s.Dev(0)
	buffer := func(fill byte) {
		t.Helper()
		for _, b := range []int64{3, 4} {
			if err := dev.WriteBlocks(ctx, b, bytes.Repeat([]byte{fill}, 512)); err != nil {
				t.Fatal(err)
			}
		}
		if dev.DirtyBlocks() != 2 {
			t.Fatalf("dirty blocks = %d, want 2", dev.DirtyBlocks())
		}
	}
	onNode := func(want3, want4 byte) {
		t.Helper()
		c2, _ := connectObs(t, n.Addr())
		got := make([]byte, 2*512)
		if err := c2.Dev(0).ReadBlocks(ctx, 3, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != want3 || got[512] != want4 {
			t.Errorf("node holds %#x, %#x in blocks 3, 4, want %#x, %#x", got[0], got[512], want3, want4)
		}
	}
	wbErrors, wbBlocks := reg.Counter("sess.wb_errors"), reg.Counter("sess.wb_blocks")

	buffer(0x11)
	if err := dev.FlushWriteBack(ctx); err != nil {
		t.Fatal(err)
	}
	onNode(0x11, 0x11)
	if e, b := wbErrors.Value(), wbBlocks.Value(); e != 0 || b != 2 {
		t.Errorf("wb_errors = %d, wb_blocks = %d, want 0 and 2", e, b)
	}

	// Buffer the pair again, then lose the second grant before the flush.
	buffer(0x22)
	s.mu.Lock()
	s.excl = dropExact(s.excl, grants[1:])
	s.mu.Unlock()
	if err := dev.FlushWriteBack(ctx); err != nil {
		t.Fatal(err)
	}
	onNode(0x22, 0x11)
	if e, b := wbErrors.Value(), wbBlocks.Value(); e != 1 || b != 3 {
		t.Errorf("wb_errors = %d, wb_blocks = %d, want 1 and 3", e, b)
	}
	if dev.DirtyBlocks() != 0 {
		t.Errorf("%d blocks still dirty", dev.DirtyBlocks())
	}
}
