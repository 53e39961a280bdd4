package cdd_test

// The write-back flush as one multi-extent write: the call pin, the
// failure contract, and the lease clock the flush guard reads.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

// heldSession opens a session whose write-back flushes only when told
// to, holding an exclusive grant over the whole disk.
func heldSession(t *testing.T, c *cdd.NodeClient, reg *obs.Registry, owner string, blocks int64) *cdd.CachedDev {
	t.Helper()
	s := cdd.NewSession(c, owner, cdd.SessionConfig{Obs: reg, WriteBackBytes: 64 << 20, WriteBackAge: time.Hour})
	t.Cleanup(func() { s.Close() })
	if err := s.AcquireBlocks(context.Background(), cdd.Exclusive, 0, 0, blocks); err != nil {
		t.Fatal(err)
	}
	return s.Dev(0)
}

// scatter dirties n blocks at the given stride (7: no two adjacent) and
// returns the block numbers with what each now holds.
func scatter(t *testing.T, dev *cdd.CachedDev, n, stride int64) ([]int64, [][]byte) {
	t.Helper()
	var blks []int64
	var want [][]byte
	for i := int64(0); i < n; i++ {
		data := bytes.Repeat([]byte{byte(i) + 1}, dev.BlockSize())
		if err := dev.WriteBlocks(context.Background(), i*stride, data); err != nil {
			t.Fatal(err)
		}
		blks, want = append(blks, i*stride), append(want, data)
	}
	return blks, want
}

func checkBlocks(t *testing.T, dev *cdd.RemoteDev, blks []int64, want [][]byte) {
	t.Helper()
	got := make([]byte, dev.BlockSize())
	for i, b := range blks {
		if err := dev.ReadBlocks(context.Background(), b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("block %d holds %#x.., want %#x..", b, got[0], want[i][0])
		}
	}
}

// TestCallsGroupCommit pins the flush of a scattered dirty set at ONE
// remote write — 64 extents in one frame — under one sess.group-commit
// span that parents the cdd.write it issues.
func TestCallsGroupCommit(t *testing.T) {
	node, c, reg := coherenceNode(t, 512)
	dev := heldSession(t, c, reg, "gc1", 512)
	blks, want := scatter(t, dev, 64, 7)

	mgrWrites := node.Manager.Obs().Counter("mgr.write_ops")
	before := mgrWrites.Value()
	tr := trace.New(trace.Config{})
	ctx, root := tr.StartRoot(context.Background(), "op.write", "")
	writer, _ := trace.FromContext(ctx)
	if err := dev.FlushWriteBack(ctx); err != nil {
		t.Fatal(err)
	}
	root.End(nil)
	if got := mgrWrites.Value() - before; got != 1 {
		t.Errorf("flush of 64 scattered blocks made %d remote writes, want 1", got)
	}
	if f, b := reg.Counter("sess.wb_flushes").Value(), reg.Counter("sess.wb_blocks").Value(); f != 1 || b != 64 {
		t.Errorf("wb_flushes = %d, wb_blocks = %d, want 1 and 64", f, b)
	}
	if dev.DirtyBlocks() != 0 {
		t.Errorf("%d blocks still dirty after the flush", dev.DirtyBlocks())
	}
	checkBlocks(t, c.Dev(0), blks, want)

	var commit, write trace.Span
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "sess.group-commit":
			commit = sp
		case "cdd.write":
			write = sp
		}
	}
	if commit.Val != int64(64*dev.BlockSize()) || commit.Parent != writer.Span {
		t.Errorf("group-commit span = %+v, want %d bytes under the writer's span", commit, 64*dev.BlockSize())
	}
	if write.Parent != commit.ID || commit.ID == 0 {
		t.Errorf("cdd.write parent = %d, want the group-commit span %d", write.Parent, commit.ID)
	}
}

// TestCallsGroupCommitSplits: a dirty set beyond what one write may
// carry — 256 extents, or 1 MiB of blocks — goes out as consecutive
// writes, each committing its own blocks.
func TestCallsGroupCommitSplits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stride int64
	}{{"300 extents", 2}, {"one 300-block run", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			node, c, reg := coherenceNode(t, 1024)
			dev := heldSession(t, c, reg, "gc-split", 1024)
			blks, want := scatter(t, dev, 300, tc.stride)
			mgrWrites := node.Manager.Obs().Counter("mgr.write_ops")
			before := mgrWrites.Value()
			if err := dev.FlushWriteBack(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := mgrWrites.Value() - before; got != 2 {
				t.Errorf("flush made %d remote writes, want 2 (256 blocks + 44)", got)
			}
			if f, b := reg.Counter("sess.wb_flushes").Value(), reg.Counter("sess.wb_blocks").Value(); f != 2 || b != 300 {
				t.Errorf("wb_flushes = %d, wb_blocks = %d, want 2 and 300", f, b)
			}
			checkBlocks(t, c.Dev(0), blks, want)
		})
	}
}

// TestWriteBackFailedFlushKeepsDirty: a flush whose write fails leaves
// every block dirty, and the next flush after the disk is replaced
// commits them all.
func TestWriteBackFailedFlushKeepsDirty(t *testing.T) {
	_, c, reg := coherenceNode(t, 512)
	dev := heldSession(t, c, reg, "gc2", 512)
	blks, want := scatter(t, dev, 64, 7)
	ctx := context.Background()

	if err := c.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushWriteBack(ctx); err == nil {
		t.Fatal("flush to a failed disk succeeded")
	}
	if got := dev.DirtyBlocks(); got != 64 {
		t.Fatalf("failed flush left %d dirty blocks, want all 64", got)
	}
	if got := reg.Counter("sess.wb_errors").Value(); got != 1 {
		t.Errorf("wb_errors = %d, want 1", got)
	}
	if err := c.ReplaceDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushWriteBack(ctx); err != nil {
		t.Fatalf("flush after replace: %v", err)
	}
	if dev.DirtyBlocks() != 0 {
		t.Fatalf("%d blocks still dirty after the retry", dev.DirtyBlocks())
	}
	checkBlocks(t, c.Dev(0), blks, want)
}

// lateConn delivers everything the client receives late: a reply is
// held for the delay after it arrived. (faultnet charges its latency
// before the read, which a reader already waiting never pays.)
type lateConn struct {
	net.Conn
	delay *atomic.Int64
}

func (c lateConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	time.Sleep(time.Duration(c.delay.Load()))
	return n, err
}

// TestSessionLeaseFromBeatSend: the lease safety window runs from when
// the heartbeat was SENT. The server renewed the lease when it processed
// the beat; a reply that took longer than ttl/2 to come back must not
// leave the client serving hits and committing write-back until
// reply + ttl/2, which is past the server's expiry.
func TestSessionLeaseFromBeatSend(t *testing.T) {
	d := disk.New(nil, "lease0", store.NewMem(4096, 64), disk.DefaultModel())
	node, err := cdd.ListenAndServe("127.0.0.1:0", []*disk.Disk{d})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Manager.Locks().SetLease(time.Second, nil)

	var delay atomic.Int64
	reg := obs.NewRegistry()
	pol := fastPolicy()
	pol.CallTimeout = 5 * time.Second // a late reply is slow, not lost
	c, err := cdd.ConnectWith(context.Background(), node.Addr(), cdd.Options{Retry: pol, Obs: reg,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
			return lateConn{conn, &delay}, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := cdd.NewSession(c, "lease1", cdd.SessionConfig{
		Obs: reg, Beat: 250 * time.Millisecond, WriteBackBytes: 64 << 20, WriteBackAge: time.Hour,
	})
	defer s.Close()
	defer delay.Store(0)
	ctx := context.Background()
	if err := s.AcquireBlocks(ctx, cdd.Exclusive, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlocks(ctx, 1, buf); err != nil { // cached
		t.Fatal(err)
	}
	if err := dev.WriteBlocks(ctx, 2, buf); err != nil { // dirty
		t.Fatal(err)
	}

	// The next beat renews the lease on time; its reply reaches the
	// session 600 ms — more than ttl/2 — after it was sent.
	beats := reg.Counter("sess.beats")
	seen := beats.Value()
	delay.Store(int64(600 * time.Millisecond))
	deadline := time.Now().Add(10 * time.Second)
	for beats.Value() == seen {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat completed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // the beat counter moves just before the beat is published
	if got := reg.Counter("sess.lease_lost").Value(); got != 0 {
		t.Fatalf("lease_lost = %d: the beat was not a renewal, nothing left to check", got)
	}

	if err := dev.FlushWriteBack(ctx); !errors.Is(err, cdd.ErrStaleLease) {
		t.Errorf("flush after a beat whose reply took > ttl/2: err = %v, want ErrStaleLease", err)
	}
	reads := node.Manager.Obs().Counter("mgr.read_ops")
	before := reads.Value()
	if err := dev.ReadBlocks(ctx, 1, buf); err != nil {
		t.Fatal(err)
	}
	if reads.Value() != before+1 {
		t.Error("read after a beat whose reply took > ttl/2 was served from the cache")
	}
}
