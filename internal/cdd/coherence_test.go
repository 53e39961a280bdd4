package cdd_test

// Coherence-protocol tests: lease-based auto-release, shared-grant
// revocation through the invalidation ring, and the coherent client
// session (cached reads, write-back group commit, flush on handoff)
// over real TCP.

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/store"
)

// fakeClock is an injectable table clock.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}
func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestLockModes(t *testing.T) {
	tb := cdd.NewTable()
	r := cdd.Range{Start: 0, End: 100}

	if !tb.Acquire("a", cdd.Shared, []cdd.Range{r}) {
		t.Fatal("first shared grant refused")
	}
	if !tb.Acquire("b", cdd.Shared, []cdd.Range{r}) {
		t.Fatal("overlapping shared grants must coexist")
	}
	if tb.Acquire("c", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("exclusive granted over live shared holders")
	}
	tb.Release("a", []cdd.Range{r})
	tb.Release("b", []cdd.Range{r})
	if !tb.Acquire("c", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("exclusive refused after shared holders released")
	}
	if tb.Acquire("a", cdd.Shared, []cdd.Range{r}) {
		t.Fatal("shared granted over a live exclusive holder")
	}
}

func TestLeaseExpiryAutoRelease(t *testing.T) {
	tb := cdd.NewTable()
	clk := newFakeClock()
	tb.SetLease(time.Second, clk.Now)
	r := cdd.Range{Start: 0, End: 10}

	if !tb.Acquire("dead", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("grant refused")
	}
	if tb.Acquire("live", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("conflicting grant granted while lease fresh")
	}
	// Heartbeats renew the lease.
	clk.Advance(600 * time.Millisecond)
	tb.Beat("dead", 0)
	clk.Advance(600 * time.Millisecond)
	if tb.Acquire("live", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("lease expired despite renewal heartbeat")
	}
	// No more heartbeats: the holder dies and its grant auto-releases.
	clk.Advance(1100 * time.Millisecond)
	if !tb.Acquire("live", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("dead holder's grant never auto-released")
	}
	if br := tb.Beat("dead", 0); br.Known {
		t.Fatal("expired owner still known to the table")
	}
	if _, _, expired := tb.Stats(); expired != 1 {
		t.Fatalf("expired count = %d, want 1", expired)
	}
}

func TestRevocationAckFlow(t *testing.T) {
	tb := cdd.NewTable()
	clk := newFakeClock()
	tb.SetLease(time.Minute, clk.Now)
	r := cdd.Range{Start: 0, End: 64}

	if !tb.Acquire("reader", cdd.Shared, []cdd.Range{r}) {
		t.Fatal("shared grant refused")
	}
	// The writer's first attempt fails but starts the revocation.
	if tb.Acquire("writer", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("exclusive granted before the reader acked")
	}
	// The fence keeps new readers out while the revocation drains.
	if tb.Acquire("late-reader", cdd.Shared, []cdd.Range{r}) {
		t.Fatal("new shared grant slipped past the fence")
	}
	// The reader's heartbeat sees the invalidation event...
	br := tb.Beat("reader", 0)
	if len(br.Events) != 1 || br.Events[0].Owner != "writer" {
		t.Fatalf("reader heartbeat events = %+v, want one from writer", br.Events)
	}
	// ...and its ack (next beat carries the cursor) releases the grant.
	br2 := tb.Beat("reader", br.Seq)
	if !br2.Released {
		t.Fatal("ack did not release the revoked shared grant")
	}
	if !tb.Acquire("writer", cdd.Exclusive, []cdd.Range{r}) {
		t.Fatal("exclusive still refused after the reader acked")
	}
}

func TestBeatResetWhenBehind(t *testing.T) {
	tb := cdd.NewTable()
	// Push far more invalidations than the ring holds.
	for i := 0; i < 2000; i++ {
		r := cdd.Range{Start: uint64(i) * 10, End: uint64(i)*10 + 10}
		if !tb.Acquire("w", cdd.Exclusive, []cdd.Range{r}) {
			t.Fatal("grant refused")
		}
		tb.Release("w", []cdd.Range{r})
	}
	br := tb.Beat("anyone", 1)
	if !br.Reset {
		t.Fatal("cursor far behind the ring must force a reset")
	}
	br = tb.Beat("anyone", br.Seq)
	if br.Reset || len(br.Events) != 0 {
		t.Fatalf("caught-up beat: reset=%v events=%d", br.Reset, len(br.Events))
	}
}

// coherenceNode starts one node with a single disk and a short server
// lease, and returns it with a connected client.
func coherenceNode(t *testing.T, blocks int64) (*cdd.Node, *cdd.NodeClient, *obs.Registry) {
	t.Helper()
	d := disk.New(nil, "cohd0", store.NewMem(4096, blocks), disk.DefaultModel())
	node, err := cdd.ListenAndServe("127.0.0.1:0", []*disk.Disk{d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	node.Manager.Locks().SetLease(time.Second, nil)
	reg := obs.NewRegistry()
	c, err := cdd.ConnectWith(context.Background(), node.Addr(), cdd.Options{Retry: fastPolicy(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return node, c, reg
}

func TestSessionCachedReads(t *testing.T) {
	node, c, reg := coherenceNode(t, 256)
	s := cdd.NewSession(c, "s1", cdd.SessionConfig{Obs: reg})
	defer s.Close()
	ctx := context.Background()

	if err := s.AcquireBlocks(ctx, cdd.Shared, 0, 0, 64); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	bs := dev.BlockSize()
	buf := make([]byte, 4*bs)

	if err := dev.ReadBlocks(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	remoteReads := node.Manager.Obs().Counter("mgr.read_ops").Value()
	for i := 0; i < 10; i++ {
		if err := dev.ReadBlocks(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if after := node.Manager.Obs().Counter("mgr.read_ops").Value(); after != remoteReads {
		t.Fatalf("cache-hit reads went remote: %d -> %d server read ops", remoteReads, after)
	}
	if hits := reg.Counter("sess.cache_hits").Value(); hits < 40 {
		t.Fatalf("cache hits = %d, want >= 40", hits)
	}

	// A write under the shared grant passes through; the cached copy of
	// its block must not be served after it.
	if err := dev.WriteBlocks(ctx, 1, bytes.Repeat([]byte{0x22}, bs)); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlocks(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	if got := buf[bs]; got != 0x22 {
		t.Fatalf("read %#x after writing 0x22", got)
	}

	// Uncovered blocks must not be cached.
	far := make([]byte, bs)
	if err := dev.ReadBlocks(ctx, 200, far); err != nil {
		t.Fatal(err)
	}
	before := node.Manager.Obs().Counter("mgr.read_ops").Value()
	if err := dev.ReadBlocks(ctx, 200, far); err != nil {
		t.Fatal(err)
	}
	if after := node.Manager.Obs().Counter("mgr.read_ops").Value(); after == before {
		t.Fatal("read outside any grant was served from cache")
	}
}

func TestSessionWriteBackGroupCommit(t *testing.T) {
	node, c, reg := coherenceNode(t, 256)
	s := cdd.NewSession(c, "wb1", cdd.SessionConfig{
		Obs: reg,
		// Large bounds so nothing flushes until we say so.
		WriteBackBytes: 64 << 20,
		WriteBackAge:   time.Hour,
	})
	defer s.Close()
	ctx := context.Background()

	if err := s.AcquireBlocks(ctx, cdd.Exclusive, 0, 0, 64); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	bs := dev.BlockSize()

	writesBefore := node.Manager.Obs().Counter("mgr.write_ops").Value()
	one := make([]byte, bs)
	for i := int64(0); i < 16; i++ {
		for j := range one {
			one[j] = byte(i)
		}
		if err := dev.WriteBlocks(ctx, i, one); err != nil {
			t.Fatal(err)
		}
	}
	if after := node.Manager.Obs().Counter("mgr.write_ops").Value(); after != writesBefore {
		t.Fatalf("write-back leaked %d remote writes before flush", after-writesBefore)
	}
	if got := dev.DirtyBlocks(); got != 16 {
		t.Fatalf("dirty blocks = %d, want 16", got)
	}
	// Read-your-writes straight from the write-back buffer.
	rbuf := make([]byte, bs)
	if err := dev.ReadBlocks(ctx, 5, rbuf); err != nil {
		t.Fatal(err)
	}
	if rbuf[0] != 5 {
		t.Fatalf("dirty read = %d, want 5", rbuf[0])
	}

	// The group commit coalesces 16 adjacent dirty blocks into ONE
	// vectored write.
	if err := dev.FlushWriteBack(ctx); err != nil {
		t.Fatal(err)
	}
	if after := node.Manager.Obs().Counter("mgr.write_ops").Value(); after != writesBefore+1 {
		t.Fatalf("group commit issued %d remote writes, want 1", after-writesBefore)
	}
	if got := reg.Counter("sess.wb_blocks").Value(); got != 16 {
		t.Fatalf("wb_blocks = %d, want 16", got)
	}

	// The committed data is on the server.
	direct := make([]byte, bs)
	if err := c.Dev(0).ReadBlocks(ctx, 5, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, rbuf) {
		t.Fatal("flushed block differs from the write-back copy")
	}
}

func TestSessionFlushOnRelease(t *testing.T) {
	node, c, reg := coherenceNode(t, 128)
	s := cdd.NewSession(c, "rel1", cdd.SessionConfig{Obs: reg, WriteBackBytes: 64 << 20, WriteBackAge: time.Hour})
	defer s.Close()
	ctx := context.Background()

	if err := s.AcquireBlocks(ctx, cdd.Exclusive, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	bs := dev.BlockSize()
	data := bytes.Repeat([]byte{0xAB}, bs)
	if err := dev.WriteBlocks(ctx, 3, data); err != nil {
		t.Fatal(err)
	}
	if dev.DirtyBlocks() != 1 {
		t.Fatal("write did not land in the write-back buffer")
	}
	// Lock handoff: release must flush before the grant drops.
	if err := s.ReleaseBlocks(ctx, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	if dev.DirtyBlocks() != 0 {
		t.Fatal("release left dirty blocks behind")
	}
	got := make([]byte, bs)
	if err := c.Dev(0).ReadBlocks(ctx, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("handoff flush lost the dirty block")
	}
	_ = node
}

// TestSessionInvalidation checks a writer's exclusive acquisition
// invalidates a reader's cache through the heartbeat channel: the
// reader never serves the stale block once its shared grant is revoked.
func TestSessionInvalidation(t *testing.T) {
	node, c, reg := coherenceNode(t, 128)
	_ = node
	s1 := cdd.NewSession(c, "reader", cdd.SessionConfig{Obs: reg, Beat: 10 * time.Millisecond})
	defer s1.Close()
	reg2 := obs.NewRegistry()
	c2, err := cdd.ConnectWith(context.Background(), node.Addr(), cdd.Options{Retry: fastPolicy(), Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2 := cdd.NewSession(c2, "writer", cdd.SessionConfig{Obs: reg2, Beat: 10 * time.Millisecond})
	defer s2.Close()
	ctx := context.Background()

	// Reader caches block 7 under a shared grant.
	if err := s1.AcquireBlocks(ctx, cdd.Shared, 0, 0, 16); err != nil {
		t.Fatal(err)
	}
	rdev := s1.Dev(0)
	bs := rdev.BlockSize()
	buf := make([]byte, bs)
	if err := rdev.ReadBlocks(ctx, 7, buf); err != nil {
		t.Fatal(err)
	}
	if s1.Cache().Len() == 0 {
		t.Fatal("read under a shared grant was not cached")
	}

	// Writer takes the range exclusively (revocation drains through the
	// reader's heartbeat) and commits new bytes.
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s2.AcquireBlocks(wctx, cdd.Exclusive, 0, 0, 16); err != nil {
		t.Fatalf("writer never got the grant (revocation stuck): %v", err)
	}
	wdev := s2.Dev(0)
	fresh := bytes.Repeat([]byte{0x5A}, bs)
	if err := wdev.WriteBlocks(ctx, 7, fresh); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// The reader's shared grant is gone, so its next read goes remote
	// and sees the new bytes — never the stale cached copy.
	got := make([]byte, bs)
	if err := rdev.ReadBlocks(ctx, 7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("stale read after invalidation: got %x, want %x", got[0], fresh[0])
	}
}

// TestWriteBackHeldOnStaleLease pins the flush guard: once the lease
// safety window closes, dirty write-back blocks are HELD, not
// committed — a partitioned client healing after its ranges were
// re-granted must not clobber the new owner's writes — while the
// client's own dirty reads still serve (read-your-writes survives
// heartbeat loss).
func TestWriteBackHeldOnStaleLease(t *testing.T) {
	node, c, reg := coherenceNode(t, 128) // 1 s server lease
	s := cdd.NewSession(c, "stale1", cdd.SessionConfig{
		Obs:            reg,
		Beat:           time.Hour, // after the initial beat, no renewals
		WriteBackBytes: 64 << 20,
		WriteBackAge:   time.Hour,
	})
	defer s.Close()
	ctx := context.Background()
	t0 := time.Now()

	if err := s.AcquireBlocks(ctx, cdd.Exclusive, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	bs := dev.BlockSize()
	dirty := bytes.Repeat([]byte{0xEE}, bs)
	if err := dev.WriteBlocks(ctx, 3, dirty); err != nil {
		t.Fatal(err)
	}
	if dev.DirtyBlocks() != 1 {
		t.Fatal("write did not land in the write-back buffer")
	}

	// Let the lease safety window (TTL/2 = 500 ms) close with no beats.
	time.Sleep(time.Until(t0.Add(700 * time.Millisecond)))

	if err := dev.FlushWriteBack(ctx); !errors.Is(err, cdd.ErrStaleLease) {
		t.Fatalf("stale-lease flush: err = %v, want ErrStaleLease", err)
	}
	if dev.DirtyBlocks() != 1 {
		t.Fatal("stale-lease flush did not hold the dirty block")
	}
	got := make([]byte, bs)
	if err := dev.ReadBlocks(ctx, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dirty) {
		t.Fatal("dirty read lost the buffered write during heartbeat loss")
	}

	// The server lease lapses; a new owner takes the range and commits.
	c2, err := cdd.ConnectWith(ctx, node.Addr(), cdd.Options{Retry: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	lctx, lcancel := context.WithTimeout(ctx, 5*time.Second)
	defer lcancel()
	if err := c2.LockMode(lctx, "usurper", cdd.Exclusive, []cdd.Range{cdd.BlockLockRange(0, 0, 8)}); err != nil {
		t.Fatalf("usurper never acquired after lease expiry: %v", err)
	}
	theirs := bytes.Repeat([]byte{0x44}, bs)
	if err := c2.Dev(0).WriteBlocks(ctx, 3, theirs); err != nil {
		t.Fatal(err)
	}

	// The stale holder's flush must still refuse: healing the partition
	// must not replay stale dirty blocks over the new owner's data.
	if err := s.Flush(ctx); !errors.Is(err, cdd.ErrStaleLease) {
		t.Fatalf("post-usurp flush: err = %v, want ErrStaleLease", err)
	}
	after := make([]byte, bs)
	if err := c2.Dev(0).ReadBlocks(ctx, 3, after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, theirs) {
		t.Fatal("stale write-back clobbered the new owner's committed data")
	}
}

// TestWriteBackRecoversAfterRenewal pins the beat-then-flush ordering
// in the heartbeat loop: a dirty batch held through a stale window is
// committed by the loop as soon as a heartbeat renews the lease —
// never before.
func TestWriteBackRecoversAfterRenewal(t *testing.T) {
	node, c, reg := coherenceNode(t, 128)
	node.Manager.Locks().SetLease(2*time.Second, nil)
	s := cdd.NewSession(c, "renew1", cdd.SessionConfig{
		Obs:            reg,
		Beat:           1400 * time.Millisecond,
		WriteBackBytes: 64 << 20,
		WriteBackAge:   time.Millisecond,
	})
	defer s.Close()
	ctx := context.Background()
	t0 := time.Now()

	if err := s.AcquireBlocks(ctx, cdd.Exclusive, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	bs := dev.BlockSize()
	data := bytes.Repeat([]byte{0x77}, bs)
	if err := dev.WriteBlocks(ctx, 2, data); err != nil {
		t.Fatal(err)
	}

	// Stale window: [TTL/2, Beat) = [1.0 s, 1.4 s) after the initial
	// beat. Probe in the middle — the flush must hold.
	time.Sleep(time.Until(t0.Add(1200 * time.Millisecond)))
	if err := dev.FlushWriteBack(ctx); !errors.Is(err, cdd.ErrStaleLease) {
		t.Fatalf("mid-window flush: err = %v, want ErrStaleLease", err)
	}
	// A write in the window passes through: the held copy of its block
	// must neither shadow it now nor replay over it after renewal.
	data = bytes.Repeat([]byte{0x22}, bs)
	if err := dev.WriteBlocks(ctx, 2, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, bs)
	if err := dev.ReadBlocks(ctx, 2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x22 {
		t.Fatalf("read %#x after writing 0x22", got[0])
	}

	// The next beat (1.4 s, inside the server's 2 s lease) renews, and
	// the loop's aged-flush pass commits the held batch.
	deadline := time.Now().Add(5 * time.Second)
	for dev.DirtyBlocks() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if dev.DirtyBlocks() != 0 {
		t.Fatal("held batch never flushed after lease renewal")
	}
	if err := c.Dev(0).ReadBlocks(ctx, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("block holds %#x after the acknowledged write of 0x22", got[0])
	}
	_ = node
}

// TestCoherenceGrantAutoRelease kills a grant holder (no release, no
// further heartbeats) and asserts a peer eventually acquires the range
// once the dead holder's lease lapses.
func TestCoherenceGrantAutoRelease(t *testing.T) {
	node, c, _ := coherenceNode(t, 128)
	node.Manager.Locks().SetLease(300*time.Millisecond, nil)
	ctx := context.Background()

	// The doomed holder takes the grant with a raw lock call and then
	// "crashes": no session, no heartbeats, no release.
	ok, err := c.TryLockMode(ctx, "doomed", cdd.Exclusive, []cdd.Range{cdd.BlockLockRange(0, 0, 32)})
	if err != nil || !ok {
		t.Fatalf("doomed grant: ok=%v err=%v", ok, err)
	}

	c2, err := cdd.ConnectWith(ctx, node.Addr(), cdd.Options{Retry: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	start := time.Now()
	lctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := c2.LockMode(lctx, "survivor", cdd.Exclusive, []cdd.Range{cdd.BlockLockRange(0, 0, 32)}); err != nil {
		t.Fatalf("survivor never acquired the dead holder's range: %v", err)
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Fatalf("grant handed over in %v — before the lease could have lapsed", waited)
	}
	if _, _, expired := node.Manager.Locks().Stats(); expired == 0 {
		t.Fatal("table never recorded the lease auto-release")
	}
}
