package cdd

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/race"
	"repro/internal/store"
)

func TestLockTableAtomicGrant(t *testing.T) {
	tb := NewTable()
	if !tb.TryAcquire("a", []Range{{0, 10}, {20, 30}}) {
		t.Fatal("first grant refused")
	}
	// Conflicting group: second range overlaps — nothing must change.
	if tb.TryAcquire("b", []Range{{50, 60}, {25, 26}}) {
		t.Fatal("conflicting group granted")
	}
	// The non-conflicting part must NOT have been kept.
	if !tb.TryAcquire("c", []Range{{50, 60}}) {
		t.Fatal("range leaked from failed atomic grant")
	}
}

func TestLockTableSameOwnerReentrant(t *testing.T) {
	tb := NewTable()
	if !tb.TryAcquire("a", []Range{{0, 10}}) {
		t.Fatal("grant refused")
	}
	if !tb.TryAcquire("a", []Range{{5, 15}}) {
		t.Fatal("same-owner overlap refused")
	}
	if tb.TryAcquire("b", []Range{{12, 13}}) {
		t.Fatal("conflict with extended range granted")
	}
}

func TestLockTableReleaseExact(t *testing.T) {
	tb := NewTable()
	tb.TryAcquire("a", []Range{{0, 10}, {20, 30}})
	tb.Release("a", []Range{{0, 10}})
	if tb.TryAcquire("b", []Range{{25, 26}}) {
		t.Fatal("still-held range granted to another owner")
	}
	if !tb.TryAcquire("b", []Range{{0, 10}}) {
		t.Fatal("released range not grantable")
	}
}

func TestLockTableReleaseAll(t *testing.T) {
	tb := NewTable()
	tb.TryAcquire("a", []Range{{0, 10}, {20, 30}})
	tb.ReleaseAll("a")
	if !tb.TryAcquire("b", []Range{{0, 30}}) {
		t.Fatal("ranges survived ReleaseAll")
	}
}

func TestLockTableSnapshotInstall(t *testing.T) {
	tb := NewTable()
	tb.TryAcquire("a", []Range{{0, 10}})
	tb.TryAcquire("b", []Range{{20, 30}})
	v, snap := tb.Version(), tb.Snapshot()

	replica := NewTable()
	replica.Install(v, snap)
	if replica.TryAcquire("c", []Range{{5, 6}}) {
		t.Fatal("replica granted a held range")
	}
	// Stale installs are ignored.
	replica.Install(v-1, nil)
	if replica.TryAcquire("c", []Range{{5, 6}}) {
		t.Fatal("stale install cleared the replica")
	}
}

// Property: mutual exclusion — after any sequence of try-acquires, no
// two distinct owners hold overlapping ranges.
func TestLockTableExclusionProperty(t *testing.T) {
	f := func(ops []struct {
		Owner   uint8
		Lo, Len uint8
		Release bool
	}) bool {
		tb := NewTable()
		for _, op := range ops {
			owner := string(rune('a' + op.Owner%4))
			r := Range{uint64(op.Lo), uint64(op.Lo) + uint64(op.Len%16) + 1}
			if op.Release {
				tb.Release(owner, []Range{r})
			} else {
				tb.TryAcquire(owner, []Range{r})
			}
		}
		recs := tb.Snapshot()
		for i, a := range recs {
			for _, ra := range a.Ranges {
				for j, b := range recs {
					if i == j {
						continue
					}
					for _, rb := range b.Ranges {
						if ra.overlaps(rb) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	i := infoResp{Disks: 3, BlockSize: 4096, Blocks: 1 << 20}
	got, err := decodeInfo(encodeInfo(i))
	if err != nil || got != i {
		t.Fatalf("info: got %+v err %v", got, err)
	}
	h := ioHeader{Disk: 7, Count: 42, Gen: 123456789}
	gh, data, err := decodeIOHeader(encodeIOHeader(h, []byte("payload")))
	if err != nil || gh != h || string(data) != "payload" {
		t.Fatalf("io header: got %+v %q err %v", gh, data, err)
	}
	m := lockMsg{Owner: "node3/client9", Ranges: []Range{{1, 2}, {100, 222}}}
	gm, err := decodeLockMsg(encodeLockMsg(m))
	if err != nil || gm.Owner != m.Owner || len(gm.Ranges) != 2 || gm.Ranges[1] != m.Ranges[1] {
		t.Fatalf("lock msg: got %+v err %v", gm, err)
	}
	recs := []Record{{Owner: "a", Ranges: []Range{{1, 5}}}, {Owner: "b", Ranges: nil}}
	v, gr, err := decodeSnapshot(encodeSnapshot(9, recs))
	if err != nil || v != 9 || len(gr) != 2 || gr[0].Owner != "a" {
		t.Fatalf("snapshot: got v=%d %+v err %v", v, gr, err)
	}
}

func TestProtocolRejectsTruncation(t *testing.T) {
	if _, err := decodeInfo([]byte{1, 2}); err == nil {
		t.Error("short info accepted")
	}
	if _, _, err := decodeIOHeader([]byte{1}); err == nil {
		t.Error("short io header accepted")
	}
	if _, err := decodeLockMsg([]byte{0, 0, 0, 9, 'a'}); err == nil {
		t.Error("truncated lock msg accepted")
	}
	if _, _, err := decodeSnapshot([]byte{1}); err == nil {
		t.Error("short snapshot accepted")
	}
}

// startNode launches a CDD node with k disks.
func startNode(t testing.TB, k int, blocks int64) *Node {
	t.Helper()
	disks := make([]*disk.Disk, k)
	for i := range disks {
		disks[i] = disk.New(nil, "d", store.NewMem(512, blocks), disk.DefaultModel())
	}
	n, err := ListenAndServe("127.0.0.1:0", disks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestRemoteDevRoundTrip(t *testing.T) {
	n := startNode(t, 2, 32)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumDisks() != 2 {
		t.Fatalf("NumDisks = %d, want 2", c.NumDisks())
	}
	dev := c.Dev(1)
	ctx := context.Background()
	data := make([]byte, 3*512)
	rand.New(rand.NewSource(1)).Read(data)
	if err := dev.WriteBlocks(ctx, 4, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := dev.ReadBlocks(ctx, 4, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote round trip mismatch")
	}
}

func TestRemoteDevBackgroundWriteThenFlush(t *testing.T) {
	n := startNode(t, 1, 16)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev := c.Dev(0)
	ctx := context.Background()
	data := bytes.Repeat([]byte{0xCD}, 512)
	if err := dev.WriteBlocksBackground(ctx, 2, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlocks(ctx, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("background write lost")
	}
}

func TestRemoteFailureInjection(t *testing.T) {
	n := startNode(t, 1, 16)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev := c.Dev(0)
	ctx := context.Background()
	if !dev.Healthy() {
		t.Fatal("fresh disk unhealthy")
	}
	if err := c.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	dev.InvalidateHealth()
	if dev.Healthy() {
		t.Fatal("failed disk reported healthy")
	}
	if err := dev.ReadBlocks(ctx, 0, make([]byte, 512)); err == nil {
		t.Fatal("read of failed remote disk succeeded")
	}
	if err := c.ReplaceDisk(0); err != nil {
		t.Fatal(err)
	}
	dev.InvalidateHealth()
	if !dev.Healthy() {
		t.Fatal("replaced disk reported unhealthy")
	}
}

func TestRemoteLockService(t *testing.T) {
	n := startNode(t, 1, 16)
	a, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ok, err := a.TryLock("clientA", []Range{{0, 100}})
	if err != nil || !ok {
		t.Fatalf("clientA lock: ok=%v err=%v", ok, err)
	}
	ok, err = b.TryLock("clientB", []Range{{50, 60}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("conflicting lock granted")
	}
	// Blocking acquire succeeds once A releases.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- b.Lock(ctx, "clientB", []Range{{50, 60}})
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Unlock(context.Background(), "clientA", []Range{{0, 100}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocking lock: %v", err)
	}
}

// TestAllocsLockWithoutPeers: a manager with no replica peer builds no
// lock-table snapshot, so what a lock + unlock pair allocates does not
// grow with the number of other grant holders.
func TestAllocsLockWithoutPeers(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	lock := encodeLockMsg(lockMsg{Owner: "w", Mode: Exclusive, Ranges: []Range{{0, 1}}})
	pair := func(holders int) float64 {
		m := NewManager(nil)
		for i := 0; i < holders; i++ {
			m.Locks().Acquire(fmt.Sprintf("h%d", i), Exclusive, []Range{{uint64(10 + 2*i), uint64(11 + 2*i)}})
		}
		return testing.AllocsPerRun(100, func() {
			if resp, err := m.Handle(ctx, OpLock, lock); err != nil || resp[0] != 1 {
				t.Fatalf("lock: %v, %v", resp, err)
			}
			if _, err := m.Handle(ctx, OpUnlock, lock); err != nil {
				t.Fatal(err)
			}
		})
	}
	alone, crowded := pair(0), pair(256)
	t.Logf("lock+unlock: %.1f allocs alone, %.1f beside 256 holders", alone, crowded)
	if crowded != alone {
		t.Errorf("lock+unlock allocates %.1f beside 256 holders, %.1f alone: want no dependence on the table", crowded, alone)
	}
}

func TestLockReplication(t *testing.T) {
	// Two nodes; node 0 is the lock coordinator, node 1 holds a replica.
	n0 := startNode(t, 1, 16)
	n1 := startNode(t, 1, 16)
	peer, err := Connect(n1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	n0.Manager.AddPeer(peer.Transport())

	c, err := Connect(n0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ok, err := c.TryLock("w1", []Range{{7, 9}}); err != nil || !ok {
		t.Fatalf("lock: ok=%v err=%v", ok, err)
	}
	// Replication is a notification; wait for it to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n1.Manager.Locks().Holds("w1", Range{7, 9}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lock record never replicated to peer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Release must replicate too.
	if err := c.UnlockAll("w1"); err != nil {
		t.Fatal(err)
	}
	for {
		if !n1.Manager.Locks().Holds("w1", Range{7, 9}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("release never replicated to peer")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRemoteStats(t *testing.T) {
	n := startNode(t, 1, 16)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev := c.Dev(0)
	ctx := context.Background()
	if err := dev.WriteBlocks(ctx, 0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlocks(ctx, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != 512 || st.BytesWritten != 1024 || !st.Healthy {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := c.Stats(9); err == nil {
		t.Fatal("stats for missing disk succeeded")
	}
}
