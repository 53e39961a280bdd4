package cdd_test

// End-to-end: a RAID-x array assembled over real TCP connections to
// four CDD nodes — the serverless distributed disk array of the paper,
// running on loopback.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
)

// cluster spins up n CDD nodes with k disks each and connects a client
// to every node, returning the global dev list in SIOS order (disk j on
// node j mod n).
func cluster(t *testing.T, n, k int, blocks int64) ([]raid.Dev, []*cdd.NodeClient) {
	t.Helper()
	nodes := make([]*cdd.Node, n)
	clients := make([]*cdd.NodeClient, n)
	for i := 0; i < n; i++ {
		disks := make([]*disk.Disk, k)
		for j := range disks {
			disks[j] = disk.New(nil, fmt.Sprintf("n%dd%d", i, j), store.NewMem(1024, blocks), disk.DefaultModel())
		}
		node, err := cdd.ListenAndServe("127.0.0.1:0", disks)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
		c, err := cdd.Connect(node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
	}
	devs := make([]raid.Dev, n*k)
	for local := 0; local < k; local++ {
		for node := 0; node < n; node++ {
			devs[node+local*n] = clients[node].Dev(local)
		}
	}
	return devs, clients
}

func TestRAIDxOverTCP(t *testing.T) {
	devs, _ := cluster(t, 4, 1, 64)
	a, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(11)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP round trip mismatch")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify over TCP: %v", err)
	}
}

// TestRAIDxOverTCPBeyondOneFrame: a 72 MiB write hands each of the four
// members an 18 MiB data run, more than one frame carries. It lands, it
// reads back, and no member is marked suspect on the way.
func TestRAIDxOverTCPBeyondOneFrame(t *testing.T) {
	const mib = 1 << 20
	devs, _ := cluster(t, 4, 1, 37*1024)
	a, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, 72*mib)
	rand.New(rand.NewSource(72)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("72 MiB TCP round trip mismatch")
	}
	for i, d := range devs {
		if !d.Healthy() {
			t.Errorf("member %d marked unhealthy by a large transfer", i)
		}
	}
}

func TestRAIDxOverTCPDegradedAndRebuild(t *testing.T) {
	devs, clients := cluster(t, 4, 1, 64)
	a, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(12)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill node 2's disk over the wire.
	if err := clients[2].FailDisk(0); err != nil {
		t.Fatal(err)
	}
	devs[2].(*cdd.RemoteDev).InvalidateHealth()

	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("degraded read over TCP: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong data")
	}

	// Degraded write, then replace + rebuild + verify.
	upd := make([]byte, 8*a.BlockSize())
	rand.New(rand.NewSource(13)).Read(upd)
	if err := a.WriteBlocks(ctx, 5, upd); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	copy(data[5*a.BlockSize():], upd)
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	if err := clients[2].ReplaceDisk(0); err != nil {
		t.Fatal(err)
	}
	devs[2].(*cdd.RemoteDev).InvalidateHealth()
	if err := a.Rebuild(ctx, 2); err != nil {
		t.Fatalf("rebuild over TCP: %v", err)
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data wrong after rebuild")
	}
}

func TestRAID5OverTCP(t *testing.T) {
	devs, _ := cluster(t, 4, 1, 32)
	a, err := raid.NewRAID5(devs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(14)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("RAID-5 TCP round trip mismatch")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestMixedLocalAndRemoteDevs(t *testing.T) {
	// Two disks local to the "client", two reached over TCP — the SIOS
	// makes them indistinguishable to the engine.
	remote, _ := cluster(t, 2, 1, 32)
	local := []raid.Dev{
		disk.New(nil, "l0", store.NewMem(1024, 32), disk.DefaultModel()),
		disk.New(nil, "l1", store.NewMem(1024, 32), disk.DefaultModel()),
	}
	devs := []raid.Dev{local[0], remote[0], local[1], remote[1]}
	a, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, int(a.Blocks())*a.BlockSize())
	rand.New(rand.NewSource(15)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mixed local/remote round trip mismatch")
	}
}

// TestConcurrentClientsStress: many goroutines hammer a RAID-x over TCP
// through separate per-node connections, with disjoint regions, then
// the content is audited.
func TestConcurrentClientsStress(t *testing.T) {
	devs, _ := cluster(t, 4, 1, 256)
	const workers = 8
	const blocksEach = 16

	// Each worker gets its own array instance (engines are not built
	// for concurrent use of the flip counter beyond atomics, but the
	// devices and stores are concurrency-safe).
	arrays := make([]*core.RAIDx, workers)
	for w := range arrays {
		a, err := core.New(devs, 4, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		arrays[w] = a
	}
	bs := arrays[0].BlockSize()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			base := int64(w * blocksEach)
			buf := make([]byte, blocksEach*bs)
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 5; round++ {
				rng.Read(buf)
				if err := arrays[w].WriteBlocks(ctx, base, buf); err != nil {
					errs[w] = err
					return
				}
				got := make([]byte, len(buf))
				if err := arrays[w].ReadBlocks(ctx, base, got); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(got, buf) {
					errs[w] = fmt.Errorf("worker %d round %d: data mismatch", w, round)
					return
				}
			}
			errs[w] = arrays[w].Flush(ctx)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := arrays[0].Verify(context.Background()); err != nil {
		t.Fatalf("verify after stress: %v", err)
	}
}
