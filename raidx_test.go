package raidx

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/raid/raidtest"
	"repro/internal/repair"
)

// TestPublicAPILifecycle exercises the façade end to end: build, write,
// flush, verify, fail, degraded read, rebuild.
func TestPublicAPILifecycle(t *testing.T) {
	ctx := context.Background()
	devs := NewMemDevs(4, 256, 1024)
	arr, err := NewRAIDx(devs, 4, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32*arr.BlockSize())
	rand.New(rand.NewSource(1)).Read(data)
	if err := arr.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := arr.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	devs[1].(*Disk).Fail()
	got := make([]byte, len(data))
	if err := arr.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}
	if _, err := arr.SwapDev(1, NewMemDevs(1, 256, 1024)[0]); err != nil {
		t.Fatal(err)
	}
	if err := arr.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read with a blank replacement mismatch")
	}
	if err := arr.Rebuild(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := arr.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIBaselines builds every baseline through the façade.
func TestPublicAPIBaselines(t *testing.T) {
	builders := map[string]func([]Dev) (Array, error){
		"raid0":   NewRAID0,
		"raid5":   NewRAID5,
		"raid10":  NewRAID10,
		"chained": NewChained,
	}
	ctx := context.Background()
	for name, build := range builders {
		arr, err := build(NewMemDevs(4, 64, 512))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := make([]byte, 4*arr.BlockSize())
		rand.New(rand.NewSource(2)).Read(buf)
		if err := arr.WriteBlocks(ctx, 0, buf); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		got := make([]byte, len(buf))
		if err := arr.ReadBlocks(ctx, 0, got); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("%s round trip mismatch", name)
		}
	}
}

// TestPublicAPIFilesystem mounts an FS through the façade.
func TestPublicAPIFilesystem(t *testing.T) {
	ctx := context.Background()
	arr, err := NewRAIDx(NewMemDevs(4, 512, 1024), 4, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(ctx, arr, NewTableLocker(NewLockTable()), "t", FSOptions{MaxInodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(ctx, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ctx, "/a/b/x", []byte("façade")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(ctx, "/a/b/x")
	if err != nil || string(got) != "façade" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// TestPublicAPITCP covers the CDD path through the façade.
func TestPublicAPITCP(t *testing.T) {
	disks := []*Disk{NewMemDisk("d0", 512, 64)}
	node, err := ListenAndServe("127.0.0.1:0", disks)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c, err := Connect(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev := c.Dev(0)
	ctx := context.Background()
	data := bytes.Repeat([]byte{0x42}, 512)
	if err := dev.WriteBlocks(ctx, 3, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlocks(ctx, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP round trip mismatch")
	}
}

// TestPublicAPIAttach covers the one mount path through the façade:
// addresses in, an engine over every node's disks out.
func TestPublicAPIAttach(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		node, err := ListenAndServe("127.0.0.1:0", []*Disk{NewMemDisk("d", 512, 64)})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs[i] = node.Addr()
	}
	cl, err := Attach(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	err = cl.Run(ctx, Options{}, func(arr *RAIDx) error {
		data := bytes.Repeat([]byte{0x5A}, 8*512)
		if err := arr.WriteBlocks(ctx, 4, data); err != nil {
			return err
		}
		got := make([]byte, len(data))
		if err := arr.ReadBlocks(ctx, 4, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("attached array round trip mismatch")
		}
		return arr.Verify(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIOSMLayout sanity-checks the exported address arithmetic.
func TestPublicAPIOSMLayout(t *testing.T) {
	lay := NewOSM(4, 3, 12)
	if lay.TotalDisks() != 12 || lay.GroupSize() != 3 {
		t.Fatalf("geometry: %d disks, groups of %d", lay.TotalDisks(), lay.GroupSize())
	}
	for b := int64(0); b < lay.DataBlocks(); b++ {
		if lay.NodeOfDisk(lay.DataLoc(b).Disk) == lay.NodeOfDisk(lay.MirrorLoc(b).Disk) {
			t.Fatalf("block %d not orthogonal", b)
		}
	}
}

// TestPublicAPIFaultTolerance exercises the exported retry surface:
// ConnectWith through a fault-injecting dialer (internal/faultnet), call
// deadlines, and recovery after healing.
func TestPublicAPIFaultTolerance(t *testing.T) {
	disks := []*Disk{NewMemDisk("d0", 512, 64)}
	node, err := ListenAndServe("127.0.0.1:0", disks)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	fnet := faultnet.New(1)
	pol := DefaultRetryPolicy()
	pol.CallTimeout = 100 * time.Millisecond
	pol.BaseBackoff = time.Millisecond
	c, err := ConnectWith(context.Background(), node.Addr(), ConnectOptions{
		Retry:  pol,
		Dialer: fnet.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev := c.Dev(0)
	ctx := context.Background()
	data := bytes.Repeat([]byte{0x7a}, 512)
	if err := dev.WriteBlocks(ctx, 5, data); err != nil {
		t.Fatal(err)
	}
	fnet.Stall(node.Addr())
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := dev.ReadBlocks(short, 5, make([]byte, 512)); err == nil {
		t.Fatal("read through a stalled network succeeded")
	}
	fnet.HealAll()
	deadline := time.Now().Add(5 * time.Second)
	got := make([]byte, 512)
	for {
		if err := dev.ReadBlocks(ctx, 5, got); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("read never recovered after heal: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-heal read mismatch")
	}
}

// TestPublicAPIRepairAnyPolicy: the repair supervisor (internal/repair)
// and its hot-spare pool take any redundant engine the façade builds —
// here an rs(2,2) stripe with its intent log attached — and heal it.
func TestPublicAPIRepairAnyPolicy(t *testing.T) {
	ctx := context.Background()
	devs := NewMemDevs(4, 64, 512)
	arr, err := NewRS(devs, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	arr.Members().Attach(NewIntentLog(len(devs), 64, 0), reg, nil)
	sup := repair.New(arr, NewMemDevs(1, 64, 512), repair.Config{Poll: time.Millisecond, FailureBudget: 0, Obs: reg})
	if st := sup.Status(); len(st.Devices) != 4 || st.Spares != 1 {
		t.Fatalf("supervisor status %+v", st)
	}
	data := make([]byte, arr.Blocks()*int64(arr.BlockSize()))
	rand.New(rand.NewSource(3)).Read(data)
	if err := arr.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	sup.Start(ctx)
	defer sup.Stop()
	devs[2].(*Disk).Fail()
	raidtest.Eventually(t, "the supervisor to rebuild member 2 onto the spare", func() bool {
		st := sup.Status()
		return st.Spares == 0 && st.Devices[2].Rebuilds == 1 && st.Devices[2].State == repair.StateHealthy
	})
	if err := arr.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := arr.ReadBlocks(ctx, 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after failover: %v", err)
	}
	if g := reg.Snapshot().Gauges; g["rs(2,2).rebuild_total_blocks"] != 64 || g["rs(2,2).rebuild_done_blocks"] != 64 {
		t.Fatalf("rebuild gauges %v", g)
	}
}
