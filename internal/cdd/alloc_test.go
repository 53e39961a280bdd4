package cdd_test

import (
	"context"
	"testing"

	"repro/internal/cdd"
	"repro/internal/race"
	"repro/internal/raid"
)

// allocLimit runs f and fails if it averages more than limit heap
// allocations per run. The counter is process-wide — the loopback
// cluster's server goroutines count too, so these limits pin the entire
// client + server pipeline of a remote operation.
func allocLimit(t *testing.T, limit float64, f func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	got := testing.AllocsPerRun(100, f)
	t.Logf("%.1f allocs/op (limit %.0f)", got, limit)
	if got > limit {
		t.Errorf("%.1f allocs/op, want <= %.0f", got, limit)
	}
}

// remoteWriteAllocs is the remote write's limit, named because the
// write-back pins below are stated in it: a whole flush must cost no
// more than the one remote write it makes.
const remoteWriteAllocs = 6

// remoteSizes are the benchmark's request sizes — mirror_small's and
// session_cache's 4 KiB op and mirror_large's 64 KiB one — on its 4 KiB
// blocks.
var remoteSizes = []struct {
	name string
	n    int
}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}}

// TestAllocsRemoteDevWrite pins the single-device remote write path:
// cdd client → transport → manager → disk for one transfer.
func TestAllocsRemoteDevWrite(t *testing.T) {
	_, devs := benchCluster(t, 1, 4096, 4<<10)
	ctx := context.Background()
	for _, sz := range remoteSizes {
		t.Run(sz.name, func(t *testing.T) {
			buf := make([]byte, sz.n)
			allocLimit(t, remoteWriteAllocs, func() {
				if err := devs[0].WriteBlocks(ctx, 0, buf); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// raidxWriteAllocs bounds a 64 KiB RAID-x write over four loopback
// nodes, both sides: measured 20, and 26 while each member's deferred
// images left as branches of their own, ten branches per write.
const raidxWriteAllocs = 23

// TestAllocsRaidxRemoteWrite pins the grouped RAID-x write: a 64 KiB
// write over four loopback nodes costs no more than when its images left
// apart, and one member's grouped call — its 16 KiB run and two images
// behind it — no more than a plain remote write.
func TestAllocsRaidxRemoteWrite(t *testing.T) {
	a, devs := benchCluster(t, 4, 4096, 4<<10)
	ctx := context.Background()
	buf := make([]byte, 64<<10)
	b := int64(0)
	allocLimit(t, raidxWriteAllocs, func() {
		if err := a.WriteBlocks(ctx, b, buf); err != nil {
			t.Fatal(err)
		}
		b = (b + 16) % (a.Blocks() - 16)
	})
	segs := [][]byte{buf[:16<<10]}
	bg := []raid.Run{{Phys: 2048, Data: buf[16<<10 : 28<<10]}, {Phys: 2051, Data: buf[28<<10 : 32<<10]}}
	g := devs[0].(raid.GroupDev)
	allocLimit(t, remoteWriteAllocs, func() {
		if err := g.WriteBlocksWith(ctx, 0, segs, bg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsRemoteDevRead pins the single-device remote read path: the
// response must land in buf (scatter), not in a fresh allocation.
func TestAllocsRemoteDevRead(t *testing.T) {
	_, devs := benchCluster(t, 1, 4096, 4<<10)
	ctx := context.Background()
	for _, sz := range remoteSizes {
		t.Run(sz.name, func(t *testing.T) {
			buf := make([]byte, sz.n)
			if err := devs[0].WriteBlocks(ctx, 0, buf); err != nil {
				t.Fatal(err)
			}
			allocLimit(t, 6, func() {
				if err := devs[0].ReadBlocks(ctx, 0, buf); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestAllocsCachedRead pins the coherent cache-hit read path: a block
// under a live shared grant must be served with ZERO remote calls and
// at most 2 heap allocations per read (the context timer machinery of
// the caller is not involved — this is mutex + sketch count + map
// lookup + copy).
func TestAllocsCachedRead(t *testing.T) {
	node, c, reg := coherenceNode(t, 256)
	s := cdd.NewSession(c, "alloc-cache", cdd.SessionConfig{Obs: reg})
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()

	if err := s.AcquireBlocks(ctx, cdd.Shared, 0, 0, 16); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlocks(ctx, 0, buf); err != nil {
		t.Fatal(err) // populate the cache
	}
	remoteBefore := node.Manager.Obs().Counter("mgr.read_ops").Value()
	allocLimit(t, 2, func() {
		if err := dev.ReadBlocks(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	// Eleven capacities of lookups per run (the default cache holds 1,024
	// blocks): every run crosses a halving sweep of the admission sketch,
	// and the whole run still stays inside one hit's limit.
	allocLimit(t, 2, func() {
		for i := 0; i < 11*1024; i++ {
			if err := dev.ReadBlocks(ctx, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if remoteAfter := node.Manager.Obs().Counter("mgr.read_ops").Value(); remoteAfter != remoteBefore {
		t.Fatalf("cache-hit reads made %d remote calls, want 0", remoteAfter-remoteBefore)
	}
}

// fullCacheSession opens a default-sized session (4 MiB cache, 256 KiB
// write-back) over a region four times its cache and writes the lower
// half through it, so the cache is full and every insert evicts (and
// the node's memory store has materialised the blocks the write pin
// rewrites).
func fullCacheSession(t *testing.T) *cdd.CachedDev {
	t.Helper()
	const region = 4096
	_, c, reg := coherenceNode(t, region)
	s := cdd.NewSession(c, "alloc-full", cdd.SessionConfig{Obs: reg})
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	if err := s.AcquireBlocks(ctx, cdd.Exclusive, 0, 0, region); err != nil {
		t.Fatal(err)
	}
	dev := s.Dev(0)
	buf := make([]byte, 64*dev.BlockSize())
	for b := int64(0); b < region/2; b += 64 {
		if err := dev.WriteBlocks(ctx, b, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Cache().Bytes(); got != 4<<20 {
		t.Fatalf("cache holds %d bytes, want it full (4 MiB)", got)
	}
	return dev
}

// TestAllocsCachedWrite pins the write-back path over a full cache, one
// 256 KiB batch per run: 64 absorbs that allocate nothing and the inline
// group commit the 64th trips — one remote write, 64 blocks moved into
// the cache on the entries they evict — for the price of that one remote
// write, under 0.1 allocations per write. (A whole batch per run, so the
// warm-up run refills the pools AllocsPerRun's GOMAXPROCS change empties.)
func TestAllocsCachedWrite(t *testing.T) {
	dev := fullCacheSession(t)
	ctx := context.Background()
	buf := make([]byte, dev.BlockSize())
	next := int64(0)
	allocLimit(t, remoteWriteAllocs, func() {
		for i := 0; i < 64; i++ {
			if err := dev.WriteBlocks(ctx, next, buf); err != nil {
				t.Fatal(err)
			}
			next = (next + 1) % 2048
		}
		if dev.DirtyBlocks() != 0 {
			t.Fatal("the 64th write did not flush inline")
		}
	})
}

// TestAllocsCachedMiss pins a miss over a full cache: the remote read
// (3 of its limit of 6 today) plus the admission check, which either
// recycles the entry and slot it evicts or drops the copy — at most
// one more than the read costs, where an entry and a list element per
// admission made it 5.
func TestAllocsCachedMiss(t *testing.T) {
	dev := fullCacheSession(t)
	ctx := context.Background()
	buf := make([]byte, dev.BlockSize())
	next := int64(2048) // the half the fill did not read
	allocLimit(t, 4, func() {
		if err := dev.ReadBlocks(ctx, next, buf); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestAllocsGroupCommit pins a steady-state scattered flush — 64 dirty
// blocks, no two adjacent, absorbed and committed — at the cost of the
// ONE remote write it makes: table and gather list come from pooled
// scratch, and the committed blocks re-enter the cache on their entries.
func TestAllocsGroupCommit(t *testing.T) {
	_, c, reg := coherenceNode(t, 512)
	dev := heldSession(t, c, reg, "alloc-gc", 512)
	ctx := context.Background()
	buf := make([]byte, dev.BlockSize())
	allocLimit(t, remoteWriteAllocs, func() {
		for i := int64(0); i < 64; i++ {
			if err := dev.WriteBlocks(ctx, i*7, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.FlushWriteBack(ctx); err != nil {
			t.Fatal(err)
		}
	})
}
