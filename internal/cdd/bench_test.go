package cdd_test

// End-to-end hot-path benchmarks: a RAID-x engine over real TCP
// connections to CDD nodes on loopback. These are the numbers
// BENCH_*.json tracks across PRs — allocs/op here is the whole
// core → cdd → transport → manager pipeline, client and server side
// (the benchmark process hosts both).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
)

// benchCluster assembles a RAID-x array over `nodes` loopback CDD
// nodes with one disk each (bs-byte blocks), returning the array and
// the remote devices.
func benchCluster(tb testing.TB, nodes int, numBlocks int64, bs int) (*core.RAIDx, []raid.Dev) {
	tb.Helper()
	var devs []raid.Dev
	for i := 0; i < nodes; i++ {
		d := disk.New(nil, fmt.Sprintf("n%d.d0", i), store.NewMem(bs, numBlocks), disk.DefaultModel())
		n, err := cdd.ListenAndServe("127.0.0.1:0", []*disk.Disk{d})
		if err != nil {
			tb.Fatal(err)
		}
		c, err := cdd.Connect(n.Addr())
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			c.Close()
			n.Close()
		})
		devs = append(devs, c.Devs()...)
	}
	if nodes < 2 {
		return nil, devs // too narrow for OSM mirror groups; RemoteDev-only benches
	}
	a, err := core.New(devs, nodes, 1, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return a, devs
}

// BenchmarkRemoteWrite64K is the headline hot path: one 64 KiB striped
// write through the full remote stack (foreground data columns plus
// deferred mirror-group pushes).
func BenchmarkRemoteWrite64K(b *testing.B) {
	a, _ := benchCluster(b, 4, 4096, 16<<10)
	ctx := context.Background()
	buf := make([]byte, 64<<10)
	blocks := int64(len(buf) / a.BlockSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteBlocks(ctx, (int64(i)*blocks)%(a.Blocks()-blocks), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkRemoteRead64K is the matching striped read.
func BenchmarkRemoteRead64K(b *testing.B) {
	a, _ := benchCluster(b, 4, 4096, 16<<10)
	ctx := context.Background()
	buf := make([]byte, 64<<10)
	if err := a.WriteBlocks(ctx, 0, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ReadBlocks(ctx, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkRemoteDevWrite64K isolates one RemoteDev (cdd → transport →
// manager, no engine): a single contiguous 64 KiB write.
func BenchmarkRemoteDevWrite64K(b *testing.B) {
	_, devs := benchCluster(b, 1, 4096, 16<<10)
	ctx := context.Background()
	buf := make([]byte, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := devs[0].WriteBlocks(ctx, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkRemoteDevRead64K: a single contiguous 64 KiB remote read.
func BenchmarkRemoteDevRead64K(b *testing.B) {
	_, devs := benchCluster(b, 1, 4096, 16<<10)
	ctx := context.Background()
	buf := make([]byte, 64<<10)
	if err := devs[0].WriteBlocks(ctx, 0, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := devs[0].ReadBlocks(ctx, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkRemoteWriteSmall is the paper's small-write case through the
// remote stack: one 4 KiB block, foreground data + deferred image.
func BenchmarkRemoteWriteSmall(b *testing.B) {
	a, _ := benchCluster(b, 4, 4096, 16<<10)
	ctx := context.Background()
	buf := make([]byte, a.BlockSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteBlocks(ctx, int64(i)%a.Blocks(), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
