package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cdd"
	"repro/internal/disk"
	"repro/internal/qos"
	"repro/internal/store"
	"repro/internal/workload"
)

// runScale is the serving-at-scale story over real TCP: coherent
// client sessions (lock-group-guarded caching + group-commit
// write-back) driven by hundreds to thousands of concurrent clients
// against a loopback CDD node, plus the QoS demonstration that a
// background repair-class stream stays at its configured share while
// foreground traffic storms. Two tables:
//
//  1. client sweep — aggregate throughput, allocs/op, and per-tenant
//     fairness (Jain index) as the client count grows;
//  2. QoS — achieved background bandwidth under a foreground storm vs
//     the configured cap.
//
// (One client's cache-hit vs remote read is the benchmark ladder's
// ladder.cdd.session.hit_read_4k vs ladder.cdd.remotedev.read_4k.)
func runScale(args []string) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	clientsFlag := fs.String("clients", "100,500,1000,2000", "client counts to sweep")
	tenants := fs.Int("tenants", 4, "tenant identities the clients are spread over")
	bs := fs.Int("bs", 1024, "block size (bytes)")
	totalOps := fs.Int("totalops", 400000, "total workload ops per sweep point (split across clients, so every point measures the same work and spans several write-back flush cycles)")
	region := fs.Int64("region", 8, "private blocks each client locks exclusively")
	bgCap := fs.Int64("qos-bg-rate", 2<<20, "background QoS cap for the QoS table (bytes/sec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseInts(*clientsFlag)
	if err != nil {
		return err
	}

	if err := scaleClientSweep(counts, *tenants, *bs, *totalOps, *region); err != nil {
		return err
	}
	return scaleQoS(*bs, *bgCap)
}

// scaleNode starts one loopback node with a single disk and a short
// coherence lease.
func scaleNode(bs int, blocks int64) (*cdd.Node, error) {
	d := disk.New(nil, "scale-d0", store.NewMem(bs, blocks), disk.DefaultModel())
	node, err := cdd.ListenAndServe("127.0.0.1:0", []*disk.Disk{d})
	if err != nil {
		return nil, err
	}
	node.Manager.Locks().SetLease(2*time.Second, nil)
	return node, nil
}

// scaleClientSweep drives count concurrent coherent sessions per sweep
// point, each over its own TCP connection, and prints aggregate
// throughput plus the fairness of the per-tenant shares.
func scaleClientSweep(counts []int, tenants, bs, totalOps int, region int64) error {
	fmt.Printf("Client sweep (%d tenants, %d total ops/point, %d-block exclusive regions):\n", tenants, totalOps, region)
	fmt.Printf("%-10s %12s %12s %12s %10s\n", "clients", "MB/s", "ops/s", "allocs/op", "fairness")
	var prevMBps float64
	for idx, count := range counts {
		node, err := scaleNode(bs, int64(count)*region+64)
		if err != nil {
			return err
		}
		// A long lease keeps heartbeat chatter from thousands of sessions
		// well below the foreground op rate: a 1 s beat against a 10 s
		// lease stays comfortably inside the client's ttl/2 freshness rule.
		node.Manager.Locks().SetLease(10*time.Second, nil)
		// A generous per-attempt deadline: bringing up thousands of
		// connections on a small box makes individual setup RPCs stall
		// behind GC and the accept storm, and a spurious 2 s cutoff there
		// aborts the sweep without measuring anything.
		pol := cdd.DefaultRetryPolicy()
		pol.CallTimeout = 15 * time.Second
		clients := make([]*cdd.NodeClient, count)
		sessions := make([]*cdd.Session, count)
		for i := 0; i < count; i++ {
			c, err := cdd.ConnectWith(context.Background(), node.Addr(), cdd.Options{Retry: pol})
			if err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
			clients[i] = c
			sessions[i] = cdd.NewSession(c, fmt.Sprintf("scale-%d", i), cdd.SessionConfig{
				CacheBytes:   32 << 10,
				Beat:         time.Second,
				WriteBackAge: 250 * time.Millisecond,
			})
		}
		ctx := context.Background()

		runner := workload.Runner{
			Clients:    count,
			Tenants:    tenants,
			Cfg:        workload.Config{ReadFraction: 0.7, WorkingSetBlocks: region, HotSkew: 0.9, MaxOpBlocks: 1, Ops: opsFor(totalOps, count)},
			Seed:       42,
			BlockBytes: bs,
		}
		// Per-client op buffers and cached dev handles, allocated outside
		// the measured window so the sweep reports steady-state allocs.
		devs := make([]*cdd.CachedDev, count)
		bufs := make([][]byte, count)
		for i := range devs {
			devs[i] = sessions[i].Dev(0)
			bufs[i] = make([]byte, bs)
		}
		// Acquire each client's exclusive grant and warm its cache and
		// write-back structures, then flush, so each sweep point measures
		// steady-state serving. Without the warmup, points with fewer ops
		// per client spend a larger fraction of the window on first-touch
		// remote reads and the sweep conflates miss ratio with client
		// count. Setup runs concurrently with a retry: a single lock RPC
		// can exceed its call deadline when thousands of connections are
		// being brought up on a loaded box, and setup hiccups must not
		// abort the sweep.
		warmErr := make(chan error, count)
		for i := 0; i < count; i++ {
			go func(i int) {
				base := int64(i) * region
				var err error
				for attempt := 0; attempt < 3; attempt++ {
					if err = sessions[i].AcquireBlocks(ctx, cdd.Exclusive, 0, base, region); err == nil {
						break
					}
				}
				if err != nil {
					warmErr <- fmt.Errorf("client %d grant: %w", i, err)
					return
				}
				buf := make([]byte, int(region)*bs)
				if err := devs[i].ReadBlocks(ctx, base, buf); err != nil {
					warmErr <- fmt.Errorf("client %d warm read: %w", i, err)
					return
				}
				if err := devs[i].WriteBlocks(ctx, base, buf); err != nil {
					warmErr <- fmt.Errorf("client %d warm write: %w", i, err)
					return
				}
				warmErr <- sessions[i].Flush(ctx)
			}(i)
		}
		var warmFail error
		for i := 0; i < count; i++ {
			if err := <-warmErr; err != nil && warmFail == nil {
				warmFail = err
			}
		}
		if warmFail != nil {
			return warmFail
		}
		runtime.GC() // drain setup garbage before the measured run
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		res := runner.Run(ctx, func(ctx context.Context, client int, _ string, op workload.Op) error {
			base := int64(client) * region
			buf := bufs[client][:int(op.Blocks)*bs]
			if op.Read {
				return devs[client].ReadBlocks(ctx, base+op.Block, buf)
			}
			return devs[client].WriteBlocks(ctx, base+op.Block, buf)
		})
		runtime.ReadMemStats(&ms1)
		for _, s := range sessions {
			s.Close()
		}
		for _, c := range clients {
			c.Close()
		}
		node.Close()

		if res.Errs > 0 {
			return fmt.Errorf("clients=%d: %d workload errors", count, res.Errs)
		}
		allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
		shares := make([]float64, 0, len(res.Tenants))
		for _, ts := range res.Tenants {
			shares = append(shares, float64(ts.Bytes))
		}
		opsPerSec := float64(res.Ops) / res.Elapsed.Seconds()
		fmt.Printf("%-10d %12.2f %12.0f %12.1f %10.3f\n", count, res.MBps(), opsPerSec, allocsPerOp, workload.JainIndex(shares))
		if idx > 0 && res.MBps() < 0.5*prevMBps {
			fmt.Printf("  WARNING: throughput collapsed at %d clients (%.2f -> %.2f MB/s)\n",
				count, prevMBps, res.MBps())
		}
		prevMBps = res.MBps()
		// Drain the point's connections and caches from the heap so the
		// next point's setup does not fight the collector for the CPU.
		runtime.GC()
	}
	return nil
}

// scaleQoS storms the node with foreground readers while a background
// repair stream runs through the QoS pacer, and reports the background
// share against its cap.
func scaleQoS(bs int, bgCap int64) error {
	node, err := scaleNode(bs, 8192)
	if err != nil {
		return err
	}
	defer node.Close()
	sched := qos.New(qos.Config{BackgroundBytesPerSec: bgCap, BurstWindow: 20 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	const fgWorkers = 8
	type tally struct{ bytes int64 }
	fg := make([]tally, fgWorkers)
	var bg tally
	var streams sync.WaitGroup // the tallies are read once every stream has returned
	streams.Add(fgWorkers + 1)
	start := time.Now()
	// Foreground storm: unthrottled readers.
	for w := 0; w < fgWorkers; w++ {
		go func(w int) {
			defer streams.Done()
			c, err := cdd.Connect(node.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 16*bs)
			for ctx.Err() == nil {
				if c.Dev(0).ReadBlocks(ctx, int64(w)*64, buf) != nil {
					return
				}
				fg[w].bytes += int64(len(buf))
			}
		}(w)
	}
	// Background "repair" stream: bulk reads paced through the
	// scheduler — exactly what repair.Config.Pace does in raidxnode.
	go func() {
		defer streams.Done()
		c, err := cdd.Connect(node.Addr())
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64*bs)
		var blk int64
		for ctx.Err() == nil {
			if sched.Wait(ctx, len(buf)) != nil {
				return
			}
			if c.Dev(0).ReadBlocks(ctx, blk%4096, buf) != nil {
				return
			}
			bg.bytes += int64(len(buf))
			blk += 64
		}
	}()
	streams.Wait()
	elapsed := time.Since(start).Seconds()

	var fgBytes int64
	for w := range fg {
		fgBytes += fg[w].bytes
	}
	fgMBps := float64(fgBytes) / 1e6 / elapsed
	bgMBps := float64(bg.bytes) / 1e6 / elapsed
	capMBps := float64(bgCap) / 1e6
	fmt.Printf("\nQoS under foreground storm (%d workers, background cap %.2f MB/s):\n", fgWorkers, capMBps)
	fmt.Printf("  %-18s %10.2f MB/s\n", "foreground", fgMBps)
	fmt.Printf("  %-18s %10.2f MB/s (cap %.2f)\n", "background", bgMBps, capMBps)
	if bgMBps > 1.3*capMBps {
		fmt.Printf("  WARNING: background exceeded its cap (%.2f > %.2f MB/s)\n", bgMBps, capMBps)
	}
	return nil
}

// opsFor splits the per-point op budget across clients (at least one
// op each).
func opsFor(total, clients int) int {
	per := total / clients
	if per < 1 {
		per = 1
	}
	return per
}
