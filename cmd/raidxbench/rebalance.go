package main

// The online-membership benchmark: grow an array under a foreground
// write load and report the rebalance copy bandwidth, the foreground
// bandwidth it leaves standing, and the movement overhead against the
// theoretical k/(N+k) minimum. Real disks over the in-process engine —
// no network — so the numbers isolate the migration machinery itself.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
)

func runRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "base node count")
	add := fs.Int("add", 8, "nodes the grow attaches")
	blocks := fs.Int64("blocks", 4096, "blocks per disk")
	bs := fs.Int("bs", 1024, "block size (bytes)")
	writers := fs.Int("writers", 4, "concurrent foreground writers during the grow")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mk := func(first, n int) []raid.Dev {
		out := make([]raid.Dev, n)
		for i := range out {
			out[i] = disk.New(nil, fmt.Sprintf("rb-d%d", first+i), store.NewMem(*bs, *blocks), disk.DefaultModel())
		}
		return out
	}
	a, err := core.New(mk(0, *nodes), *nodes, 1, core.Options{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	data := make([]byte, a.Blocks()*int64(*bs))
	rand.New(rand.NewSource(101)).Read(data)
	if err := a.WriteBlocks(ctx, 0, data); err != nil {
		return err
	}
	if err := a.Flush(ctx); err != nil {
		return err
	}

	// Foreground baseline: the same writer pool against the stable array.
	base := fgStorm(ctx, a, *writers, *bs, 400*time.Millisecond, nil)

	m, err := a.BeginGrow(*add, mk(*nodes, *add), 0)
	if err != nil {
		return err
	}
	var fgDuring float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fgDuring = fgStorm(ctx, a, *writers, *bs, 0, stop)
	}()
	start := time.Now()
	if err := m.Run(ctx, nil, nil); err != nil {
		return fmt.Errorf("grow migration: %w", err)
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if err := a.Flush(ctx); err != nil {
		return err
	}
	if err := a.Verify(ctx); err != nil {
		return fmt.Errorf("verify after grow: %w", err)
	}

	st := m.Status()
	copyMBps := float64(st.MovedBytes) / 1e6 / elapsed.Seconds()
	minMoves := a.Blocks() * int64(*add) / int64(*nodes+*add)
	overhead := float64(st.MovedBlocks)/float64(minMoves) - 1

	fmt.Printf("Online grow %d -> %d nodes: %d logical blocks x %d B, %d foreground writer(s)\n",
		*nodes, *nodes+*add, a.Blocks(), *bs, *writers)
	fmt.Printf("%-28s %12s\n", "metric", "value")
	fmt.Printf("%-28s %9.2f MB/s\n", "rebalance copy bandwidth", copyMBps)
	fmt.Printf("%-28s %9.2f MB/s\n", "foreground baseline", base)
	fmt.Printf("%-28s %9.2f MB/s\n", "foreground during grow", fgDuring)
	fmt.Printf("%-28s %12v\n", "migration wall time", elapsed.Round(time.Millisecond))
	fmt.Printf("%-28s %7d / %d (overhead %.1f%%, bound 25%%)\n",
		"moved blocks vs minimum", st.MovedBlocks, minMoves, overhead*100)
	if st.MovedBlocks < minMoves || overhead > 0.25 {
		return fmt.Errorf("movement outside the minimal bound: moved %d, minimum %d", st.MovedBlocks, minMoves)
	}
	return nil
}

// fgStorm runs writers random-writing 8-block bursts until either d
// elapses (stop nil) or stop closes, and returns the aggregate MB/s.
// Each writer owns a private span so the shadow bookkeeping the drill
// tests need is unnecessary here.
func fgStorm(ctx context.Context, a *core.RAIDx, writers, bs int, d time.Duration, stop <-chan struct{}) float64 {
	var bytes atomic.Int64
	var wg sync.WaitGroup
	timed := make(chan struct{})
	if stop == nil {
		stop = timed
	}
	span := a.Blocks() / int64(writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			buf := make([]byte, 8*bs)
			for {
				select {
				case <-stop:
					return
				default:
				}
				lb := int64(w)*span + rng.Int63n(span-8)
				rng.Read(buf)
				if err := a.WriteBlocks(ctx, lb, buf); err != nil {
					return
				}
				bytes.Add(int64(len(buf)))
			}
		}()
	}
	if d > 0 {
		time.Sleep(d)
		close(timed)
	}
	wg.Wait()
	return float64(bytes.Load()) / 1e6 / time.Since(start).Seconds()
}
