package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	raidx "repro"
)

const (
	blockSize = 4096
	bigIO     = 64 << 10 // the large transfer every layer is measured with
	bigBlocks = bigIO / blockSize
)

// rig is a set of in-process loopback nodes, one 4 KiB-block memory
// disk each, with one client connection per node — the way
// `raidxbench hotpath` builds its cluster. The RemoteDev handles given
// to the engine are kept: Dev(i) returns a fresh handle on every call,
// and only the engine's own handles carry the health cache that fault
// injection must invalidate.
type rig struct {
	disks   []*raidx.Disk
	nodes   []*raidx.Node
	clients []*raidx.NodeClient
	remotes []*raidx.RemoteDev
	devs    []raidx.Dev // remotes, behind tracedDev when tracing
}

func newRig(nodes int, blocks int64, tr *tracer) (*rig, error) {
	r := &rig{}
	for i := 0; i < nodes; i++ {
		d := raidx.NewMemDisk(fmt.Sprintf("n%d.d0", i), blockSize, blocks)
		n, err := raidx.ListenAndServe("127.0.0.1:0", []*raidx.Disk{d})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		r.disks = append(r.disks, d)
		r.nodes = append(r.nodes, n)
		c, err := raidx.Connect(n.Addr())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("connect node %d: %w", i, err)
		}
		r.clients = append(r.clients, c)
		rd := c.Dev(0)
		r.remotes = append(r.remotes, rd)
		if tr != nil {
			r.devs = append(r.devs, &tracedDev{inner: rd, tr: tr})
		} else {
			r.devs = append(r.devs, rd)
		}
	}
	return r, nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}

// counters is one reading of the public counters the traced run
// compares before and after a window. A counter the program no longer
// exports is recorded in missing and reported as null, not as a crash.
type counters struct {
	diskReads, diskWrites         int64
	diskBytesRead, diskBytesWrite int64
	mgrReads, mgrWrites, mgrBG    int64
	serverNS                      int64 // Σ mgr.op_latency sums
	mallocs                       uint64
	missing                       map[string]bool
}

func (c *counters) miss(name string) {
	if c.missing == nil {
		c.missing = map[string]bool{}
	}
	c.missing[name] = true
}

func (r *rig) counters() counters {
	var c counters
	for _, d := range r.disks {
		rd, wr, br, bw := d.Stats()
		c.diskReads += rd
		c.diskWrites += wr
		c.diskBytesRead += br
		c.diskBytesWrite += bw
	}
	for _, n := range r.nodes {
		snap := n.Manager.Obs().Snapshot()
		get := func(name string) int64 {
			v, ok := snap.Counters[name]
			if !ok {
				c.miss(name)
			}
			return v
		}
		c.mgrReads += get("mgr.read_ops")
		c.mgrWrites += get("mgr.write_ops")
		c.mgrBG += get("mgr.bg_write_ops")
		found := false
		for name, h := range snap.Histograms {
			if strings.HasPrefix(name, "mgr.op_latency") {
				c.serverNS += int64(h.Sum)
				found = true
			}
		}
		if !found {
			c.miss("mgr.op_latency")
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

// prefill stamps every block of arr at version 1, in large sequential
// writes, so reads have something to verify from the first timed op.
func prefill(ctx context.Context, arr raidx.Array, m *model) error {
	const chunkBlocks = 64
	buf := make([]byte, chunkBlocks*blockSize)
	total := arr.Blocks()
	for b := int64(0); b < total; b += chunkBlocks {
		n := min(chunkBlocks, total-b)
		p := buf[:n*blockSize]
		m.fillNext(b, p, blockSize)
		if err := arr.WriteBlocks(ctx, b, p); err != nil {
			return fmt.Errorf("prefill block %d: %w", b, err)
		}
	}
	return arr.Flush(ctx)
}

// readBack is the untimed pass after a workload: every block the model
// knows is read and compared, payload included. Each block is one
// attempted operation in acc, each mismatch one failed.
func readBack(read func(ctx context.Context, b int64, p []byte) error, m *model, acc *account) {
	const chunkBlocks = 64
	ctx := context.Background()
	buf := make([]byte, chunkBlocks*blockSize)
	total := int64(len(m.versions))
	for b := int64(0); b < total; b += chunkBlocks {
		n := min(chunkBlocks, total-b)
		p := buf[:n*blockSize]
		acc.attempted += n
		if err := read(ctx, b, p); err != nil {
			acc.failed += n
			continue
		}
		acc.failed += int64(m.check(b, p, blockSize, true))
	}
}
