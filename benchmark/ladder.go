package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	raidx "repro"
)

// The ladder pushes the same 4 KiB and 64 KiB read and write through
// each module's public API in turn, one goroutine, nothing else
// running: parity kernel → disk → transport round trip → cdd remote
// device → array engines → coherent session → fsim. A rung's
// delta_vs_lower is its ns minus the rung beneath it — that layer's tax
// on the same operation.

const (
	ladderBatches = 9
	ladderBatch   = 10 * time.Millisecond // length of one timed batch
)

// rung is one measured operation of one layer.
type rung struct {
	name   string // without the "ladder." prefix and the ".ns" suffix
	lower  string // the rung beneath it, "" at the bottom
	allocs bool   // whether <name>.allocs is a reported metric
	op     func() error
}

type rungResult struct {
	Name         string   `json:"name"`
	NS           float64  `json:"ns"`
	Allocs       float64  `json:"allocs"`
	Lower        string   `json:"lower,omitempty"`
	DeltaVsLower *float64 `json:"delta_vs_lower,omitempty"`
	ReportAllocs bool     `json:"-"`
}

// measureRung times op: a warm-up, a calibration to size batches of
// about batch, then ladderBatches timed batches. ns is the median of the
// batches' ns/op, allocs the mallocs per op over all batches (every
// goroutine's: an RPC allocates on both ends of the loopback).
func measureRung(r rung, batch time.Duration, acc *account) rungResult {
	call := func() {
		acc.attempted++
		if err := r.op(); err != nil {
			acc.failed++
		}
	}
	for i := 0; i < 3; i++ {
		call()
	}
	t0 := time.Now()
	calib := 0
	for time.Since(t0) < batch/10 {
		call()
		calib++
	}
	per := time.Since(t0) / time.Duration(calib)
	iters := int(batch / (per + 1))
	if iters < 1 {
		iters = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nsPerOp := make([]float64, ladderBatches)
	for b := range nsPerOp {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			call()
		}
		nsPerOp[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	runtime.ReadMemStats(&after)
	return rungResult{
		Name:         r.name,
		NS:           median(nsPerOp),
		Allocs:       float64(after.Mallocs-before.Mallocs) / float64(iters*ladderBatches),
		Lower:        r.lower,
		ReportAllocs: r.allocs,
	}
}

// rwRungs builds the four read/write × 4 KiB/64 KiB rungs of one layer
// over a block read and a block write function. Offsets walk span
// blocks in aligned steps, so writes do not hammer one address and a
// 64 KiB write stays a whole number of stripes.
func rwRungs(prefix, lowerPrefix string, allocs bool, span int64,
	read, write func(ctx context.Context, b int64, p []byte) error) []rung {
	ctx := context.Background()
	var out []rung
	for _, sz := range []struct {
		tag string
		n   int
	}{{"4k", blockSize}, {"64k", bigIO}} {
		buf := make([]byte, sz.n)
		for i := range buf {
			buf[i] = byte(i * 131)
		}
		step := int64(sz.n / blockSize)
		rcur := seqCursor{size: span, n: step}
		wcur := seqCursor{size: span, n: step}
		lower := func(op string) string {
			if lowerPrefix == "" {
				return ""
			}
			return lowerPrefix + "." + op + "_" + sz.tag
		}
		out = append(out,
			rung{name: prefix + ".read_" + sz.tag, lower: lower("read"), allocs: allocs, op: func() error {
				return read(ctx, rcur.next(), buf)
			}},
			rung{name: prefix + ".write_" + sz.tag, lower: lower("write"), allocs: allocs, op: func() error {
				return write(ctx, wcur.next(), buf)
			}})
	}
	return out
}

// ladderGroup sets up one stack, returns its rungs and a teardown.
type ladderGroup func() ([]rung, func(), error)

func parityGroup() ([]rung, func(), error) {
	// xor is measured at 64 KiB only: the 4 KiB row's name went to the
	// tail metrics to stay within 128.
	dst, src := make([]byte, bigIO), make([]byte, bigIO)
	for i := range src {
		src[i] = byte(i * 131)
	}
	out := []rung{{name: "parity.xor_64k", op: func() error {
		raidx.XorParity(dst, src)
		return nil
	}}}
	// 64 KiB of user data the way the rs(8,2) engine codes it: two
	// stripes of eight 4 KiB data shards and two parity shards each.
	code, err := raidx.NewRSCode(8, 2)
	if err != nil {
		return nil, nil, err
	}
	const stripes = bigIO / (8 * blockSize)
	shards := make([][][]byte, stripes)
	for s := range shards {
		shards[s] = make([][]byte, 10)
		for j := range shards[s] {
			shards[s][j] = make([]byte, blockSize)
			for i := range shards[s][j] {
				shards[s][j][i] = byte(s + j*17 + i*131)
			}
		}
	}
	out = append(out, rung{name: "parity.rs_8_2.encode_64k", op: func() error {
		for _, sh := range shards {
			if err := code.Encode(sh[:8], sh[8:]); err != nil {
				return err
			}
		}
		return nil
	}})
	present := make([]bool, 10)
	out = append(out, rung{name: "parity.rs_8_2.reconstruct_64k", allocs: true, op: func() error {
		for _, sh := range shards {
			for j := range present {
				present[j] = j != rsFailed[0] && j != rsFailed[1]
			}
			if err := code.Reconstruct(sh, present); err != nil {
				return err
			}
		}
		return nil
	}})
	return out, func() {}, nil
}

func diskGroup() ([]rung, func(), error) {
	d := raidx.NewMemDisk("ladder", blockSize, 4096)
	return rwRungs("disk", "", false, 4096, d.ReadBlocks, d.WriteBlocks), func() {}, nil
}

func remoteGroup() ([]rung, func(), error) {
	r, err := newRig(1, 4096, nil)
	if err != nil {
		return nil, nil, err
	}
	dev := r.remotes[0]
	out := []rung{{name: "transport.rpc_rtt", allocs: true, op: func() error {
		_, err := r.clients[0].Stats(0)
		return err
	}}}
	out = append(out, rwRungs("cdd.remotedev", "disk", true, 4096, dev.ReadBlocks, dev.WriteBlocks)...)
	return out, r.close, nil
}

func mirrorGroup() ([]rung, func(), error) {
	r, err := newMirrorRig(nil, 4096)
	if err != nil {
		return nil, nil, err
	}
	arr := r.engine
	return rwRungs("core.mirror", "cdd.remotedev", true, arr.Blocks(), arr.ReadBlocks, arr.WriteBlocks), r.close, nil
}

func raid5Group() ([]rung, func(), error) {
	r, vol, err := newVolume(5, 4096, "raid5", nil)
	if err != nil {
		return nil, nil, err
	}
	out := rwRungs("raid.raid5", "cdd.remotedev", false, vol.Blocks(), vol.ReadBlocks, vol.WriteBlocks)
	return out, r.close, nil
}

func rsGroup() ([]rung, func(), error) {
	ctx := context.Background()
	r, vol, err := newRSVolume(nil)
	if err != nil {
		return nil, nil, err
	}
	// Fill the volume so degraded reads reconstruct real data.
	if err := prefill(ctx, vol, newModel(0, vol.Blocks())); err != nil {
		r.close()
		return nil, nil, err
	}
	out := rwRungs("raid.rs_8_2", "cdd.remotedev", false, vol.Blocks(), vol.ReadBlocks, vol.WriteBlocks)
	for i := range out {
		if out[i].name == "raid.rs_8_2.write_4k" || out[i].name == "raid.rs_8_2.write_64k" {
			out[i].allocs = true
		}
	}
	// The degraded rung runs last in the group: it fails two members on
	// first use and the rig is torn down afterwards.
	buf := make([]byte, bigIO)
	failed := false
	cur := seqCursor{size: vol.Blocks(), n: bigBlocks}
	out = append(out, rung{name: "raid.rs_8_2.degraded_read_64k", lower: "raid.rs_8_2.read_64k", allocs: true, op: func() error {
		if !failed {
			for _, i := range rsFailed {
				if err := r.clients[i].FailDisk(0); err != nil {
					return err
				}
				r.remotes[i].InvalidateHealth()
			}
			failed = true
		}
		return vol.ReadBlocks(ctx, cur.next(), buf)
	}})
	return out, r.close, nil
}

func sessionGroup() ([]rung, func(), error) {
	ctx := context.Background()
	// The region is four times the session cache, like the workload's.
	r, err := newRig(1, sessionRegion, nil)
	if err != nil {
		return nil, nil, err
	}
	conn, sess, err := openSession(r.nodes[0].Addr(), "ladder", 0, sessionRegion, nil)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	dev := sess.Dev(0)
	small, big := make([]byte, blockSize), make([]byte, bigIO)
	// Block 0 is read once so the hit rung hits from its first call.
	if err := dev.ReadBlocks(ctx, 0, small); err != nil {
		sess.Close()
		conn.Close()
		r.close()
		return nil, nil, err
	}
	// The miss rung walks the upper half of the region (8 MiB, twice
	// the cache) in order, so by the time a block comes round again the
	// LRU has dropped it; the write rungs stay in the lower half.
	const half = sessionRegion / 2
	miss := seqCursor{base: half, size: half, n: 1}
	wb := seqCursor{base: 1, size: half - 1, n: 1}
	wbBig := seqCursor{base: 1, size: half - 1, n: bigBlocks}
	out := []rung{
		{name: "cdd.session.hit_read_4k", allocs: true, op: func() error {
			return dev.ReadBlocks(ctx, 0, small)
		}},
		{name: "cdd.session.miss_read_4k", lower: "cdd.remotedev.read_4k", allocs: true, op: func() error {
			return dev.ReadBlocks(ctx, miss.next(), small)
		}},
		// Write-back absorbs the write and group-commits every 256 KiB
		// inline, so the flush cost is in the average.
		{name: "cdd.session.wb_write_4k", lower: "cdd.remotedev.write_4k", allocs: true, op: func() error {
			return dev.WriteBlocks(ctx, wb.next(), small)
		}},
		{name: "cdd.session.write_64k", lower: "cdd.remotedev.write_64k", allocs: true, op: func() error {
			return dev.WriteBlocks(ctx, wbBig.next(), big)
		}},
	}
	return out, func() { sess.Close(); conn.Close(); r.close() }, nil
}

func fsimGroup() ([]rung, func(), error) {
	ctx := context.Background()
	r, err := newMirrorRig(nil, 4096)
	if err != nil {
		return nil, nil, err
	}
	fs, err := raidx.Mkfs(ctx, r.engine, raidx.NewTableLocker(raidx.NewLockTable()), "ladder", raidx.FSOptions{})
	if err != nil {
		r.close()
		return nil, nil, err
	}
	// One open 1 MiB file, four times fsim's 64-block cache.
	const fileBlocks = 256
	f, err := fs.Create(ctx, "/ladder")
	if err == nil {
		err = f.WriteAt(ctx, make([]byte, fileBlocks*blockSize), 0)
	}
	if err != nil {
		r.close()
		return nil, nil, err
	}
	read := func(ctx context.Context, b int64, p []byte) error {
		_, err := f.ReadAt(ctx, p, b*blockSize)
		return err
	}
	write := func(ctx context.Context, b int64, p []byte) error { return f.WriteAt(ctx, p, b*blockSize) }
	out := rwRungs("fsim", "core.mirror", true, fileBlocks, read, write)
	out = append(out, rung{name: "fsim.create_remove", op: func() error {
		if _, err := fs.Create(ctx, "/tmpfile"); err != nil {
			return err
		}
		return fs.Remove(ctx, "/tmpfile")
	}})
	return out, r.close, nil
}

var ladderGroups = []ladderGroup{parityGroup, diskGroup, remoteGroup, mirrorGroup, raid5Group, rsGroup, sessionGroup, fsimGroup}

// runLadder measures every rung and fills in delta_vs_lower.
func runLadder(batch time.Duration, acc *account) ([]rungResult, error) {
	var results []rungResult
	for _, g := range ladderGroups {
		rungs, closeFn, err := g()
		if err != nil {
			return nil, fmt.Errorf("ladder set-up: %w", err)
		}
		for _, r := range rungs {
			results = append(results, measureRung(r, batch, acc))
		}
		closeFn()
	}
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Name] = r.NS
	}
	for i := range results {
		if lo, ok := byName[results[i].Lower]; ok {
			d := results[i].NS - lo
			results[i].DeltaVsLower = &d
		}
	}
	return results, nil
}

// ladderMetrics flattens the rungs into the per-layer metric names.
func ladderMetrics(results []rungResult) map[string]float64 {
	out := map[string]float64{}
	for _, r := range results {
		out["ladder."+r.Name+".ns"] = r.NS
		if r.ReportAllocs {
			out["ladder."+r.Name+".allocs"] = r.Allocs
		}
	}
	return out
}
