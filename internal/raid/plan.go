package raid

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/par"
)

// Ext is one block of a planned request: logical block LB at physical
// block Phys of Disk. A parity shard has no logical block; its LB is -1.
type Ext struct {
	Disk     int
	Phys, LB int64
	seg      []byte // the block's slot in the caller's buffer
}

// Plan is the placement of one request, the planner of every engine:
// the engine adds where each block lives and which slot of the caller's
// buffer it fills or drains, and Sort orders the blocks into per-disk
// physically contiguous runs. Plans are pooled and their slices reused,
// so planning a request allocates nothing.
type Plan struct {
	// Data holds the blocks sorted by (disk, phys), so each disk's blocks
	// fall into as few physically contiguous runs as possible and runs are
	// issued in one deterministic order. Segs[i] is Data[i]'s slot: a run's
	// segments are its scatter/gather list. They alias the caller's buffer
	// — no bytes are copied; vector-aware devices carry them to the wire
	// as-is, and ReadBlocksVec/WriteBlocksVec coalesce through one pooled
	// buffer for devices that need a flat transfer.
	Data []Ext
	Segs [][]byte
	// Img is the engine's own list, kept in the order it appends: RAID-x's
	// mirror images in logical order.
	Img   []Ext
	Spans []Span // a write's runs, for the members' window
	Fns   []func(context.Context) error
	// added and end are the counting sort's scratch: the blocks in the
	// order added, and per-disk bucket bounds.
	added []Ext
	end   []int
}

var planPool = sync.Pool{New: func() any { return new(Plan) }}

// NewPlan returns an empty plan; Release hands it back.
func NewPlan() *Plan { return planPool.Get().(*Plan) }

// Add places logical block lb, whose slot in the caller's buffer is seg,
// at physical block phys of disk.
func (pl *Plan) Add(disk int, phys, lb int64, seg []byte) {
	pl.added = append(pl.added, Ext{disk, phys, lb, seg})
}

// Sort orders the blocks added into Data and Segs in linear time: a
// counting sort buckets them by disk and leaves each bucket in the order
// added, which is already physical order wherever the engine adds in
// logical order over a striped placement; a bucket holding out-of-order
// placements (RAID-x's layout overrides) is then sorted by physical block.
func (pl *Plan) Sort() {
	pl.end = append(pl.end, 0)
	for _, e := range pl.added {
		for len(pl.end) < e.Disk+2 {
			pl.end = append(pl.end, 0)
		}
		pl.end[e.Disk+1]++
	}
	width := len(pl.end) - 1
	for d := 0; d < width; d++ {
		pl.end[d+1] += pl.end[d] // where disk d's bucket starts
	}
	pl.Data = append(pl.Data, pl.added...)
	for _, e := range pl.added {
		pl.Data[pl.end[e.Disk]] = e
		pl.end[e.Disk]++ // ends up where the disk's bucket ends
	}
	lo := 0
	for _, hi := range pl.end[:width] {
		for i := lo + 1; i < hi; i++ {
			if pl.Data[i].Phys < pl.Data[i-1].Phys {
				slices.SortFunc(pl.Data[lo:hi], func(x, y Ext) int { return cmp.Compare(x.Phys, y.Phys) })
				break
			}
		}
		lo = hi
	}
	for _, e := range pl.Data {
		pl.Segs = append(pl.Segs, e.seg)
	}
}

// Release returns the plan to the pool. Lists are cleared first so a
// pooled plan never pins caller buffers or closures.
func (pl *Plan) Release() {
	clear(pl.Data)
	clear(pl.added)
	clear(pl.Segs)
	clear(pl.Fns)
	pl.Data, pl.Img, pl.Segs, pl.Fns, pl.Spans = pl.Data[:0], pl.Img[:0], pl.Segs[:0], pl.Fns[:0], pl.Spans[:0]
	pl.added, pl.end = pl.added[:0], pl.end[:0]
	planPool.Put(pl)
}

// RunEnd returns the end of the run starting at exts[i]: consecutive
// entries on one disk at consecutive physical blocks. A flat run — one
// that must travel as a single contiguous piece of the caller's buffer —
// also ends where the logical blocks stop being consecutive.
func RunEnd(exts []Ext, i int, flat bool) int {
	j := i + 1
	for j < len(exts) && exts[j].Disk == exts[i].Disk && exts[j].Phys == exts[j-1].Phys+1 &&
		(!flat || exts[j].LB == exts[j-1].LB+1) {
		j++
	}
	return j
}

// readRuns reads every run of pl in parallel, each scattered straight
// into the caller's buffer. A run on a member that is not readable, or
// whose read errs (a flaky or partitioned remote node, not a known-dead
// disk), is served by other instead; the read's own error surfaces only
// if other cannot serve the run either.
func readRuns(ctx context.Context, v *MemberView, pl *Plan, other func(ctx context.Context, lo Ext, segs [][]byte) error) error {
	for i, j := 0, 0; i < len(pl.Data); i = j {
		j = RunEnd(pl.Data, i, false)
		lo, segs := pl.Data[i], pl.Segs[i:j]
		pl.Fns = append(pl.Fns, func(ctx context.Context) error {
			if !v.Readable(lo.Disk) {
				return other(ctx, lo, segs)
			}
			err := ReadBlocksVec(ctx, v.Devs[lo.Disk], lo.Phys, segs)
			if err != nil && ctx.Err() == nil && other(ctx, lo, segs) == nil {
				return nil
			}
			return err
		})
	}
	return par.Do(ctx, pl.Fns...)
}

// writeRuns queues on pl.Fns one write per run, gathered straight from
// the caller's buffer, and lists the runs in pl.Spans. With a mark
// function (another copy exists) a run on a member that is down is
// skipped, and every run skipped or failed is reported to it for the
// intent log; without one the member's error surfaces.
func writeRuns(devs []Dev, pl *Plan, mark func(disk int, block, count int64)) {
	for i, j := 0, 0; i < len(pl.Data); i = j {
		j = RunEnd(pl.Data, i, false)
		lo, segs := pl.Data[i], pl.Segs[i:j]
		pl.Spans = append(pl.Spans, Span{lo.Disk, lo.Phys, lo.Phys + int64(j-i)})
		pl.Fns = append(pl.Fns, func(ctx context.Context) error {
			if mark != nil && !devs[lo.Disk].Healthy() {
				mark(lo.Disk, lo.Phys, int64(len(segs)))
				return nil
			}
			err := WriteBlocksVec(ctx, devs[lo.Disk], lo.Phys, segs)
			if err != nil && mark != nil {
				mark(lo.Disk, lo.Phys, int64(len(segs)))
			}
			return err
		})
	}
}

// FlushAll drains background work on every device, in parallel. Empty
// slots and unhealthy devices are skipped (their queued work is lost
// with them).
func FlushAll(ctx context.Context, devs []Dev) error {
	return par.ForEach(ctx, len(devs), func(ctx context.Context, i int) error {
		if devs[i] == nil || !devs[i].Healthy() {
			return nil
		}
		return devs[i].Flush(ctx)
	})
}
