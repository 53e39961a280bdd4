package raid

import (
	"context"

	"repro/internal/par"
)

// mapping describes a round-robin striped placement: logical block b
// belongs to column b mod width, physical block base + b/width on disk
// diskOf(column). All striped layouts in the paper (RAID-0 data,
// RAID-10 copies, chained-declustering data and mirror areas, OSM data
// area) are instances of this shape, which is what makes per-disk
// accesses contiguous: the logical blocks of one column within any
// contiguous logical range occupy consecutive physical blocks.
type mapping struct {
	width  int
	base   int64
	diskOf func(col int) int
}

// run is one per-column contiguous piece of a striped request.
type run struct {
	col   int   // stripe column
	first int64 // first logical block of the run
	phys  int64 // physical start block (base already applied)
	count int   // number of blocks
}

// runs decomposes the logical range [b, b+n) into per-column contiguous
// runs, ordered by column.
func (m mapping) runs(b int64, n int) []run {
	w := int64(m.width)
	out := make([]run, 0, m.width)
	for col := 0; col < m.width; col++ {
		// First logical block >= b in this column.
		first := b + (int64(col)-b%w+w)%w
		if first >= b+int64(n) {
			continue
		}
		count := int((b+int64(n)-1-first)/w) + 1
		out = append(out, run{col: col, first: first, phys: m.base + first/w, count: count})
	}
	return out
}

// gather copies the run's logical blocks out of the user buffer p
// (whose first byte is logical block b0) into a dense per-disk buffer.
func (m mapping) gather(dst, p []byte, r run, b0 int64, bs int) {
	for t := 0; t < r.count; t++ {
		lb := r.first + int64(t)*int64(m.width)
		copy(dst[t*bs:(t+1)*bs], p[(lb-b0)*int64(bs):])
	}
}

// scatter copies a dense per-disk buffer back into the user buffer.
func (m mapping) scatter(p, src []byte, r run, b0 int64, bs int) {
	for t := 0; t < r.count; t++ {
		lb := r.first + int64(t)*int64(m.width)
		copy(p[(lb-b0)*int64(bs):(lb-b0)*int64(bs)+int64(bs)], src[t*bs:(t+1)*bs])
	}
}

// readStriped performs a parallel striped read of [b, b+n) into p over
// the members of v. If a member is not readable and fallback is non-nil,
// fallback is invoked for that run instead (degraded path). A device
// that reports healthy but then errors mid-run (a flaky or partitioned
// remote node) also fails over to fallback; the original error is
// returned only if the fallback cannot serve the run either.
func readStriped(ctx context.Context, v *MemberView, m mapping, b int64, p []byte, bs int,
	fallback func(ctx context.Context, r run) error) error {

	rs := m.runs(b, len(p)/bs)
	fns := make([]func(context.Context) error, len(rs))
	for i, r := range rs {
		r := r
		disk := m.diskOf(r.col)
		fns[i] = func(ctx context.Context) error {
			if !v.Readable(disk) && fallback != nil {
				return fallback(ctx, r)
			}
			buf := make([]byte, r.count*bs)
			if err := v.Devs[disk].ReadBlocks(ctx, r.phys, buf); err != nil {
				if fallback != nil && ctx.Err() == nil {
					if ferr := fallback(ctx, r); ferr == nil {
						return nil
					}
				}
				return err
			}
			m.scatter(p, buf, r, b, bs)
			return nil
		}
	}
	return par.Do(ctx, fns...)
}

// writeStriped performs a parallel striped write of p to [b, b+n). mark
// selects degraded behaviour. With a mark function (the caller
// guarantees another copy exists) a run landing on a down device is
// skipped, and every run skipped or failed is reported to it as (disk,
// physical block, count) for the intent log. Without one the device's
// error propagates.
func writeStriped(ctx context.Context, devs []Dev, m mapping, b int64, p []byte, bs int,
	mark func(disk int, block, count int64)) error {

	rs := m.runs(b, len(p)/bs)
	fns := make([]func(context.Context) error, len(rs))
	for i, r := range rs {
		r := r
		disk := m.diskOf(r.col)
		fns[i] = func(ctx context.Context) error {
			if mark != nil && !devs[disk].Healthy() {
				mark(disk, r.phys, int64(r.count))
				return nil
			}
			buf := make([]byte, r.count*bs)
			m.gather(buf, p, r, b, bs)
			err := devs[disk].WriteBlocks(ctx, r.phys, buf)
			if err != nil && mark != nil {
				mark(disk, r.phys, int64(r.count))
			}
			return err
		}
	}
	return par.Do(ctx, fns...)
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
