package raid

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// mirroredArray factors the shared behaviour of RAID-10 and chained
// declustering: two complete striped copies of the data, written in the
// foreground, with reads load-balanced over both copies and degraded
// operation falling back to the surviving copy.
//
// The two engines differ only in their primary/mirror mappings, which
// is exactly the paper's Figure 1b vs. a conventional striped-mirror
// arrangement.
type mirroredArray struct {
	name    string
	mem     *Members
	bs      int
	blocks  int64
	primary mapping
	mirror  mapping
	// flip alternates reads between copies for load balancing.
	flip atomic.Uint32
}

func (a *mirroredArray) Name() string      { return a.name }
func (a *mirroredArray) BlockSize() int    { return a.bs }
func (a *mirroredArray) Blocks() int64     { return a.blocks }
func (a *mirroredArray) Members() *Members { return a.mem }

// SwapDev implements DevSwapper.
func (a *mirroredArray) SwapDev(idx int, dev Dev) (Dev, error) { return a.mem.Swap(idx, dev) }

// ReadBlocks reads from one copy, alternating between copies per call
// for load balance, with per-run fallback to the other copy when a
// device has failed or is a blank spare.
func (a *mirroredArray) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	first := a.primary
	if a.flip.Add(1)%2 == 0 {
		first = a.mirror
	}
	return readStriped(ctx, a.mem.Load(), first, b, p, a.bs, func(ctx context.Context, r run) error {
		// Degraded path: the run as the column's other copy holds it —
		// exactly what repair would put back on this device.
		buf := make([]byte, r.count*a.bs)
		if err := a.Reconstruct(ctx, first.diskOf(r.col), r.phys, buf, nil); err != nil {
			return err
		}
		first.scatter(p, buf, r, b, a.bs)
		return nil
	})
}

// WriteBlocks writes both copies in the foreground (the conventional
// mirrored-write discipline that RAID-x improves upon). Runs landing on
// a failed device are skipped, and intent-marked, as long as the other
// copy is healthy; a blank spare takes every write. The write enters the
// members' window over the runs of both copies.
func (a *mirroredArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	n, err := CheckRange(a, b, p)
	if err != nil {
		return err
	}
	devs := a.mem.Load().Devs
	var spans []Span
	for _, r := range a.primary.runs(b, n) {
		pd, md := a.primary.diskOf(r.col), a.mirror.diskOf(r.col)
		if !devs[pd].Healthy() && !devs[md].Healthy() {
			return fmt.Errorf("%s: both copies of column %d failed: %w", a.name, r.col, ErrDataLoss)
		}
		mp := r.phys - a.primary.base + a.mirror.base // both copies stripe with one width
		spans = append(spans, Span{pd, r.phys, r.phys + int64(r.count)}, Span{md, mp, mp + int64(r.count)})
	}
	defer a.mem.win.Exit(a.mem.win.Enter(ctx, spans...))
	mark := a.mem.Intent().MarkRange
	return par.Do(ctx,
		func(ctx context.Context) error { return writeStriped(ctx, devs, a.primary, b, p, a.bs, mark) },
		func(ctx context.Context) error { return writeStriped(ctx, devs, a.mirror, b, p, a.bs, mark) },
	)
}

// Flush implements Array.
func (a *mirroredArray) Flush(ctx context.Context) error { return FlushAll(ctx, a.mem.Load().Devs) }

// Rebuild implements Rebuilder: every column whose primary or mirror
// copy lives on (replaced) device idx is copied back from the other.
func (a *mirroredArray) Rebuild(ctx context.Context, idx int) error {
	return RebuildFrom(ctx, a, idx, nil, nil)
}

// rows is the length of one column: the physical blocks each copy of it
// occupies on its device.
func (a *mirroredArray) rows() int64 { return a.blocks / int64(a.primary.width) }

// Extents implements Restorer: the area holding primary copies, then
// the one holding mirror copies where the layout keeps them apart
// (chained declustering; a RAID-10 device holds one column at offset 0
// either way). The placement never changes.
func (a *mirroredArray) Extents() ([][2]int64, uint64) {
	ext := [][2]int64{{a.primary.base, a.primary.base + a.rows()}}
	if a.mirror.base != a.primary.base {
		ext = append(ext, [2]int64{a.mirror.base, a.mirror.base + a.rows()})
	}
	return ext, 0
}

// Reconstruct implements Restorer: the physical blocks of device idx
// from pb on that fill dst are a run of some column's primary or mirror
// copy; they are read, in one call, from the same run of the column's
// other copy. Both mappings stripe with the same width, so the run is
// contiguous there too.
func (a *mirroredArray) Reconstruct(ctx context.Context, idx int, pb int64, dst []byte, _ []bool) error {
	v := a.mem.Load()
	holds := func(m mapping, col int) bool {
		return m.diskOf(col) == idx && pb >= m.base && pb < m.base+a.rows()
	}
	for col := 0; col < a.primary.width; col++ {
		lost, live := a.primary, a.mirror
		if !holds(lost, col) {
			if lost, live = live, lost; !holds(lost, col) {
				continue
			}
		}
		src := live.diskOf(col)
		if !v.Readable(src) {
			return fmt.Errorf("%s: both copies of column %d failed: %w", a.name, col, ErrDataLoss)
		}
		return v.Devs[src].ReadBlocks(ctx, live.base+pb-lost.base, dst)
	}
	return fmt.Errorf("%s: device %d holds no column at physical block %d", a.name, idx, pb)
}

// Verify implements Verifier through the repair loop's compare (Verify).
func (a *mirroredArray) Verify(ctx context.Context) error {
	_, err := Verify(ctx, a)
	return err
}
