package raid

import (
	"context"
	"fmt"
	"sync/atomic"
)

// mapping places one copy of the data round-robin: logical block lb
// belongs to column lb mod width, physical block base + lb/width of disk
// diskOf(column). The logical blocks of one column within any contiguous
// logical range therefore occupy consecutive physical blocks, so a
// request planned over a copy is one run per disk.
type mapping struct {
	width  int
	base   int64
	diskOf func(col int) int
}

// plan places the blocks of p, from logical block b on, under this copy.
func (m mapping) plan(b int64, p []byte, bs int) *Plan {
	pl, w := NewPlan(), int64(m.width)
	for lb := b; lb < b+int64(len(p)/bs); lb++ {
		off := (lb - b) * int64(bs)
		pl.Add(m.diskOf(int(lb%w)), m.base+lb/w, lb, p[off:off+int64(bs)])
	}
	pl.Sort()
	return pl
}

// mirroredArray factors the shared behaviour of RAID-10 and chained
// declustering: two complete striped copies of the data, written in the
// foreground, with reads load-balanced over both copies and degraded
// operation falling back to the surviving copy.
//
// The two engines differ only in their primary/mirror mappings, which
// is exactly the paper's Figure 1b vs. a conventional striped-mirror
// arrangement.
type mirroredArray struct {
	mem     *Members
	bs      int
	blocks  int64
	primary mapping
	mirror  mapping
	// flip alternates reads between copies for load balancing.
	flip atomic.Uint32
}

func (a *mirroredArray) Name() string      { return a.mem.name }
func (a *mirroredArray) BlockSize() int    { return a.bs }
func (a *mirroredArray) Blocks() int64     { return a.blocks }
func (a *mirroredArray) Members() *Members { return a.mem }

// SwapDev implements DevSwapper.
func (a *mirroredArray) SwapDev(idx int, dev Dev) (Dev, error) { return a.mem.Swap(idx, dev) }

// ReadBlocks reads from one copy, alternating between copies per call
// for load balance. A run on a member that failed or is blank — or whose
// read errs — is read from the column's other copy into the same slots.
func (a *mirroredArray) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	first, second := a.primary, a.mirror
	if a.flip.Add(1)%2 == 0 {
		first, second = second, first
	}
	pl, other := first.plan(b, p, a.bs), second.plan(b, p, a.bs)
	defer pl.Release()
	defer other.Release()
	return a.mem.ReadRuns(ctx, a.mem.Load(), pl, other, 0, nil)
}

// WriteBlocks writes both copies in the foreground (the conventional
// mirrored-write discipline that RAID-x improves upon), the primary's
// runs issued before the mirror's.
func (a *mirroredArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	pri, mir := a.primary.plan(b, p, a.bs), a.mirror.plan(b, p, a.bs)
	defer pri.Release()
	defer mir.Release()
	return a.mem.WriteRuns(ctx, a.mem.Load(), pri, mir, 0, 0)
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

// Reconstruct implements Restorer: the physical blocks of device idx from
// pb on that fill dst — a run of some column's primary or mirror copy —
// read, in one call, from the same run of the column's other copy. Both
// mappings stripe with the same width, so the run is contiguous there too.
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
			return fmt.Errorf("%s: both copies of column %d failed: %w", a.mem.name, col, ErrDataLoss)
		}
		return v.Devs[src].ReadBlocks(ctx, live.base+pb-lost.base, dst)
	}
	return fmt.Errorf("%s: device %d holds no column at physical block %d", a.mem.name, idx, pb)
}

// Verify implements Verifier through the repair loop's compare (Verify).
func (a *mirroredArray) Verify(ctx context.Context) error {
	_, err := Verify(ctx, a)
	return err
}
