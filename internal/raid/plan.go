package raid

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
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
	Data  []Ext
	Segs  [][]byte
	Spans []Span // a write's runs, for the members' window
	Fns   []func(context.Context) error
	// added holds the blocks in the order added — logical order, as every
	// engine adds them — and end is the counting sort's per-disk bounds.
	added []Ext
	end   []int
	// bg holds the deferred runs a write's branches carry (writeRuns), and
	// carried flags the members whose deferred runs one of them carries.
	bg      []Run
	carried []bool
	errs    []atomic.Pointer[error] // each member's first branch error (fail)
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
	clear(pl.bg)
	clear(pl.errs)
	pl.Data, pl.Segs, pl.Fns, pl.Spans = pl.Data[:0], pl.Segs[:0], pl.Fns[:0], pl.Spans[:0]
	pl.added, pl.end, pl.bg, pl.carried, pl.errs = pl.added[:0], pl.end[:0], pl.bg[:0], pl.carried[:0], pl.errs[:0]
	planPool.Put(pl)
}

// at returns the one-block slice of pl's blocks in the order added that
// holds logical block lb.
func (pl *Plan) at(lb int64) []Ext {
	k := lb - pl.added[0].LB
	return pl.added[k : k+1]
}

// Issue says how the runs of one copy of a request are cut and written.
type Issue uint8

const (
	// Flat ends a run where its logical blocks stop being consecutive too,
	// so that the run is one piece of the caller's buffer, and writes the
	// runs in logical order, as added — the copy needs no Sort: RAID-x's
	// images, one write per mirror group.
	Flat Issue = 1 << iota
	// Single makes every block its own run, and a read that falls back to
	// the copy reads it block by block: RAID-x's images scatter.
	Single
	// Deferred writes the copy's runs in the background; it needs Flat.
	Deferred
	// MarkAhead marks every run ahead in the intent log before it is
	// written (see intent.Log.MarkAhead).
	MarkAhead
)

// runEnd returns the end of the run starting at exts[i], cut as how says:
// consecutive entries on one disk at consecutive physical blocks.
func runEnd(exts []Ext, i int, how Issue) int {
	j := i + 1
	for how&Single == 0 && j < len(exts) && exts[j].Disk == exts[i].Disk && exts[j].Phys == exts[j-1].Phys+1 &&
		(how&Flat == 0 || exts[j].LB == exts[j-1].LB+1) {
		j++
	}
	return j
}

// cut returns the end of the piece of an n-block run, from block t on,
// that one read of the other copy serves: the rest of the run, or under
// Single one block.
func cut(n, t int, how Issue) int {
	if how&Single != 0 {
		return t + 1
	}
	return n
}

var errNoCopy = errors.New("none") // a RAID-0 block's other copy

// ReadRuns reads the runs of pl in parallel, scattered straight into the
// caller's buffer. other, nil on RAID-0, plans the blocks' second copy,
// cut as how says. A run on a member that is unreadable, or missed a write
// there, is read from other in branches queued here; a run whose read errs
// (a flaky or partitioned node) fails over to other inside its own branch.
// pick may send a one-block run to other first.
func (m *Members) ReadRuns(ctx context.Context, v *MemberView, pl, other *Plan, how Issue, pick func(v *MemberView, e, alt Ext) bool) error {
	for i, j := 0, 0; i < len(pl.Data); i = j {
		j = runEnd(pl.Data, i, 0)
		run, segs := pl.Data[i:j], pl.Segs[i:j]
		if m.fresh(v, run[0].Disk, run[0].Phys, int64(j-i)) {
			first, second := run, other
			if pick != nil && other != nil && j-i == 1 {
				if alt := other.at(run[0].LB); m.fresh(v, alt[0].Disk, alt[0].Phys, 1) && pick(v, run[0], alt[0]) {
					first, second = alt, pl
				}
			}
			pl.Fns = append(pl.Fns, m.readRun(v, first, segs, second, how))
			continue
		}
		for t, u := 0, 0; t < len(run); t = u {
			u = cut(len(run), t, how)
			lost, lsegs := run[t:u], segs[t:u]
			pl.Fns = append(pl.Fns, func(ctx context.Context) error {
				m.degraded.Add(int64(len(lost)))
				if m.notify != nil {
					m.notify(len(lost))
				}
				ctx, h := trace.Start(ctx, m.spanDegraded, v.names[lost[0].Disk])
				err := m.fallback(ctx, v, lost, lsegs, other, how, nil)
				h.End(err)
				return err
			})
		}
	}
	return par.Do(ctx, pl.Fns...)
}

// readRun is the branch that reads run into segs and, should the read
// err, serves the run from other instead.
func (m *Members) readRun(v *MemberView, run []Ext, segs [][]byte, other *Plan, how Issue) func(context.Context) error {
	return func(ctx context.Context) (err error) {
		lo := run[0]
		ctx, h := trace.Start(ctx, m.spanRead, v.names[lo.Disk])
		h.Val = int64(len(segs) * m.bs)
		defer func() { h.End(err) }()
		// ctx ends only by the caller's own cancellation: no failover then.
		if err = ReadBlocksVec(ctx, v.Devs[lo.Disk], lo.Phys, segs); err == nil || other == nil || ctx.Err() != nil {
			return err
		}
		m.failovers.Inc()
		m.events.Append(obs.EventFailover, m.name+"/"+v.names[lo.Disk], err.Error())
		ctx, fh := trace.Start(ctx, m.spanFailover, v.names[lo.Disk])
		err = m.fallback(ctx, v, run, segs, other, how, err)
		fh.End(err)
		return err
	}
}

// fallback serves run, which its own copy could not (cause; nil when its
// member is unreadable or missed a write there), from other: the mirrored
// engines' copies stripe alike, so one read serves the run. A piece whose
// other copy is not fresh throughout is read block by block, each from
// its fresh copy, or from its own one if neither is and that answers; a
// block no copy serves is lost, and the error names both causes.
func (m *Members) fallback(ctx context.Context, v *MemberView, run []Ext, segs [][]byte, other *Plan, how Issue, cause error) error {
	for t, u := 0, 0; t < len(run); t = u {
		u = cut(len(run), t, how)
		own, n := run[t], int64(u-t)
		err := errNoCopy
		if other != nil {
			alt := other.at(own.LB)[0]
			ownOK, altFresh := cause == nil && v.Readable(own.Disk), m.fresh(v, alt.Disk, alt.Phys, n)
			switch {
			case ownOK && !altFresh && n > 1:
				// Neither copy is fresh throughout: choose block by block.
				if err = m.fallback(ctx, v, run[t:u], segs[t:u], other, how|Single, nil); err != nil {
					return err
				}
			case ownOK && !altFresh:
				err = ReadBlocksVec(ctx, v.Devs[own.Disk], own.Phys, segs[t:u])
			case v.Readable(alt.Disk):
				err = ReadBlocksVec(ctx, v.Devs[alt.Disk], alt.Phys, segs[t:u])
			case cause == nil && v.Readable(own.Disk):
				// Blankness is the live log's, not the view's: the looks
				// above can straddle a repair's commit on own and a swap
				// on alt. This one comes after both.
				err = ReadBlocksVec(ctx, v.Devs[own.Disk], own.Phys, segs[t:u])
			default:
				err = v.unreadable(alt.Disk)
			}
		}
		if err != nil {
			if cause == nil {
				cause = v.unreadable(own.Disk)
			}
			return fmt.Errorf("%s: block %d: %w; other copy: %w: %w", m.name, own.LB, cause, err, ErrDataLoss)
		}
	}
	return nil
}

// WriteRuns writes the runs of pl, then those of other (the blocks' second
// copy, or nil), in parallel inside the members' window, gathered straight
// from the caller's buffer. With a second copy, a block with no readable
// copy (down, or blank) fails the write before anything is written, a
// run on a member that is down is skipped, a run skipped or failed is
// marked missed, and the same check decides the write once a branch has
// failed (settle). When other is Deferred, a member that is a GroupDev
// gets its deferred runs in the branch of its first run of pl, one
// transfer; a failed transfer marks every run it carried.
func (m *Members) WriteRuns(ctx context.Context, v *MemberView, pl, other *Plan, how, otherHow Issue) error {
	// covered is the mirrored engines' write rule.
	covered := func() error {
		for i, e := range pl.added {
			// e is looked at again after its peer, as in fallback.
			if d := e.Disk; !v.Readable(d) && !v.Readable(other.added[i].Disk) && !v.Readable(d) {
				return fmt.Errorf("%s: block %d has no readable copy: %w", m.name, e.LB, ErrDataLoss)
			}
		}
		return nil
	}
	if other != nil {
		if err := covered(); err != nil {
			return err
		}
		pl.track(len(v.Devs))
	}
	var bg *Plan
	if other != nil && otherHow&Deferred != 0 {
		bg = other
	}
	m.writeRuns(pl, v, pl, how, m.spanWrite, other != nil, bg, otherHow)
	if other != nil {
		m.writeRuns(pl, v, other, otherHow, m.spanMirror, true, nil, 0)
	}
	defer m.win.Exit(m.win.Enter(ctx, pl.Spans...))
	err := par.Do(ctx, pl.Fns...)
	if other == nil {
		return err
	}
	return pl.settle(ctx, v, err, covered)
}

// track readies pl to record the failures of a fan-out over n members.
func (pl *Plan) track(n int) { pl.errs = slices.Grow(pl.errs, n)[:n] }

// fail records err as a failure of a branch of pl on member d.
func (pl *Plan) fail(d int, err error) {
	rec := err // escapes in place of err: a branch that succeeds allocates nothing
	pl.errs[d].CompareAndSwap(nil, &rec)
}

// settle decides a redundant write whose fan-out returned err. A member
// whose write failed but that v still sees healthy would serve the old
// data, so its error fails the write, as err does once the caller's ctx
// has ended; otherwise rule, the engine's plan-time check, decides.
func (pl *Plan) settle(ctx context.Context, v *MemberView, err error, rule func() error) error {
	if err == nil || ctx.Err() != nil {
		return err
	}
	for d := range pl.errs {
		if e := pl.errs[d].Load(); e != nil && v.Devs[d].Healthy() {
			return *e
		}
	}
	if verdict := rule(); verdict != nil {
		return fmt.Errorf("%w: %w", verdict, err)
	}
	return nil
}

// writeRuns queues on dst one write per run of c, recorded as span s, and
// lists the runs in dst.Spans. Given bg, a deferred copy cut as bgHow
// says, the first gathered run on a GroupDev member carries that
// member's runs of bg (carry), each recorded as a mirror-write span beside
// the carrying branch's; a deferred run on a carried member queues no
// branch of its own.
func (m *Members) writeRuns(dst *Plan, v *MemberView, c *Plan, how Issue, s string, redundant bool, bg *Plan, bgHow Issue) {
	exts := c.Data
	if how&Flat != 0 {
		exts = c.added // a disk order moves the foreground-mirror ablation
	}
	for i, j := 0, 0; i < len(exts); i = j {
		j = runEnd(exts, i, how)
		lo, n, segs := exts[i], int64(j-i), [][]byte(nil)
		if how&Flat == 0 {
			segs = c.Segs[i:j]
		}
		dst.Spans = append(dst.Spans, Span{lo.Disk, lo.Phys, lo.Phys + n})
		carried := how&Deferred != 0 && dst.carries(lo.Disk)
		skip := redundant && !carried && !v.Devs[lo.Disk].Healthy()
		if skip {
			m.il.MarkRange(lo.Disk, lo.Phys, n)
		} else if how&MarkAhead != 0 {
			m.il.MarkAhead(lo.Disk, lo.Phys, n)
		}
		if skip || carried {
			continue
		}
		var runs []Run
		if _, ok := v.Devs[lo.Disk].(GroupDev); ok && bg != nil && segs != nil && !dst.carries(lo.Disk) {
			runs = m.carry(dst, bg, bgHow, lo.Disk)
		}
		dst.Fns = append(dst.Fns, func(ctx context.Context) (err error) {
			ctx, h := trace.Start(ctx, s, v.names[lo.Disk])
			h.Val = n * int64(m.bs)
			defer func() { h.End(err) }()
			switch dev := v.Devs[lo.Disk]; {
			case runs != nil:
				err = dev.(GroupDev).WriteBlocksWith(ctx, lo.Phys, segs, runs)
				for _, r := range runs { // each carried run's own span
					rh := h.Sibling(m.spanMirror, v.names[lo.Disk])
					rh.Val = int64(len(r.Data))
					rh.End(err)
				}
			case segs != nil:
				err = WriteBlocksVec(ctx, dev, lo.Phys, segs)
			case how&Deferred != 0:
				// A flat run's slots are adjacent in the caller's buffer.
				err = dev.WriteBlocksBackground(ctx, lo.Phys, lo.seg[:n*int64(m.bs)])
			default:
				err = dev.WriteBlocks(ctx, lo.Phys, lo.seg[:n*int64(m.bs)])
			}
			if err != nil && redundant {
				m.il.MarkRange(lo.Disk, lo.Phys, n)
				for _, r := range runs {
					m.il.MarkRange(lo.Disk, r.Phys, int64(len(r.Data)/m.bs))
				}
				dst.fail(lo.Disk, err)
			}
			return err
		})
	}
}

// carry records in dst that member disk's runs of the deferred copy c
// travel with one of its runs, and returns them, listed in dst.bg — or
// nil when disk hosts none.
func (m *Members) carry(dst, c *Plan, how Issue, disk int) []Run {
	for len(dst.carried) <= disk {
		dst.carried = append(dst.carried, false)
	}
	dst.carried[disk] = true
	at := len(dst.bg)
	for i, j := 0, 0; i < len(c.added); i = j {
		j = runEnd(c.added, i, how)
		if lo := c.added[i]; lo.Disk == disk {
			// A flat run's slots are adjacent in the caller's buffer.
			dst.bg = append(dst.bg, Run{lo.Phys, lo.seg[:(j-i)*m.bs]})
		}
	}
	if len(dst.bg) == at {
		return nil
	}
	return dst.bg[at:len(dst.bg):len(dst.bg)]
}

// carries reports whether a run of dst carries member disk's deferred runs.
func (pl *Plan) carries(disk int) bool { return disk < len(pl.carried) && pl.carried[disk] }

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
