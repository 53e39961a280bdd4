package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bufpool"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/raid"
	"repro/internal/trace"
)

// ErrMigrationActive is returned by operations that must not run while
// a layout-epoch migration is in flight: rebuilds, resyncs, scrubs, and
// a second Begin{Grow,Shrink}. The caller waits for the rebalance to
// finish (or pauses it) and retries.
var ErrMigrationActive = errors.New("core: layout migration in progress")

// ErrRetiredColumn is returned for repair operations addressed to a
// column whose node was removed by a shrink: the column holds no live
// blocks and will never be rebuilt.
var ErrRetiredColumn = errors.New("core: column retired by shrink")

// epochState is the engine's layout view, published through an atomic
// pointer with the same copy-on-write discipline as the device table:
// an operation loads it once and every placement decision inside that
// operation is consistent. During a migration the state carries both
// layouts and the cursor; each committed copy window publishes a fresh
// value, never mutates an old one.
type epochState struct {
	// cur is the authoritative layout for blocks at or above cursor
	// (and for everything once the migration ends).
	cur *layout.Epoch
	// next is the migration target layout, nil when no migration is in
	// flight. Blocks below cursor have already moved and live at their
	// next-layout homes.
	next   *layout.Epoch
	cursor int64
	// mig is the migration owning next/cursor; writers use it to keep
	// out of the active copy window.
	mig *Migration
}

// plain reports whether the fast arithmetic paths apply: no overrides,
// no migration.
func (s *epochState) plain() bool { return s.next == nil && s.cur.Trivial() }

// dataLoc places block b under this view: migrated blocks by the target
// layout, the rest by the current one.
func (s *epochState) dataLoc(b int64) layout.Loc {
	if s.next != nil && b < s.cursor {
		return s.next.DataLoc(b)
	}
	return s.cur.DataLoc(b)
}

// mirrorLoc places block b's image under this view.
func (s *epochState) mirrorLoc(b int64) layout.Loc {
	if s.next != nil && b < s.cursor {
		return s.next.MirrorLoc(b)
	}
	return s.cur.MirrorLoc(b)
}

// Epoch returns the current stable layout epoch. During a migration
// this is still the source epoch — the target becomes current only
// when the last block has moved.
func (a *RAIDx) Epoch() *layout.Epoch { return a.epoch.Load().cur }

// Migrating reports whether a layout migration is in flight, and if so
// its cursor (first block not yet migrated) and target generation.
func (a *RAIDx) Migrating() (cursor int64, targetGen uint64, active bool) {
	es := a.epoch.Load()
	if es.next == nil {
		return 0, 0, false
	}
	return es.cursor, es.next.Gen(), true
}

// ColumnRetired reports whether column i was retired by a shrink. The
// repair supervisor skips retired columns in its health scan.
func (a *RAIDx) ColumnRetired(i int) bool {
	es := a.epoch.Load()
	return i < es.cur.Width() && !es.cur.Active(i)
}

// NewAtEpoch is the engine's one constructor: it builds a RAID-x array
// positioned at layout epoch ep — generation zero for a fresh array
// (New), a later one when reopening a rebalanced cluster (possibly
// mid-migration: pass the stable source epoch, then resume with
// BeginGrow/BeginShrink). devs must cover at least ep.Width() columns in
// the epoch's column order; extra trailing devices are idle until a grow
// targets them. Retired columns may be nil.
func NewAtEpoch(devs []raid.Dev, ep *layout.Epoch, opt Options) (*RAIDx, error) {
	if ep == nil {
		return nil, fmt.Errorf("core: nil epoch")
	}
	if len(devs) < ep.Width() {
		return nil, fmt.Errorf("core: %d devices for an epoch of width %d", len(devs), ep.Width())
	}
	base := ep.Base()
	live := make([]raid.Dev, 0, len(devs))
	for i, d := range devs {
		if d == nil {
			if i < ep.Width() && ep.Active(i) {
				return nil, fmt.Errorf("core: active column %d has no device", i)
			}
			continue
		}
		live = append(live, d)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	bs, per, err := checkDevs(live)
	if err != nil {
		return nil, err
	}
	if per%2 != 0 {
		per--
	}
	if per < base.DiskBlocks {
		return nil, fmt.Errorf("core: devices hold %d blocks, epoch geometry needs %d", per, base.DiskBlocks)
	}
	a := &RAIDx{
		lay:    base,
		bs:     bs,
		opt:    opt,
		met:    newCoreMetrics(opt.Obs),
		tracer: opt.Trace,
		intLog: opt.Intent,
	}
	a.setColNames(len(devs))
	owned := append([]raid.Dev(nil), devs...)
	a.table.Store(&owned)
	a.epoch.Store(&epochState{cur: ep})
	a.intLog.Grow(len(devs))
	a.finishInit(devs)
	return a, nil
}

// rebuildEpochFrom recovers a replaced disk under a non-trivial layout
// epoch. The arithmetic rebuild's column/group walk no longer matches
// the overridden placements, so this path scans the disk's physical
// blocks and inverts each through the epoch's source maps: the data
// half is still a contiguous prefix of logical blocks, the mirror half
// the base slot window plus relocated images. Progress counts physical
// blocks per half (Epoch records the generation; a checkpoint from
// another generation is discarded).
func (a *RAIDx) rebuildEpochFrom(ctx context.Context, idx int, ep *layout.Epoch, prog *RebuildProgress, pace PaceFunc) (err error) {
	devs := a.devices()
	blank := a.blankCols.Load()
	ctx, root := a.tracer.StartRoot(ctx, "raidx.rebuild", a.col(idx))
	defer func() { root.End(err) }()
	subject := fmt.Sprintf("raidx/d%d", idx)
	if prog.Epoch != ep.Gen() {
		*prog = RebuildProgress{Epoch: ep.Gen()}
	}
	detail := fmt.Sprintf("epoch %d scan", ep.Gen())
	if prog.DataDone > 0 || prog.GroupsDone > 0 {
		detail += fmt.Sprintf(", resume data=%d mirror=%d", prog.DataDone, prog.GroupsDone)
	}
	a.met.events.Append(obs.EventRebuildStart, subject, detail)
	defer func() {
		detail := "ok"
		if err != nil {
			detail = err.Error()
		}
		a.met.events.Append(obs.EventRebuildEnd, subject, detail)
	}()
	half := a.lay.DiskBlocks / 2
	prog.DataTotal, prog.GroupsTotal = half, half
	a.rebuildTotal.Store(2 * half)
	a.rebuildDone.Store(prog.DataDone + prog.GroupsDone)
	buf := bufpool.Get(rebuildChunk * a.bs)
	defer bufpool.Put(buf)
	valid := make([]bool, rebuildChunk)
	// copyHalf recovers physical blocks [base+done, base+half) of idx,
	// inverting each through source and reading the peer copy.
	copyHalf := func(base int64, done *int64, source func(int64) (int64, bool), peer func(int64) layout.Loc) error {
		start := *done - *done%rebuildChunk // re-copy a partial chunk; trusting it needs proof
		for c := start; c < half; c += rebuildChunk {
			n := half - c
			if n > rebuildChunk {
				n = rebuildChunk
			}
			err := par.ForEach(ctx, int(n), func(ctx context.Context, t int) error {
				pb := base + c + int64(t)
				lb, ok := source(pb)
				valid[t] = ok
				if !ok {
					return nil
				}
				src := peer(lb)
				if !readable(devs, blank, src.Disk) {
					return fmt.Errorf("core: surviving copy of block %d unavailable during rebuild: %w", lb, raid.ErrDataLoss)
				}
				return devs[src.Disk].ReadBlocks(ctx, src.Block, buf[t*a.bs:(t+1)*a.bs])
			})
			if err != nil {
				return err
			}
			for t := int64(0); t < n; {
				if !valid[t] {
					t++
					continue
				}
				run := t
				for run < n && valid[run] {
					run++
				}
				if err := devs[idx].WriteBlocks(ctx, base+c+t, buf[t*int64(a.bs):run*int64(a.bs)]); err != nil {
					return err
				}
				t = run
			}
			*done = c + n
			a.rebuildDone.Store(prog.DataDone + prog.GroupsDone)
			if pace != nil {
				if err := pace(ctx, int(n)*a.bs); err != nil {
					return err
				}
			}
		}
		*done = half
		return nil
	}
	if err := copyHalf(0, &prog.DataDone,
		func(pb int64) (int64, bool) { return ep.DataSource(idx, pb) },
		ep.MirrorLoc); err != nil {
		return err
	}
	if err := copyHalf(half, &prog.GroupsDone,
		func(pb int64) (int64, bool) { return ep.MirrorSource(idx, pb) },
		ep.DataLoc); err != nil {
		return err
	}
	a.intLog.ClearDev(idx)
	a.setBlank(idx, false)
	return nil
}

// physSpan is one physically contiguous run on one disk, carrying the
// logical blocks it covers in physical order.
type physSpan struct {
	disk int
	phys int64   // first physical block
	lbs  []int64 // logical block per physical slot
}

// locEntry pairs a logical block with its physical home under a view.
type locEntry struct {
	lb  int64
	loc layout.Loc
}

// spansOf groups located blocks into physically contiguous per-disk
// runs. Blocks of one donor column migrate to consecutive receiver
// offsets, so epoched placements still coalesce into long runs.
func spansOf(ents []locEntry) []physSpan {
	byDisk := map[int][]locEntry{}
	for _, e := range ents {
		byDisk[e.loc.Disk] = append(byDisk[e.loc.Disk], e)
	}
	var spans []physSpan
	for disk, list := range byDisk {
		sort.Slice(list, func(i, j int) bool { return list[i].loc.Block < list[j].loc.Block })
		for i := 0; i < len(list); {
			j := i + 1
			for j < len(list) && list[j].loc.Block == list[j-1].loc.Block+1 {
				j++
			}
			sp := physSpan{disk: disk, phys: list[i].loc.Block}
			for _, e := range list[i:j] {
				sp.lbs = append(sp.lbs, e.lb)
			}
			spans = append(spans, sp)
			i = j
		}
	}
	return spans
}

// readEpoch is the general read path for epoched arrays: per-view
// placement, vectored reads over coalesced physical runs, per-block
// mirror failover. It trades the arithmetic fast path's zero-alloc
// guarantee for correctness under arbitrary remaps.
func (a *RAIDx) readEpoch(ctx context.Context, es *epochState, b int64, n int, p []byte) error {
	devs := a.devices()
	blank := a.blankCols.Load()
	ents := make([]locEntry, n)
	for t := 0; t < n; t++ {
		lb := b + int64(t)
		ents[t] = locEntry{lb: lb, loc: es.dataLoc(lb)}
	}
	seg := func(lb int64) []byte {
		return p[(lb-b)*int64(a.bs) : (lb-b+1)*int64(a.bs)]
	}
	var fns []func(context.Context) error
	for _, sp := range spansOf(ents) {
		sp := sp
		if !readable(devs, blank, sp.disk) {
			// Degraded: serve each block from its image.
			for _, lb := range sp.lbs {
				lb := lb
				fns = append(fns, func(ctx context.Context) error {
					a.met.degradedReads.Inc()
					if a.degradedNotify != nil {
						a.degradedNotify(1)
					}
					return a.readViaImage(ctx, es, devs, blank, lb, seg(lb), nil)
				})
			}
			continue
		}
		fns = append(fns, func(ctx context.Context) (err error) {
			ctx, ch := trace.Start(ctx, "raidx.col-read", a.col(sp.disk))
			ch.Val = int64(len(sp.lbs) * a.bs)
			defer func() { ch.End(err) }()
			segs := make([][]byte, len(sp.lbs))
			for i, lb := range sp.lbs {
				segs[i] = seg(lb)
			}
			rerr := raid.ReadBlocksVec(ctx, devs[sp.disk], sp.phys, segs)
			if rerr == nil || ctx.Err() != nil {
				return rerr
			}
			a.noteFailover(fmt.Sprintf("raidx/d%d", sp.disk), rerr)
			for _, lb := range sp.lbs {
				if err := a.readViaImage(ctx, es, devs, blank, lb, seg(lb), rerr); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return par.Do(ctx, fns...)
}

// readViaImage serves one block from its mirror image under the view.
func (a *RAIDx) readViaImage(ctx context.Context, es *epochState, devs []raid.Dev, blank uint64, lb int64, dst []byte, cause error) error {
	m := es.mirrorLoc(lb)
	if !readable(devs, blank, m.Disk) {
		if cause != nil {
			return fmt.Errorf("core: block %d primary failed (%v) and image unavailable: %w", lb, cause, raid.ErrDataLoss)
		}
		return fmt.Errorf("core: block %d and its image both unavailable: %w", lb, raid.ErrDataLoss)
	}
	err := devs[m.Disk].ReadBlocks(ctx, m.Block, dst)
	if err != nil && cause != nil {
		return fmt.Errorf("core: block %d primary failed (%v), image read failed: %w", lb, cause, err)
	}
	return err
}

// writeEpoch is the general write path for epoched arrays. It first
// synchronizes with any in-flight migration: the write waits out a copy
// window overlapping its range, then registers itself so the copier
// cannot open such a window until it lands — the lost-update guard that
// keeps "zero foreground errors" honest under live rebalance.
func (a *RAIDx) writeEpoch(ctx context.Context, b int64, n int, p []byte) error {
	es := a.epoch.Load()
	if m := es.mig; m != nil {
		if m.enterWrite(b, int64(n)) {
			defer m.exitWrite(b, int64(n))
		}
		// The cursor for [b, b+n) is now pinned: reload the view the
		// copier may have advanced while we waited.
		es = a.epoch.Load()
	}
	devs := a.devices()
	for lb := b; lb < b+int64(n); lb++ {
		if !devs[es.dataLoc(lb).Disk].Healthy() && !devs[es.mirrorLoc(lb).Disk].Healthy() {
			return fmt.Errorf("core: block %d has no healthy copy location: %w", lb, raid.ErrDataLoss)
		}
	}
	seg := func(lb int64) []byte {
		return p[(lb-b)*int64(a.bs) : (lb-b+1)*int64(a.bs)]
	}
	ents := make([]locEntry, n)
	for t := 0; t < n; t++ {
		lb := b + int64(t)
		ents[t] = locEntry{lb: lb, loc: es.dataLoc(lb)}
	}
	var fns []func(context.Context) error
	for _, sp := range spansOf(ents) {
		sp := sp
		dev := devs[sp.disk]
		if a.opt.IntentAhead {
			a.intLog.MarkRange(sp.disk, sp.phys, int64(len(sp.lbs)))
		}
		if !dev.Healthy() {
			a.intLog.MarkRange(sp.disk, sp.phys, int64(len(sp.lbs)))
			continue
		}
		fns = append(fns, func(ctx context.Context) (err error) {
			ctx, ch := trace.Start(ctx, "raidx.col-write", a.col(sp.disk))
			ch.Val = int64(len(sp.lbs) * a.bs)
			defer func() { ch.End(err) }()
			segs := make([][]byte, len(sp.lbs))
			for i, lb := range sp.lbs {
				segs[i] = seg(lb)
			}
			err = raid.WriteBlocksVec(ctx, dev, sp.phys, segs)
			if err != nil {
				a.intLog.MarkRange(sp.disk, sp.phys, int64(len(sp.lbs)))
			}
			return err
		})
	}
	// Image writes: coalesce physically contiguous runs whose payload is
	// also contiguous in p (consecutive logical blocks), so group-packed
	// images still go out as one long deferred write.
	for t := 0; t < n; t++ {
		lb := b + int64(t)
		ents[t] = locEntry{lb: lb, loc: es.mirrorLoc(lb)}
	}
	for _, sp := range spansOf(ents) {
		sp := sp
		dev := devs[sp.disk]
		// Deferred mirror writes travel as background notifications, and
		// a remote node's epoch fence may drop a stale one with no error
		// coming back — mark the intent up front so the divergence stays
		// visible for delta resync instead of being a silent redundancy
		// loss.
		if a.opt.IntentAhead || !a.opt.ForegroundMirror {
			a.intLog.MarkRange(sp.disk, sp.phys, int64(len(sp.lbs)))
		}
		if !dev.Healthy() {
			a.intLog.MarkRange(sp.disk, sp.phys, int64(len(sp.lbs)))
			continue
		}
		// Split the physical run wherever the logical blocks are not
		// consecutive: background writes need one flat buffer.
		for i := 0; i < len(sp.lbs); {
			j := i + 1
			if !a.opt.ScatterMirror {
				for j < len(sp.lbs) && sp.lbs[j] == sp.lbs[j-1]+1 {
					j++
				}
			}
			lo, phys := sp.lbs[i], sp.phys+int64(i)
			count := int64(j - i)
			fns = append(fns, func(ctx context.Context) (err error) {
				ctx, mh := trace.Start(ctx, "raidx.mirror-write", a.col(sp.disk))
				mh.Val = count * int64(a.bs)
				defer func() { mh.End(err) }()
				chunk := p[(lo-b)*int64(a.bs) : (lo-b+count)*int64(a.bs)]
				if a.opt.ForegroundMirror {
					err = dev.WriteBlocks(ctx, phys, chunk)
				} else {
					err = dev.WriteBlocksBackground(ctx, phys, chunk)
				}
				if err != nil {
					a.intLog.MarkRange(sp.disk, phys, count)
				}
				return err
			})
			i = j
		}
	}
	return par.Do(ctx, fns...)
}
