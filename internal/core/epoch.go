package core

import (
	"errors"
	"fmt"

	"repro/internal/layout"
	"repro/internal/raid"
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

// epochState is the engine's layout view and the only thing that answers
// "where is block b", at every generation: with no overrides it falls
// through to the base OSM arithmetic. It is published through an atomic
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
	// mig is the migration owning next/cursor.
	mig *Migration
}

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

// EpochView returns the whole layout view from ONE load: the stable
// epoch and, while a migration is in flight, its cursor and target epoch
// (nil otherwise). Epoch and Migrating each load on their own, so a reply
// assembled from both can pair the source epoch with "not migrating" when
// the migration finishes in between.
func (a *RAIDx) EpochView() (stable *layout.Epoch, cursor int64, target *layout.Epoch) {
	es := a.epoch.Load()
	return es.cur, es.cursor, es.next
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
	bs, per, err := raid.CheckDevs(live, 1)
	if err != nil {
		return nil, err
	}
	per -= per % 2
	if per < base.DiskBlocks {
		return nil, fmt.Errorf("core: devices hold %d blocks, epoch geometry needs %d", per, base.DiskBlocks)
	}
	a := &RAIDx{
		mem:    raid.NewMembers("raidx", devs, bs, base.DiskBlocks),
		lay:    base,
		bs:     bs,
		opt:    opt,
		met:    newCoreMetrics(opt.Obs),
		tracer: opt.Trace,
	}
	a.mem.Attach(opt.Intent, opt.Obs, opt.Trace)
	if opt.BalanceReads {
		a.pick = a.balance
	}
	a.epoch.Store(&epochState{cur: ep})
	a.finishInit(devs)
	return a, nil
}

// place plans the blocks of the caller's buffer p, starting at logical
// block b, under layout view es: where each block's data lives, sorted
// into runs, and where its image does, in logical order (raid.Flat).
func (a *RAIDx) place(es *epochState, b int64, p []byte) (data, img *raid.Plan) {
	data, img, bs := raid.NewPlan(), raid.NewPlan(), int64(a.bs)
	for lb := b; lb < b+int64(len(p))/bs; lb++ {
		d, m, seg := es.dataLoc(lb), es.mirrorLoc(lb), p[(lb-b)*bs:(lb-b+1)*bs]
		data.Add(d.Disk, d.Block, lb, seg)
		img.Add(m.Disk, m.Block, lb, seg)
	}
	data.Sort()
	return data, img
}
