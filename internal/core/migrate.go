package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/raid"
)

// migChunk is the copy-window size in logical blocks: the granularity
// at which the migration cursor advances, foreground writes are gated,
// and checkpoints are cut. Small enough that a gated write waits one
// window's worth of copying at most.
const migChunk = 64

// MigrateStatus is a point-in-time snapshot of a migration.
type MigrateStatus struct {
	FromGen     uint64           `json:"from_gen"`
	ToGen       uint64           `json:"to_gen"`
	Cursor      int64            `json:"cursor"`
	Blocks      int64            `json:"blocks"`
	MovedBlocks int64            `json:"moved_blocks"`
	MovedBytes  int64            `json:"moved_bytes"`
	Done        bool             `json:"done"`
	Target      layout.EpochDesc `json:"target"`
}

// Migration is one in-flight layout-epoch transition. It is created by
// BeginGrow/BeginShrink and driven by Run — typically from the repair
// supervisor as a paced, checkpointed background job. Run may be
// interrupted (context cancel, pace error) and called again: the
// cursor persists in the engine's published epoch state, so a resumed
// run re-copies at most the uncommitted window.
type Migration struct {
	a        *RAIDx
	from, to *layout.Epoch

	mu       sync.Mutex
	finished bool
	running  bool

	movedBlocks atomic.Int64
	movedBytes  atomic.Int64
}

// Status snapshots the migration.
func (m *Migration) Status() MigrateStatus {
	cursor, _, active := m.a.Migrating()
	m.mu.Lock()
	done := m.finished
	m.mu.Unlock()
	if !active && done {
		cursor = m.a.Blocks()
	}
	return MigrateStatus{
		FromGen:     m.from.Gen(),
		ToGen:       m.to.Gen(),
		Cursor:      cursor,
		Blocks:      m.a.Blocks(),
		MovedBlocks: m.movedBlocks.Load(),
		MovedBytes:  m.movedBytes.Load(),
		Done:        done,
		Target:      m.to.Desc(),
	}
}

// TargetEpoch returns the layout this migration is moving to.
func (m *Migration) TargetEpoch() *layout.Epoch { return m.to }

// Run drives the migration to completion: for each window of migChunk
// logical blocks it copies every block whose data or image home
// changes, persists the cursor through checkpoint (the repair
// supervisor writes it to stable storage), commits it, and yields to
// pace. The checkpoint lands BEFORE the commit publishes the cursor:
// foreground writes route to new-epoch homes only at or below the
// durable cursor, so a crash-resume from it can never re-copy stale
// old homes over an acknowledged write. On error, checkpoint failure,
// or pace abort the cursor keeps its last committed value and Run can
// be called again; a crash loses at most the in-flight window, which
// the resumed run re-copies — old homes stay authoritative until the
// commit, so torn new-home writes are invisible.
func (m *Migration) Run(ctx context.Context, pace raid.PaceFunc, checkpoint func(cursor int64) error) (err error) {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return fmt.Errorf("core: migration already running")
	}
	if m.finished {
		m.mu.Unlock()
		return nil
	}
	m.running = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.running = false
		m.mu.Unlock()
	}()

	total := m.a.Blocks()
	for {
		es := m.a.epoch.Load()
		if es.mig != m {
			return fmt.Errorf("core: migration superseded")
		}
		lo := es.cursor
		if lo >= total {
			break
		}
		hi := lo + migChunk
		if hi > total {
			hi = total
		}
		moved, err := m.copyWindow(ctx, lo, hi, checkpoint)
		if err != nil {
			return err
		}
		if pace != nil && moved > 0 {
			if err := pace(ctx, int(moved)*m.a.bs); err != nil {
				return err
			}
		}
	}
	m.a.finishMigration(m)
	return nil
}

// copyWindow migrates [lo, hi), persists the cursor through
// checkpoint, and commits it. It returns how many physical block
// copies it performed.
func (m *Migration) copyWindow(ctx context.Context, lo, hi int64, checkpoint func(int64) error) (int64, error) {
	type move struct {
		lb       int64
		from, to layout.Loc
		image    bool
	}
	var moves []move
	for lb := lo; lb < hi; lb++ {
		if df, dt := m.from.DataLoc(lb), m.to.DataLoc(lb); df != dt {
			moves = append(moves, move{lb: lb, from: df, to: dt})
		}
		if mf, mt := m.from.MirrorLoc(lb), m.to.MirrorLoc(lb); mf != mt {
			moves = append(moves, move{lb: lb, from: mf, to: mt, image: true})
		}
	}
	if len(moves) == 0 {
		// No home changes in this window: the commit carries no routing
		// delta, so the durable cursor may lag it harmlessly — a resume
		// below it re-scans blocks whose old and new homes coincide.
		m.a.epoch.Store(&epochState{cur: m.from, next: m.to, cursor: hi, mig: m})
		if checkpoint != nil {
			if err := checkpoint(hi); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	// Claim the window: a write to it waits until the copy is published,
	// and the writes already in flight over it land before the first read.
	claim := m.a.win.Open(ctx, raid.Span{Lo: lo, Hi: hi})
	v := m.a.mem.Load()
	devs := v.Devs
	buf := bufpool.Get(len(moves) * m.a.bs)
	defer bufpool.Put(buf)
	err := par.ForEach(ctx, len(moves), func(ctx context.Context, i int) error {
		mv := moves[i]
		dst := buf[i*m.a.bs : (i+1)*m.a.bs]
		// Read the authoritative old copy, falling back to the block's
		// other old copy if the primary source is down — a node kill
		// mid-rebalance must not stall the migration.
		src, alt := mv.from, m.from.MirrorLoc(mv.lb)
		if mv.image {
			alt = m.from.DataLoc(mv.lb)
		}
		// A copy that missed a write serves only if the other is no fresher.
		if il := m.a.mem.Intent(); il.Missed(src.Disk, src.Block, 1) && v.Readable(alt.Disk) && !il.Missed(alt.Disk, alt.Block, 1) {
			src, alt = alt, src
		}
		rerr := errSourceDown
		if v.Readable(src.Disk) {
			rerr = devs[src.Disk].ReadBlocks(ctx, src.Block, dst)
		}
		// ctx ends only by the caller's own cancellation: no fallback then.
		if rerr != nil && ctx.Err() == nil {
			if !v.Readable(alt.Disk) {
				return fmt.Errorf("core: migrating block %d: both copies unavailable (%v): %w", mv.lb, rerr, raid.ErrDataLoss)
			}
			if aerr := devs[alt.Disk].ReadBlocks(ctx, alt.Block, dst); aerr != nil {
				return fmt.Errorf("core: migrating block %d: %v; fallback: %w", mv.lb, rerr, aerr)
			}
		} else if rerr != nil {
			return rerr
		}
		if !devs[mv.to.Disk].Healthy() {
			return fmt.Errorf("core: migration target disk %d unhealthy for block %d", mv.to.Disk, mv.lb)
		}
		return devs[mv.to.Disk].WriteBlocks(ctx, mv.to.Block, dst)
	})
	if err != nil {
		m.a.win.Abort(claim)
		return 0, err
	}
	// Durable before visible: the cursor must reach stable storage
	// before the view routes foreground writes to the new homes —
	// a crash-resume restarts from the durable cursor and re-copies
	// old homes, which would silently overwrite any acknowledged write
	// that had routed ahead of it. The window is still open here, so
	// overlapping writes stay gated while the checkpoint syncs.
	if checkpoint != nil {
		if err := checkpoint(hi); err != nil {
			m.a.win.Abort(claim)
			return 0, fmt.Errorf("core: migration checkpoint at block %d: %w", hi, err)
		}
	}
	// Published before the release, so a writer the window held back
	// loads a view that routes its blocks to their new homes.
	m.a.epoch.Store(&epochState{cur: m.from, next: m.to, cursor: hi, mig: m})
	m.a.win.Commit(claim)
	m.movedBlocks.Add(int64(len(moves)))
	m.movedBytes.Add(int64(len(moves) * m.a.bs))
	return int64(len(moves)), nil
}

var errSourceDown = fmt.Errorf("source unavailable")

// finishMigration installs the target epoch as current.
func (a *RAIDx) finishMigration(m *Migration) {
	a.epoch.Store(&epochState{cur: m.to})
	m.mu.Lock()
	m.finished = true
	m.mu.Unlock()
	a.met.events.Append(obs.EventRebalanceEnd, "raidx",
		fmt.Sprintf("epoch %d -> %d: moved %d blocks (%d bytes)",
			m.from.Gen(), m.to.Gen(), m.movedBlocks.Load(), m.movedBytes.Load()))
}

// CurrentMigration returns the in-flight migration, or nil.
func (a *RAIDx) CurrentMigration() *Migration { return a.epoch.Load().mig }

// beginMigration validates and installs a migration toward next,
// resuming at cursor (0 for a fresh start). Callers hold no locks.
func (a *RAIDx) beginMigration(next *layout.Epoch, cursor int64) (*Migration, error) {
	if cursor < 0 || cursor > a.Blocks() {
		return nil, fmt.Errorf("core: resume cursor %d outside [0,%d]", cursor, a.Blocks())
	}
	// Claim the whole array around the publish: writes still placing
	// blocks by the pre-migration view land first, every later one loads
	// the migrating view, and two starts take turns. The claim waits in
	// real time, so under the virtual clock begin with no write in flight.
	defer a.win.Commit(a.win.Open(context.TODO(), raid.Span{Lo: 0, Hi: a.Blocks()}))
	es := a.epoch.Load()
	if es.next != nil {
		return nil, ErrMigrationActive
	}
	m := &Migration{a: a, from: es.cur, to: next}
	a.epoch.Store(&epochState{cur: es.cur, next: next, cursor: cursor, mig: m})
	a.met.events.Append(obs.EventRebalanceStart, "raidx",
		fmt.Sprintf("epoch %d -> %d (%d nodes -> %d), resume at %d",
			es.cur.Gen(), next.Gen(), es.cur.Nodes(), next.Nodes(), cursor))
	return m, nil
}

// BeginGrow starts (or, with cursor > 0, resumes) a live expansion by
// addNodes whole nodes. newDevs are the new nodes' disks in SIOS order
// — for local disk l, then new node order — and may be nil when the
// device table already spans the target width (the restart-resume
// path). The returned Migration must be driven by Run; until it
// completes, reads and writes follow the migration cursor.
func (a *RAIDx) BeginGrow(addNodes int, newDevs []raid.Dev, cursor int64) (*Migration, error) {
	if _, _, active := a.Migrating(); active {
		return nil, ErrMigrationActive
	}
	cur := a.Epoch()
	next, err := cur.Grow(addNodes)
	if err != nil {
		return nil, err
	}
	devs := a.Devices()
	need := next.Width() - len(devs)
	if need > 0 {
		if len(newDevs) != need {
			return nil, fmt.Errorf("core: grow by %d nodes needs %d devices, got %d", addNodes, need, len(newDevs))
		}
		if err := a.mem.Append(newDevs); err != nil {
			return nil, err
		}
	} else if len(newDevs) != 0 {
		return nil, fmt.Errorf("core: device table already spans width %d; pass no new devices", len(devs))
	}
	return a.beginMigration(next, cursor)
}

// BeginShrink starts (or resumes) a live contraction by removeNodes
// tail nodes. The retired columns' devices stay in the table but no
// block maps to them once the migration completes.
func (a *RAIDx) BeginShrink(removeNodes int, cursor int64) (*Migration, error) {
	if _, _, active := a.Migrating(); active {
		return nil, ErrMigrationActive
	}
	cur := a.Epoch()
	next, err := cur.Shrink(removeNodes)
	if err != nil {
		return nil, err
	}
	return a.beginMigration(next, cursor)
}
