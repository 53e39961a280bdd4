package repair

// Online membership changes ride the repair supervisor's machinery: a
// grow or shrink is a checkpointed, paced background job exactly like a
// rebuild — it shares the QoS pace hook, persists its cursor into
// StateDir with the same atomic discipline, survives restarts, and is
// mutually exclusive with device-recovery jobs (moving blocks while
// re-deriving them from their copies would race).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
)

// ErrRebalanceActive: a membership change is in flight; rebuilds,
// resyncs, and further membership changes must wait for it.
var ErrRebalanceActive = errors.New("repair: rebalance in progress")

// ErrRepairBusy: a recovery job is running (or a member is mid-recovery),
// so a membership change may not start — heal first, then rebalance.
var ErrRepairBusy = errors.New("repair: recovery in progress")

// RebalanceCkpt is the durable record of the array's layout epoch and
// any in-flight migration, written to StateDir/epoch.json. The reopen
// path reads it before building the array: Source is the stable epoch
// to position at, and when Done is false the recorded action resumes
// from Cursor — a delta resync of the uncopied remainder, not a
// restart.
type RebalanceCkpt struct {
	Source layout.EpochDesc `json:"source"`
	Action string           `json:"action,omitempty"` // "grow" | "shrink"
	Nodes  int              `json:"nodes,omitempty"`
	Cursor int64            `json:"cursor"`
	Done   bool             `json:"done"`
}

// rebalanceFile names the epoch checkpoint inside a state directory.
func rebalanceFile(dir string) string { return filepath.Join(dir, "epoch.json") }

// LoadRebalance reads a state directory's epoch checkpoint. A missing
// file returns (nil, nil): the array has only ever had its seed layout.
func LoadRebalance(fs store.FS, dir string) (*RebalanceCkpt, error) {
	raw, err := store.ReadFileFS(fs, rebalanceFile(dir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var ck RebalanceCkpt
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, fmt.Errorf("repair: corrupt epoch checkpoint: %w", err)
	}
	return &ck, nil
}

// SaveRebalance atomically writes a state directory's epoch checkpoint.
func SaveRebalance(fs store.FS, dir string, ck *RebalanceCkpt) error {
	raw, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(fs, rebalanceFile(dir), raw)
}

// rebalanceJob is the supervisor's state of the membership-change job,
// guarded by Supervisor.mu.
type rebalanceJob struct {
	action string // "grow" | "shrink", "" before any change
	source layout.EpochDesc
	nodes  int
	err    string
	mig    *core.Migration // the migration the runner drives
	done   func(context.Context)
}

// OnRebalanceDone registers f, before Start, to run on the rebalance
// runner each time a membership change completes — after the done record
// is down, while the job still reports running — so Stop waits for it and
// ends its context (Pause does not). The rebalance coordinator's
// completion broadcast.
func (s *Supervisor) OnRebalanceDone(f func(ctx context.Context)) { s.reb.done = f }

// RebalanceStatus is the supervisor's view of the membership job.
type RebalanceStatus struct {
	core.MigrateStatus
	Action  string `json:"action"`
	Running bool   `json:"running"`
	LastErr string `json:"last_err,omitempty"`
}

// rebalancer returns the array as the one engine that supports membership
// changes, or nil for any other policy.
func (s *Supervisor) rebalancer() *core.RAIDx {
	r, _ := s.arr.(*core.RAIDx)
	return r
}

// rebalanceActive reports whether a migration is in flight on the
// array (running or paused).
func (s *Supervisor) rebalanceActive() bool {
	r := s.rebalancer()
	if r == nil {
		return false
	}
	_, _, active := r.Migrating()
	return active
}

// recoveryBusy reports whether recovery is owed: the slot runs a recovery
// job, or some member Owns.
func (s *Supervisor) recoveryBusy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeLocked() >= 0 || slices.ContainsFunc(s.devs, func(d DevStatus) bool { return d.State.owed() })
}

// StartGrow begins (cursor 0) or resumes a live expansion by addNodes
// nodes, driven as a paced background job. newDevs are the new nodes'
// disks in layout order; nil on resume when the device table already
// spans the target width.
func (s *Supervisor) StartGrow(addNodes int, newDevs []raid.Dev, cursor int64) error {
	return s.StartRebalance("grow", addNodes, newDevs, cursor)
}

// StartShrink begins or resumes a live contraction by removeNodes tail
// nodes.
func (s *Supervisor) StartShrink(removeNodes int, cursor int64) error {
	return s.StartRebalance("shrink", removeNodes, nil, cursor)
}

// StartRebalance is StartGrow or StartShrink by name, as wire requests
// and the epoch checkpoint spell the action; any other name is refused.
func (s *Supervisor) StartRebalance(action string, nodes int, newDevs []raid.Dev, cursor int64) error {
	r := s.rebalancer()
	if r == nil {
		return fmt.Errorf("repair: array does not support membership changes")
	}
	s.mu.Lock()
	running := s.job != nil && s.job.dev < 0 // a finished migration's runner may still be writing its done record
	s.mu.Unlock()
	if running || s.rebalanceActive() {
		return ErrRebalanceActive
	}
	if s.recoveryBusy() {
		return ErrRepairBusy
	}
	var (
		m   *core.Migration
		err error
	)
	source := r.Epoch().Desc()
	switch action {
	case "grow":
		m, err = r.BeginGrow(nodes, newDevs, cursor)
	case "shrink":
		m, err = r.BeginShrink(nodes, cursor)
	default:
		return fmt.Errorf("repair: unknown rebalance action %q", action)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.reb.action, s.reb.source, s.reb.nodes, s.reb.err = action, source, nodes, ""
	s.mu.Unlock()
	// Best effort: a failed initial write self-heals at the first window
	// checkpoint, which persists the same full record.
	_ = s.saveRebalanceCkpt(cursor, false)
	// Only now may a runner go: one kicked by tick before the job's record
	// was down would checkpoint windows under the previous job's name, and
	// could even finish and see its done record overwritten by that write.
	s.mu.Lock()
	s.reb.mig = m
	s.mu.Unlock()
	s.events.Append(obs.EventRebalanceStart, "repair",
		fmt.Sprintf("%s by %d nodes, resume at block %d", action, nodes, cursor))
	// Refused while paused or before Start: tick launches it then.
	s.launch(-1, func(ctx context.Context) { s.runRebalance(ctx, m) })
	return nil
}

// runRebalance drives the migration to completion (or to a pause/error
// abort) on the job slot. The cursor is persisted durably on every
// window, BEFORE the engine commits it: foreground writes route to
// new-epoch homes only at or below the durable cursor, so a coordinator
// crash and resume from the checkpoint can never re-copy old homes over
// acknowledged writes.
func (s *Supervisor) runRebalance(ctx context.Context, m *core.Migration) {
	err := m.Run(ctx, s.pace, func(cursor int64) error {
		return s.saveRebalanceCkpt(cursor, false)
	})
	if err != nil {
		if !errors.Is(err, ErrPaused) && ctx.Err() == nil {
			s.mu.Lock()
			s.reb.err = err.Error()
			s.mu.Unlock()
			s.events.Append(obs.EventRepairState, "repair", "rebalance error: "+err.Error())
		}
		return
	}
	s.mu.Lock()
	s.reb.err, s.reb.mig = "", nil // done: nothing left for tick to launch
	broadcast := s.ctx             // Stop's context: a Pause now must not cut the broadcast
	s.mu.Unlock()
	// Best effort: if the done record misses, the last per-window
	// checkpoint holds cursor = Blocks(), so a restart resumes into an
	// immediately-finishing migration and rewrites it.
	_ = s.saveRebalanceCkpt(0, true)
	s.events.Append(obs.EventRebalanceEnd, "repair",
		fmt.Sprintf("moved %d blocks (%d bytes)", m.Status().MovedBlocks, m.Status().MovedBytes))
	if s.reb.done != nil {
		s.reb.done(broadcast)
	}
}

// saveRebalanceCkpt writes the epoch checkpoint and returns the write
// error: the migration runner must not commit a window whose cursor
// never reached stable storage. On done the stable epoch is the (new)
// current one and no action is pending.
func (s *Supervisor) saveRebalanceCkpt(cursor int64, done bool) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	r := s.rebalancer()
	if r == nil {
		return nil
	}
	var ck RebalanceCkpt
	if done {
		ck = RebalanceCkpt{Source: r.Epoch().Desc(), Cursor: r.Blocks(), Done: true}
	} else {
		s.mu.Lock()
		ck = RebalanceCkpt{Source: s.reb.source, Action: s.reb.action, Nodes: s.reb.nodes, Cursor: cursor}
		s.mu.Unlock()
	}
	if err := SaveRebalance(s.fsys(), s.cfg.StateDir, &ck); err != nil {
		s.events.Append(obs.EventRepairState, "repair",
			fmt.Sprintf("epoch checkpoint save failed: %v", err))
		return err
	}
	return nil
}

// RebalanceStatus snapshots the membership job; nil when the array has
// no migration in flight and none has run.
func (s *Supervisor) RebalanceStatus() *RebalanceStatus {
	r := s.rebalancer()
	if r == nil {
		return nil
	}
	m := r.CurrentMigration()
	s.mu.Lock()
	action, running, lastErr := s.reb.action, s.job != nil && s.job.dev < 0, s.reb.err
	s.mu.Unlock()
	if m == nil {
		if action == "" {
			return nil
		}
		// A completed (or never-started-this-process) job: report the
		// stable epoch. Its runner may still be going — writing the done
		// record, running the OnRebalanceDone hook.
		return &RebalanceStatus{
			MigrateStatus: core.MigrateStatus{
				ToGen:  r.Epoch().Gen(),
				Cursor: r.Blocks(),
				Blocks: r.Blocks(),
				Done:   true,
				Target: r.Epoch().Desc(),
			},
			Action:  action,
			Running: running,
			LastErr: lastErr,
		}
	}
	return &RebalanceStatus{MigrateStatus: m.Status(), Action: action, Running: running, LastErr: lastErr}
}
