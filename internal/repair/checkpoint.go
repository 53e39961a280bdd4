package repair

// Local crash-consistent persistence of the supervisor's own state: the
// array's write-intent snapshot and the per-device job checkpoints are
// saved into Config.StateDir with the atomic tmp+rename+dir-fsync
// discipline, and loaded at construction — BEFORE any peer recovery —
// so a restarted repair host knows its own missed blocks and resumes
// interrupted rebuilds without asking the cluster. Peer-replicated
// snapshots (Config.Persist) remain the fallback when the local state
// die with the machine; merging both is safe because intent snapshots
// union.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
)

// devCheckpoint is the durable slice of one member's DevStatus: enough
// to resume its recovery job, nothing that the health poll re-derives.
type devCheckpoint struct {
	State       State                `json:"state"`
	Prog        raid.RebuildProgress `json:"rebuild,omitempty"`
	ResyncBytes int64                `json:"resync_bytes,omitempty"`
	Rebuilds    int                  `json:"rebuilds,omitempty"`
	Resyncs     int                  `json:"resyncs,omitempty"`
}

// checkpointFile is the on-disk JSON shape.
type checkpointFile struct {
	Version int             `json:"version"`
	Devices []devCheckpoint `json:"devices"`
}

func (s *Supervisor) fsys() store.FS {
	if s.cfg.FS != nil {
		return s.cfg.FS
	}
	return store.OS
}

func (s *Supervisor) intentPath() string {
	return filepath.Join(s.cfg.StateDir, "intent.snap")
}

func (s *Supervisor) checkpointPath() string {
	return filepath.Join(s.cfg.StateDir, "repair.ckpt")
}

// recoverLocal folds the locally persisted intent snapshot into the
// array's live log and restores job checkpoints. Called from New, while
// s is still private to the constructor. Failures are logged and
// non-fatal: missing files mean a fresh host, a geometry mismatch means
// the array was re-created and the old state is meaningless.
func (s *Supervisor) recoverLocal() {
	il := s.mem.Intent()
	err := il.LoadFrom(s.fsys(), s.intentPath())
	missed := int64(0)
	for i := range s.devs {
		missed += il.MissedBlocks(i)
	}
	if err != nil {
		s.events.Append(obs.EventRepairState, "repair",
			fmt.Sprintf("stale local intent snapshot ignored: %v", err))
	} else if missed > 0 {
		s.events.Append(obs.EventRepairState, "repair",
			"recovered dirty map from local intent snapshot")
	}

	raw, err := store.ReadFileFS(s.fsys(), s.checkpointPath())
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.events.Append(obs.EventRepairState, "repair",
				fmt.Sprintf("unreadable local checkpoint ignored: %v", err))
		}
		return
	}
	var ck checkpointFile
	if err := json.Unmarshal(raw, &ck); err != nil {
		s.events.Append(obs.EventRepairState, "repair",
			fmt.Sprintf("corrupt local checkpoint ignored: %v", err))
		return
	}
	for i, d := range ck.Devices {
		if i >= len(s.devs) {
			break
		}
		st := &s.devs[i]
		st.ResyncBytes = d.ResyncBytes
		st.Rebuilds = d.Rebuilds
		st.Resyncs = d.Resyncs
		if d.State.owed() {
			// An interrupted job: resume it. A crashed-mid-rebuild member
			// continues from the last landed chunk in place; the normal
			// state machine re-degrades the member if it is gone.
			// A member that owes a rebuild is blank, and the rebuild's
			// take held, as before the restart.
			st.State = d.State
			st.Prog = d.Prog
			if d.State == StateRebuilding {
				il.MarkBlank(i)
				il.TakeDirty(i)
			}
			s.events.Append(obs.EventRepairState, fmt.Sprintf("repair/d%d", i),
				fmt.Sprintf("resuming %s from local checkpoint", d.State))
		}
	}
}

// saveLocal persists the intent snapshot (when the log changed) and the
// job checkpoint (when the devices changed) into StateDir. Runs at poll
// cadence from the supervision loop, a job running or not, and once more
// from Stop; each write is atomic, so a crash between or during saves
// leaves the previous consistent state.
func (s *Supervisor) saveLocal(intentChanged bool) {
	if s.cfg.StateDir == "" {
		return
	}
	if intentChanged {
		if err := s.mem.Intent().SaveTo(s.fsys(), s.intentPath()); err != nil {
			s.events.Append(obs.EventRepairState, "repair",
				fmt.Sprintf("local intent snapshot save failed: %v", err))
		}
	}
	s.mu.Lock()
	ck := checkpointFile{Version: 1, Devices: make([]devCheckpoint, len(s.devs))}
	for i := range s.devs {
		d := &s.devs[i]
		ck.Devices[i] = devCheckpoint{
			State:       d.State,
			Prog:        d.Prog,
			ResyncBytes: d.ResyncBytes,
			Rebuilds:    d.Rebuilds,
			Resyncs:     d.Resyncs,
		}
	}
	s.mu.Unlock()
	raw, err := json.Marshal(ck)
	if err != nil {
		return
	}
	s.mu.Lock()
	changed := string(raw) != s.lastCkpt
	s.lastCkpt = string(raw)
	s.mu.Unlock()
	if !changed {
		return
	}
	if err := store.WriteFileAtomic(s.fsys(), s.checkpointPath(), raw); err != nil {
		s.events.Append(obs.EventRepairState, "repair",
			fmt.Sprintf("local checkpoint save failed: %v", err))
	}
}
