// Package repair implements the self-healing supervisor: a per-device
// state machine that watches array-member health and runs recovery as
// rate-limited, checkpointed background jobs, so the array heals from
// failure churn without an operator.
//
// Each member moves through
//
//	healthy → suspect → degraded → rebuilding → healthy
//	healthy → suspect → resyncing → healthy
//
// A member that stops answering becomes suspect. If it returns before
// the failure budget expires, the supervisor replays only the blocks
// the intent log holds missed on it (delta resync, then a sampled scrub)
// — a two-second blip costs seconds of copying, not a whole disk. If
// the budget expires, the member is degraded: the supervisor takes a
// hot spare from its pool, swaps it in, and rebuilds it from the
// array's redundancy. Jobs checkpoint their progress, pause and
// resume on demand, survive interruption (a crash-mid-rebuild resumes
// from the last landed chunk), and pace themselves through a byte-rate
// throttle so foreground I/O keeps priority.
//
// The decision rule between the two recovery paths is the member's
// content state in the intent log, not its health state: a blank member
// (a swapped-in spare, a rebuild target) is rebuilt in full and
// checkpointed; one that missed some blocks — readmitted after a
// partition or restart, or healthy all along while a write failed on it
// or a fence dropped an image — is resynced at once. Ahead marks start
// no job; the supervisor ages them out after persisting them. Each job
// takes its blocks from the log and commits them when it completes; a
// job that fails leaves them taken for the next one. A scrub mismatch
// after resync means intent tracking lost a write, and the supervisor
// escalates that device to a full rebuild-in-place.
package repair

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
)

// State is one node of the per-device repair state machine.
type State string

const (
	// StateHealthy: the device answers and no intents are outstanding.
	StateHealthy State = "healthy"
	// StateSuspect: the device stopped answering; the failure budget is
	// running.
	StateSuspect State = "suspect"
	// StateDegraded: the budget expired; the supervisor is waiting to
	// install a spare (or has none).
	StateDegraded State = "degraded"
	// StateRebuilding: a full background copy onto the device is in
	// progress (fresh spare, or escalated after a failed scrub).
	StateRebuilding State = "rebuilding"
	// StateResyncing: dirty regions are being replayed onto a readmitted
	// device.
	StateResyncing State = "resyncing"
)

// Code maps a state onto the numeric scale the repair.dev_state{dev=…}
// gauge exports: 0 healthy rising to 4 mid-recovery, so a dashboard can
// threshold on "anything above zero".
func (st State) Code() int64 {
	switch st {
	case StateHealthy:
		return 0
	case StateSuspect:
		return 1
	case StateDegraded:
		return 2
	case StateRebuilding:
		return 3
	case StateResyncing:
		return 4
	}
	return -1
}

// owed reports whether a member in this state is owed a recovery job.
func (st State) owed() bool {
	return st == StateDegraded || st == StateRebuilding || st == StateResyncing
}

// Array is what the supervisor drives: any engine the policy-independent
// repair loop of internal/raid can restore — its member table (devices,
// write-intent log) plus the policy's Reconstruct.
type Array = raid.Restorer

// Config tunes the supervisor.
type Config struct {
	// Poll is the health-scan interval (default 250ms).
	Poll time.Duration
	// FailureBudget is how long a member may stay unresponsive before
	// the supervisor gives up on readmission and swaps a spare
	// (raidxnode's -repair-budget: 5s). A budget of 0 escalates on the
	// first poll.
	FailureBudget time.Duration
	// Pace, when set, is consulted before every supervised transfer —
	// the hook that paces repair, resync, scrub and rebalance traffic
	// through the node's QoS background bucket (qos.Scheduler.Wait), so
	// maintenance I/O runs beneath foreground serving instead of racing
	// it. It is the only bandwidth cap (nil: unpaced).
	Pace raid.PaceFunc
	// ScrubStride samples every stride-th block after a resync
	// (0 takes the repair loop's default). Negative disables the scrub.
	ScrubStride int64
	// Persist, when set, receives intent-log snapshots whenever the log
	// changed since the last call (at poll cadence). raidxnode wires it
	// to replicate the snapshot through the CDD managers.
	Persist func(snapshot []byte)
	// StateDir, when set, persists supervisor state locally: the intent
	// snapshot and the per-device job checkpoints are written there with
	// the atomic tmp+rename+dir-fsync discipline at poll cadence, and
	// loaded back — before any peer recovery — when a supervisor is
	// constructed over the same directory. A restarted repair host then
	// knows its own dirty regions and resumes interrupted jobs without
	// asking the cluster.
	StateDir string
	// FS is the file system StateDir lives on (nil: the real one).
	// Tests inject a store.FaultFS here to exercise crash recovery.
	FS store.FS
	// Obs receives repair events and gauges (nil: no instrumentation).
	Obs *obs.Registry
}

// DevStatus is the supervisor's view of one member (exported for the
// wire status raidxctl decodes).
type DevStatus struct {
	State State `json:"state"`
	// Since is when the device entered its current state.
	Since time.Time `json:"since"`
	// Prog checkpoints an interrupted rebuild for resume.
	Prog raid.RebuildProgress `json:"rebuild,omitempty"`
	// ResyncBytes accumulates delta-resync traffic for the device.
	ResyncBytes int64 `json:"resync_bytes"`
	// Rebuilds / Resyncs count completed recoveries.
	Rebuilds int `json:"rebuilds"`
	Resyncs  int `json:"resyncs"`
	// LastErr is the most recent job failure (cleared on success).
	LastErr string `json:"last_err,omitempty"`

	unhealthySince time.Time
}

// Status is the supervisor's queryable state (the JSON raidxctl shows).
type Status struct {
	Paused  bool        `json:"paused"`
	Active  int         `json:"active"` // device index of the running job, -1 when idle
	Spares  int         `json:"spares"` // -1 when no spare pool is attached
	Devices []DevStatus `json:"devices"`
	// Rebalance reports the membership-change job, nil when the array
	// has never had one (or does not support them).
	Rebalance *RebalanceStatus `json:"rebalance,omitempty"`
}

// Supervisor runs the repair state machine over an array.
type Supervisor struct {
	arr Array
	mem *raid.Members // arr's member table: devices and write-intent log
	cfg Config

	events *obs.EventLog
	stateG *obs.GaugeVec

	mu       sync.Mutex
	devs     []DevStatus
	spares   []raid.Dev // the hot-spare pool, installed last first; nil: none
	paused   bool
	job      *job   // the one running job; nil when idle
	lastGen  uint64 // intent-log generation last persisted
	lastCkpt string // last checkpoint JSON written to StateDir

	reb rebalanceJob // the membership-change job; see rebalance.go

	// ctx is the context Start created; the supervision loop and the job
	// are its children, counted in wg, so Stop cancels both and returns
	// only once both have exited.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// job is the supervisor's one job slot: a recovery job, or the rebalance.
type job struct {
	cancel context.CancelFunc
	dev    int // the member a recovery job owns; -1 for the rebalance
}

// ErrPaused aborts a running job when the supervisor is paused or
// stopped; the job's checkpoint survives for the next resume.
var ErrPaused = fmt.Errorf("repair: paused")

// New builds a supervisor over the array with a pool of hot spares.
// spares may be nil (no pool: degraded members wait for an operator).
func New(arr Array, spares []raid.Dev, cfg Config) *Supervisor {
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.FailureBudget < 0 {
		cfg.FailureBudget = 0
	}
	n := len(arr.Members().Load().Devs)
	s := &Supervisor{
		arr:    arr,
		mem:    arr.Members(),
		spares: spares,
		cfg:    cfg,
		events: cfg.Obs.Events(),
		devs:   make([]DevStatus, n),
	}
	now := time.Now()
	for i := range s.devs {
		s.devs[i] = DevStatus{State: StateHealthy, Since: now}
	}
	if cfg.StateDir != "" {
		s.recoverLocal()
	}
	if cfg.Obs != nil {
		cfg.Obs.RegisterGauge("repair.paused", func() int64 {
			if s.Paused() {
				return 1
			}
			return 0
		})
		cfg.Obs.RegisterGauge("repair.active", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.activeLocked())
		})
		cfg.Obs.RegisterGauge("repair.resync_bytes", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var n int64
			for i := range s.devs {
				n += s.devs[i].ResyncBytes
			}
			return n
		})
		if s.rebalancer() != nil {
			// The membership job's progress: the cursor reaches the
			// total when it is done.
			progress := func() (st RebalanceStatus) {
				if p := s.RebalanceStatus(); p != nil {
					st = *p
				}
				return st
			}
			cfg.Obs.RegisterGauge("rebalance.cursor_blocks", func() int64 { return progress().Cursor })
			cfg.Obs.RegisterGauge("rebalance.total_blocks", func() int64 { return progress().Blocks })
		}
		s.stateG = cfg.Obs.GaugeVec("repair.dev_state", "dev")
		for i := range s.devs {
			s.stateG.With(strconv.Itoa(i)).Set(s.devs[i].State.Code())
		}
	}
	return s
}

// Start launches the supervision loop. Stop (or ctx cancellation) ends it.
func (s *Supervisor) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.ctx, s.stop = ctx, cancel
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.Poll)
		defer t.Stop()
		for {
			s.tick()
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
}

// Stop halts the loop and cancels the running job, a rebalance included
// (its checkpoint survives; a later Start resumes it), then persists once
// more, so StateDir holds the job's last landed chunk. When Stop returns
// the supervisor moves no more blocks and writes no more state.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	// Cancelled under mu: launch checks the context and joins wg under
	// the same lock, so no job starts past this point.
	if s.stop != nil {
		s.stop()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.persist()
}

// Pause suspends repair: the running job is cancelled at its next pace
// point (checkpoint intact) and no new jobs start until Resume.
func (s *Supervisor) Pause() {
	s.mu.Lock()
	s.paused = true
	if s.job != nil {
		s.job.cancel()
	}
	s.mu.Unlock()
	s.events.Append(obs.EventRepairState, "repair", "paused")
}

// Resume lifts a Pause.
func (s *Supervisor) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
	s.events.Append(obs.EventRepairState, "repair", "resumed")
}

// Paused reports whether repair is suspended.
func (s *Supervisor) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// DevState reports the repair state of member idx.
func (s *Supervisor) DevState(idx int) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.devs) {
		return ""
	}
	return s.devs[idx].State
}

// Owns reports whether the supervisor currently owns recovery of member
// idx — a manual rebuild would run a second conflicting copy.
func (s *Supervisor) Owns(idx int) bool { return s.DevState(idx).owed() }

// activeLocked is the member the running job owns, -1 when the slot is
// empty or holds the rebalance. s.mu held.
func (s *Supervisor) activeLocked() int {
	if s.job == nil {
		return -1
	}
	return s.job.dev
}

// launch runs fn on its own goroutine as the one job — recovery of member
// dev, or the rebalance (dev -1) — unless a job holds the slot, repair is
// paused or the supervisor is not running. The job's context is a child
// of Start's, counted in wg: Pause cancels it, Stop waits for it.
func (s *Supervisor) launch(dev int, fn func(context.Context)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.job != nil || s.paused || s.ctx == nil || s.ctx.Err() != nil {
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	s.job = &job{cancel: cancel, dev: dev}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn(ctx)
		cancel()
		s.mu.Lock()
		s.job = nil
		s.mu.Unlock()
	}()
}

// Status snapshots the supervisor for display.
func (s *Supervisor) Status() Status {
	reb := s.RebalanceStatus()
	s.mu.Lock()
	defer s.mu.Unlock()
	spares := -1
	if s.spares != nil {
		spares = len(s.spares)
	}
	return Status{
		Paused:    s.paused,
		Active:    s.activeLocked(),
		Spares:    spares,
		Devices:   append([]DevStatus(nil), s.devs...),
		Rebalance: reb,
	}
}

// StatusJSON is Status marshalled for the wire (the cdd RepairStatus op
// and the /repair HTTP endpoint).
func (s *Supervisor) StatusJSON() ([]byte, error) {
	return json.Marshal(s.Status())
}

// pace is the PaceFunc of every supervised job: it aborts once the job
// is cancelled (Pause, Stop) and waits for cfg.Pace's admission.
func (s *Supervisor) pace(ctx context.Context, bytes int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrPaused, err)
	}
	if s.cfg.Pace != nil {
		if err := s.cfg.Pace(ctx, bytes); err != nil {
			return fmt.Errorf("%w: %v", ErrPaused, err)
		}
	}
	return nil
}

// tick is one pass of the state machine: advance the state of every
// member but the one the running job owns, launch the next job if the
// slot is free, and persist. It never waits for a job.
func (s *Supervisor) tick() {
	devs := s.mem.Load().Devs
	il := s.mem.Intent()
	now := time.Now()
	next := -1
	// During a membership change no recovery job may start (the copier
	// and a rebuild would each re-derive blocks the other is moving);
	// state transitions still track health. A paused or error-aborted
	// migration runner is restarted here once repair is resumed.
	rebalancing := s.rebalanceActive()
	s.mu.Lock()
	owner, mig := s.activeLocked(), s.reb.mig
	// A grow widened the device table: supervise the new members.
	for len(s.devs) < len(devs) {
		s.devs = append(s.devs, DevStatus{State: StateHealthy, Since: now})
	}
	for i := range s.devs {
		if i >= len(devs) {
			break
		}
		if i == owner || raid.ColumnRetired(s.arr, i) {
			// The running job moves its member's state. A shrink removed
			// a retired column's node: it holds no live blocks, is never
			// rebuilt, and must not consume a spare.
			continue
		}
		st := &s.devs[i]
		switch healthy := devs[i] != nil && devs[i].Healthy(); {
		case st.State == StateRebuilding || st.State == StateResyncing:
			if next < 0 {
				next = i
			}
		case !healthy && st.State == StateHealthy:
			st.unhealthySince = now
			s.transitionLocked(i, StateSuspect, "stopped answering")
		case !healthy && st.State == StateSuspect && now.Sub(st.unhealthySince) >= s.cfg.FailureBudget:
			s.transitionLocked(i, StateDegraded, "failure budget exhausted")
		case !healthy && st.State == StateDegraded && next < 0 && len(s.spares) > 0:
			next = i
		case !healthy:
		// The member answers — back even after the budget, before a swap
		// landed, it is still cheaper to repair than a spare to rebuild.
		case il.Blank(i):
			// Blank: a swapped-in spare, or a rebuild target that died
			// mid-rebuild and came back, owes the rebuild.
			s.transitionLocked(i, StateRebuilding, "blank")
		case il.MissedBlocks(i) > 0:
			// A write missed it while it was away, or failed on it, or a
			// fence dropped an image; or a restarted supervisor recovered
			// its map: the copy is stale there now.
			s.transitionLocked(i, StateResyncing, "missed blocks")
		case st.State != StateHealthy:
			s.transitionLocked(i, StateHealthy, "readmitted clean")
		}
	}
	s.mu.Unlock()

	if rebalancing {
		if mig != nil {
			s.launch(-1, func(ctx context.Context) { s.runRebalance(ctx, mig) })
		}
	} else if next >= 0 {
		s.launch(next, func(ctx context.Context) { s.runJob(ctx, next) })
	}
	s.persist()
}

// transitionLocked moves member idx to next and logs the transition.
// s.mu held.
func (s *Supervisor) transitionLocked(idx int, next State, why string) {
	prev := s.devs[idx].State
	if prev == next {
		return
	}
	s.devs[idx].State = next
	s.devs[idx].Since = time.Now()
	// The event log and the state gauge do their own locking and never
	// call back into the supervisor, so updating under s.mu is safe.
	s.stateG.With(strconv.Itoa(idx)).Set(next.Code())
	s.events.Append(obs.EventRepairState, fmt.Sprintf("repair/d%d", idx),
		fmt.Sprintf("%s -> %s: %s", prev, next, why))
}

// runJob executes the recovery owed to member idx on the job slot: the
// spare swap (for a degraded member), then the rebuild or resync.
func (s *Supervisor) runJob(ctx context.Context, idx int) {
	s.mu.Lock()
	state := s.devs[idx].State
	s.mu.Unlock()
	var err error
	switch state {
	case StateDegraded:
		err = s.startFailover(ctx, idx)
	case StateRebuilding:
		err = s.runRebuild(ctx, idx)
	case StateResyncing:
		err = s.runResync(ctx, idx)
	}
	s.mu.Lock()
	if err != nil {
		s.devs[idx].LastErr = err.Error()
	} else {
		s.devs[idx].LastErr = ""
	}
	s.mu.Unlock()
}

// startFailover installs the pool's last spare as degraded member idx,
// then runs the rebuild. A spare the array refuses (geometry) stays in
// the pool.
func (s *Supervisor) startFailover(ctx context.Context, idx int) error {
	s.mu.Lock()
	spare := s.spares[len(s.spares)-1]
	s.spares = s.spares[:len(s.spares)-1]
	s.mu.Unlock()
	if _, err := s.mem.Swap(idx, spare); err != nil {
		s.mu.Lock()
		s.spares = append(s.spares, spare)
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.devs[idx].Prog = raid.RebuildProgress{}
	s.transitionLocked(idx, StateRebuilding, "hot spare installed")
	s.mu.Unlock()
	return s.runRebuild(ctx, idx)
}

// targetFailed handles a job on member idx (what names it) that failed
// with err: if the target device itself died, the member goes back to
// suspect with a fresh failure budget, and the next spare's rebuild
// starts from scratch.
func (s *Supervisor) targetFailed(idx int, what string, err error) {
	if d := s.mem.Load().Devs[idx]; d != nil && d.Healthy() {
		return
	}
	s.mu.Lock()
	s.devs[idx].unhealthySince = time.Now()
	s.devs[idx].Prog = raid.RebuildProgress{}
	s.transitionLocked(idx, StateSuspect, what+" target failed: "+err.Error())
	s.mu.Unlock()
}

// runRebuild runs (or resumes) the full background copy onto member idx.
func (s *Supervisor) runRebuild(ctx context.Context, idx int) error {
	s.mu.Lock()
	prog := s.devs[idx].Prog
	s.mu.Unlock()
	err := raid.RebuildFrom(ctx, s.arr, idx, &prog, func(ctx context.Context, b int) error {
		s.mu.Lock()
		s.devs[idx].Prog = prog
		s.mu.Unlock()
		return s.pace(ctx, b)
	})
	// One critical section: a persist beside the job sees the rebuild
	// either running or complete, never counted and still owed.
	s.mu.Lock()
	s.devs[idx].Prog = prog
	if err == nil {
		s.devs[idx].Rebuilds++
		s.devs[idx].Prog = raid.RebuildProgress{}
		s.transitionLocked(idx, StateHealthy, "rebuild complete")
	}
	s.mu.Unlock()
	if err != nil {
		s.targetFailed(idx, "rebuild", err)
	}
	return err
}

// runResync replays one take of member idx's missed blocks, then
// spot-checks it with a sampled scrub. A failed take stays taken for the
// next job; marks made meanwhile are the next tick's job.
func (s *Supervisor) runResync(ctx context.Context, idx int) error {
	st, err := raid.Resync(ctx, s.arr, idx, s.mem.Intent().TakeDirty(idx), s.pace)
	s.mu.Lock()
	s.devs[idx].ResyncBytes += st.BytesCopied
	s.mu.Unlock()
	if err != nil {
		s.targetFailed(idx, "resync", err)
		return err
	}
	// A block the member is known to miss is no lost write.
	if s.cfg.ScrubStride >= 0 && s.mem.Intent().MissedBlocks(idx) == 0 {
		sc, err := raid.ScrubSample(ctx, s.arr, idx, s.cfg.ScrubStride, s.pace)
		if err != nil {
			s.targetFailed(idx, "scrub", err)
			return err
		}
		if sc.Mismatches > 0 {
			// Intent tracking missed a write: the delta can't be
			// trusted, escalate to a full rebuild-in-place.
			s.mu.Lock()
			s.devs[idx].Prog = raid.RebuildProgress{}
			s.transitionLocked(idx, StateRebuilding,
				fmt.Sprintf("scrub found %d mismatches, escalating to full rebuild", sc.Mismatches))
			s.mu.Unlock()
			return s.runRebuild(ctx, idx)
		}
	}
	s.mu.Lock()
	s.devs[idx].Resyncs++
	s.transitionLocked(idx, StateHealthy, "delta resync complete")
	s.mu.Unlock()
	return nil
}

// persist pushes an intent-log snapshot through cfg.Persist and saves
// the local StateDir copy when the log changed since the last push,
// refreshes the local job checkpoint and, unless repair is paused, ages
// the log's ahead marks.
func (s *Supervisor) persist() {
	il := s.mem.Intent()
	gen := il.Gen()
	s.mu.Lock()
	changed, paused := gen != s.lastGen, s.paused
	s.lastGen = gen
	s.mu.Unlock()
	if changed && s.cfg.Persist != nil {
		if snap, err := il.MarshalBinary(); err == nil {
			s.cfg.Persist(snap)
		}
	}
	s.saveLocal(changed)
	if !paused {
		il.AgeAhead()
	}
}
