// Package vclock implements a deterministic discrete-event simulation
// clock with cooperative processes, FCFS resources, gates, and barriers.
//
// The simulator reproduces the timing behaviour of the USC Trojans
// cluster testbed (disks, NICs, CPUs) without real hardware: client
// workloads run as Procs, and every disk or network operation charges
// virtual time on a Resource. Exactly one Proc executes at any instant,
// and wakeups are ordered by (time, sequence number), so every run is
// bit-for-bit reproducible.
//
// A Proc is backed by a goroutine, but control is handed off explicitly:
// the scheduler resumes one Proc, which runs until it sleeps, parks, or
// finishes, then control returns to the scheduler. Because only one Proc
// runs at a time, simulation state needs no locking.
package vclock

import (
	"fmt"
	"sort"
	"time"
)

// event is a scheduled wakeup for a parked Proc.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
}

// Sim is a discrete-event simulator instance. Create one with New, add
// processes with Spawn, and execute them with Run.
type Sim struct {
	now     time.Duration
	seq     uint64
	heap    []event
	yield   chan struct{}
	live    int
	running *Proc
	parked  map[*Proc]string
	started bool
	trace   *Trace
}

// New returns an empty simulator positioned at virtual time zero.
func New() *Sim {
	return &Sim{
		yield:  make(chan struct{}),
		parked: make(map[*Proc]string),
	}
}

// Now reports the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Proc is a simulated process. All methods must be called from within
// the process's own function body (they suspend the calling goroutine).
type Proc struct {
	s      *Sim
	name   string
	resume chan struct{}
	done   bool
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator that owns this process.
func (p *Proc) Sim() *Sim { return p.s }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.s.now }

// Spawn registers fn as a new process. It may be called before Run or
// from inside a running process; the new process starts at the current
// virtual time, after the caller next yields.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, resume: make(chan struct{})}
	s.live++
	s.schedule(s.now, p)
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		s.live--
		s.running = nil
		s.trace.add(TraceEvent{At: s.now, Kind: TraceFinish, Proc: p.name})
		s.yield <- struct{}{}
	}()
	return p
}

// schedule enqueues a wakeup for p at time at.
func (s *Sim) schedule(at time.Duration, p *Proc) {
	s.seq++
	ev := event{at: at, seq: s.seq, p: p}
	s.heap = append(s.heap, ev)
	s.up(len(s.heap) - 1)
}

func (s *Sim) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Sim) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
}

func (s *Sim) less(i, j int) bool {
	if s.heap[i].at != s.heap[j].at {
		return s.heap[i].at < s.heap[j].at
	}
	return s.heap[i].seq < s.heap[j].seq
}

func (s *Sim) pop() event {
	ev := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.down(0)
	}
	return ev
}

// Run executes the simulation until every process has finished. It
// returns a DeadlockError if processes remain parked with no pending
// wakeups (for example, a Gate.Wait that is never signalled).
func (s *Sim) Run() error {
	if s.started {
		return fmt.Errorf("vclock: Run called twice")
	}
	s.started = true
	for {
		if len(s.heap) == 0 {
			if s.live == 0 {
				return nil
			}
			return s.deadlock()
		}
		ev := s.pop()
		if ev.at < s.now {
			panic("vclock: time went backwards")
		}
		s.now = ev.at
		s.running = ev.p
		delete(s.parked, ev.p)
		s.trace.add(TraceEvent{At: s.now, Kind: TraceResume, Proc: ev.p.name})
		ev.p.resume <- struct{}{}
		<-s.yield
	}
}

func (s *Sim) deadlock() error {
	var names []string
	for p, where := range s.parked {
		names = append(names, fmt.Sprintf("%s (parked at %s)", p.name, where))
	}
	sort.Strings(names)
	return &DeadlockError{Now: s.now, Procs: names}
}

// DeadlockError reports that Run stopped with live processes parked and
// no scheduled wakeups.
type DeadlockError struct {
	Now   time.Duration
	Procs []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vclock: deadlock at t=%v: %d process(es) parked: %v", e.Now, len(e.Procs), e.Procs)
}

// Sleep suspends the process for d of virtual time. Negative durations
// are treated as zero; Sleep(0) yields to other runnable processes at
// the same timestamp.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.s.trace.add(TraceEvent{At: p.s.now, Kind: TraceSleep, Proc: p.name, Extra: d.String()})
	p.s.schedule(p.s.now+d, p)
	p.s.running = nil
	p.s.yield <- struct{}{}
	<-p.resume
}

// SleepUntil suspends the process until virtual time t (a no-op if t is
// in the past).
func (p *Proc) SleepUntil(t time.Duration) {
	p.Sleep(t - p.s.now)
}

// park suspends the process indefinitely; some other process must wake
// it via Gate or Barrier. where is used for deadlock diagnostics.
func (p *Proc) park(where string) {
	p.s.trace.add(TraceEvent{At: p.s.now, Kind: TracePark, Proc: p.name, Extra: where})
	p.s.parked[p] = where
	p.s.running = nil
	p.s.yield <- struct{}{}
	<-p.resume
}
