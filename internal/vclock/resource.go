package vclock

import (
	"fmt"
	"time"
)

// Resource models a FCFS service center with a fixed number of servers
// (capacity), such as a disk arm, a NIC direction, or a CPU. Requests
// are served in the order they arrive; each request occupies one server
// for its service duration.
//
// Use charges the calling process (it sleeps for queueing delay plus
// service time). Reserve charges the resource without blocking the
// caller, modelling background work such as delayed mirror writes: the
// resource stays busy and later foreground requests queue behind the
// reservation, but the reserving process continues immediately.
type Resource struct {
	s    *Sim
	name string
	// free[i] is the virtual time at which server i becomes idle.
	free []time.Duration
	// busy accumulates total service time for utilization reporting.
	busy time.Duration
	// ops counts requests (Use + Reserve).
	ops int64
}

// NewResource creates a resource with the given number of parallel
// servers. Capacity must be at least 1.
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("vclock: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{s: s, name: name, free: make([]time.Duration, capacity)}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// earliest returns the index of the server that frees up first.
func (r *Resource) earliest() int {
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	return best
}

// Use blocks the process until a server is available, then holds it for
// d. It returns the virtual time at which service started (after any
// queueing delay).
func (r *Resource) Use(p *Proc, d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	i := r.earliest()
	start := r.free[i]
	if now := r.s.now; start < now {
		start = now
	}
	r.free[i] = start + d
	r.busy += d
	r.ops++
	p.SleepUntil(start + d)
	return start
}

// Reserve occupies a server for d without blocking the caller. The work
// is queued FCFS exactly as Use would queue it; subsequent requests wait
// behind it. It returns the time at which the reserved work will finish.
func (r *Resource) Reserve(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	i := r.earliest()
	start := r.free[i]
	if now := r.s.now; start < now {
		start = now
	}
	r.free[i] = start + d
	r.busy += d
	r.ops++
	return start + d
}

// DrainTime reports the virtual time at which all queued and reserved
// work completes.
func (r *Resource) DrainTime() time.Duration {
	t := r.free[0]
	for _, f := range r.free[1:] {
		if f > t {
			t = f
		}
	}
	if now := r.s.now; t < now {
		t = now
	}
	return t
}

// Drain blocks the process until all currently queued work (including
// reservations) has completed. Work enqueued while draining extends the
// wait.
func (r *Resource) Drain(p *Proc) {
	for {
		t := r.DrainTime()
		if t <= p.Now() {
			return
		}
		p.SleepUntil(t)
	}
}

// Backlog reports how long a request arriving now would wait before
// service begins (the earliest server's remaining queue).
func (r *Resource) Backlog() time.Duration {
	free := r.free[r.earliest()]
	if free <= r.s.now {
		return 0
	}
	return free - r.s.now
}

// BusyTime reports accumulated service time across all servers.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// Ops reports the number of requests served or reserved.
func (r *Resource) Ops() int64 { return r.ops }

// Utilization reports busy time divided by (elapsed time x capacity),
// using the simulator's current time as the window end.
func (r *Resource) Utilization() float64 {
	elapsed := r.s.now
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(elapsed) * float64(len(r.free)))
}

// Gate is a wait/notify point: processes park on Wait until another
// process calls Signal (wake one) or Broadcast (wake all).
type Gate struct {
	s       *Sim
	name    string
	waiters []*Proc
}

// NewGate creates a gate owned by s. The name appears in deadlock
// diagnostics.
func NewGate(s *Sim, name string) *Gate {
	return &Gate{s: s, name: name}
}

// Wait parks the calling process until signalled.
func (g *Gate) Wait(p *Proc) {
	g.waiters = append(g.waiters, p)
	p.park("gate:" + g.name)
}

// Signal wakes the longest-waiting process, if any, at the current time.
// It reports whether a process was woken.
func (g *Gate) Signal() bool {
	if len(g.waiters) == 0 {
		return false
	}
	p := g.waiters[0]
	g.waiters = g.waiters[1:]
	g.s.schedule(g.s.now, p)
	return true
}

// Broadcast wakes all waiting processes at the current time and returns
// how many were woken.
func (g *Gate) Broadcast() int {
	n := len(g.waiters)
	for _, p := range g.waiters {
		g.s.schedule(g.s.now, p)
	}
	g.waiters = nil
	return n
}

// Barrier synchronizes a fixed party of processes, mirroring the
// MPI_Barrier() coordination the paper's benchmark clients use. The
// barrier is reusable: after all n processes arrive, it resets for the
// next round.
type Barrier struct {
	n       int
	arrived int
	gate    *Gate
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(s *Sim, name string, n int) *Barrier {
	if n < 1 {
		panic("vclock: barrier party size < 1")
	}
	return &Barrier{n: n, gate: NewGate(s, "barrier:"+name)}
}

// Wait blocks until all n parties have called Wait for the current
// round.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gate.Broadcast()
		return
	}
	b.gate.Wait(p)
}

// Mutex is a FCFS mutual-exclusion lock for simulated processes.
type Mutex struct {
	held bool
	gate *Gate
}

// NewMutex creates an unlocked mutex.
func NewMutex(s *Sim, name string) *Mutex {
	return &Mutex{gate: NewGate(s, "mutex:"+name)}
}

// Lock acquires the mutex, parking the process while it is held.
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		m.gate.Wait(p)
	}
	m.held = true
}

// Unlock releases the mutex and wakes one waiter.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("vclock: unlock of unlocked mutex")
	}
	m.held = false
	m.gate.Signal()
}
