// Package par provides fork-join parallelism that works both in real
// time (goroutines) and in virtual time (vclock child processes).
//
// Array engines use it to issue per-disk I/O in parallel: a striped read
// touches many disks at once, and the elapsed time must be the maximum
// of the per-disk times, not their sum. When the context carries a
// vclock.Proc, children are spawned as simulated processes so that the
// virtual clock observes the overlap; otherwise the branches run on
// resident worker goroutines (see doReal). A failure cancels no sibling.
package par

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Do runs every function, in parallel, and waits for all of them. It
// returns the first non-nil error in argument order. A nil function is
// skipped. Every function gets the caller's context: one's failure never
// cancels another.
//
// A function must return normally: it runs on the caller's goroutine or
// on a shared worker, so runtime.Goexit (t.FailNow) is not its to call.
//
// Under a traced context the whole fan-out is one "par.do" span (Val =
// branch count), so a waterfall shows the fan-out's wall time as the
// max of its branches, with every branch a child span.
func Do(ctx context.Context, fns ...func(context.Context) error) error {
	live := slices.DeleteFunc(fns, func(fn func(context.Context) error) bool { return fn == nil })
	if len(live) == 1 {
		return live[0](ctx)
	}
	return ForEach(ctx, len(live), func(ctx context.Context, i int) error { return live[i](ctx) })
}

// ForEach runs fn(i) for every i in [0, n) in parallel and returns the
// first error in index order; it is Do over the n calls.
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) (err error) {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return fn(ctx, 0)
	}
	ctx, h := trace.Start(ctx, "par.do", "")
	h.Val = int64(n)
	defer func() { h.End(err) }()
	if p, ok := vclock.From(ctx); ok {
		return doSim(ctx, p, n, fn)
	}
	return doReal(ctx, n, fn)
}

func doSim(ctx context.Context, p *vclock.Proc, n int, fn func(context.Context, int) error) error {
	s := p.Sim()
	errs := make([]error, n)
	remaining := n
	gate := vclock.NewGate(s, "par.Do")
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("%s/par%d", p.Name(), i), func(child *vclock.Proc) {
			errs[i] = fn(vclock.With(ctx, child), i)
			remaining--
			if remaining == 0 {
				gate.Broadcast()
			}
		})
	}
	// The children are scheduled at the current instant; park until the
	// last one finishes.
	if remaining > 0 {
		gate.Wait(p)
	}
	return cmp.Or(errs...) // the first error
}

// join is the state one real-time fan-out shares with its branches. It
// is pooled and cleared on release, so neither the pool nor a parked
// worker pins a finished operation's buffers.
type join struct {
	ctx  context.Context
	fn   func(context.Context, int) error
	errs []error
	wg   sync.WaitGroup
}

// task is one branch handed to a resident worker.
type task struct {
	j *join
	i int
}

// The resident workers (DESIGN.md §10). parked counts the workers
// committed to receiving from tasks: a sender that took one out of the
// count (hire) waits only for that worker to reach its receive, and a
// branch nobody is parked for starts a worker of its own, so a nested
// or wider-than-ever fan-out never waits for one and there is no cap.
var (
	joins   = sync.Pool{New: func() any { return new(join) }}
	tasks   = make(chan task)
	parked  atomic.Int64
	started atomic.Int64 // workers ever started; read by tests
)

// A worker leaves on the second idleExit tick that finds it parked.
const idleExit = 200 * time.Millisecond

// hire takes one parked worker out of the count. A failed attempt shows
// the count too low for a moment, never too high.
func hire() bool {
	if parked.Add(-1) >= 0 {
		return true
	}
	parked.Add(1)
	return false
}

func work(t task) {
	tick := time.NewTicker(idleExit)
	defer tick.Stop()
	for {
		j := t.j
		j.errs[t.i] = j.fn(j.ctx, t.i)
		t = task{}
		// Parked before Done: once Do returns, the next one can hire
		// every worker it used.
		parked.Add(1)
		j.wg.Done()
		for idle := false; t.j == nil; {
			select {
			case t = <-tasks:
			case <-tick.C:
				// Leaving takes this worker's own place in the count;
				// when a sender already has, its task is on the way.
				if idle && hire() {
					return
				}
				idle = true
			}
		}
	}
}

// doReal hands n-1 branches to resident workers, whose stacks are
// already grown, and runs the last on the caller, whose stack is deep. It
// joins as doSim does.
func doReal(ctx context.Context, n int, fn func(context.Context, int) error) error {
	j := joins.Get().(*join)
	j.ctx, j.fn, j.errs = ctx, fn, slices.Grow(j.errs, n)[:n]
	j.wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		if hire() {
			tasks <- task{j, i}
			continue
		}
		started.Add(1)
		go work(task{j, i})
	}
	j.errs[n-1] = fn(ctx, n-1)
	j.wg.Wait()
	err := cmp.Or(j.errs...)
	clear(j.errs)
	j.ctx, j.fn, j.errs = nil, nil, j.errs[:0]
	joins.Put(j) // not deferred: a panicking branch leaves its siblings running on j
	return err
}
