package raid

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// Span is the block range [Lo, Hi) of member Dev; a negative Dev is the
// range on every member (stripe rows).
type Span struct {
	Dev    int
	Lo, Hi int64
}

// Ticket is what Enter and Open admitted, for Exit, Commit or Abort.
type Ticket uint64

// claimed is set in Window.state while a claim is open; the bits below
// it count the writers admitted without registering their spans.
const claimed = 1 << 62

// Window is the one fence between foreground writes and the background
// copiers that read blocks and write them elsewhere: migration windows,
// restore chunks, AFRAID's parity sync. A copier Opens its spans — claims
// them, then waits for the writes in flight over them to land — copies,
// and Commits (Aborts if the copy failed); a writer Enters its spans,
// waiting while a claim overlaps one, and Exits when its write landed.
// Claim-then-drain cannot starve the copier: the writes it drains are
// finite, later ones wait for it.
//
// Invariant: Enter and Open each claim all of their spans at once, and
// nobody waits while holding a claim, except a copier draining writers
// already past their wait. (A RAIDx write enters the physical window
// while registered in the logical one; no physical copier waits on the
// logical window.) With no claim open, Enter and Exit are one atomic
// operation each and allocate nothing. A wait uses a sync.Cond, or a
// vclock.Gate when ctx carries a vclock.Proc (as par.ForEach chooses);
// never both at once. The zero Window is open.
type Window struct {
	state          atomic.Int64
	mu             sync.Mutex
	cond           sync.Cond
	sim            *vclock.Sim
	gate           *vclock.Gate
	last           Ticket
	claims, writes []held // copiers' spans; writers' registered under a claim
}

type held struct {
	Span
	t Ticket
}

// Enter waits until no claim overlaps spans and registers them.
func (w *Window) Enter(ctx context.Context, spans ...Span) Ticket {
	for s := w.state.Load(); s&claimed == 0; s = w.state.Load() {
		if w.state.CompareAndSwap(s, s+1) {
			return 0
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for hits(w.claims, spans) {
		w.wait(ctx)
	}
	return w.hold(&w.writes, spans)
}

// Exit deregisters the write admitted as t.
func (w *Window) Exit(t Ticket) {
	if t == 0 && w.state.Add(-1) != claimed {
		return // a copier is draining only if this was the last one
	}
	w.mu.Lock()
	w.writes = slices.DeleteFunc(w.writes, func(h held) bool { return h.t == t })
	w.wake()
	w.mu.Unlock()
}

// Open claims spans once no other claim overlaps them, then waits for
// the writes in flight over them to land. Writers admitted without
// registering could be anywhere, so all of them must.
func (w *Window) Open(ctx context.Context, spans ...Span) Ticket {
	w.mu.Lock()
	defer w.mu.Unlock()
	for hits(w.claims, spans) {
		w.wait(ctx)
	}
	if w.state.Load()&claimed == 0 {
		w.state.Add(claimed)
	}
	t := w.hold(&w.claims, spans)
	for w.state.Load() != claimed || hits(w.writes, spans) {
		w.wait(ctx)
	}
	return t
}

// Commit releases the claim t; a writer it held back sees whatever the
// copier published before.
func (w *Window) Commit(t Ticket) {
	w.mu.Lock()
	w.claims = slices.DeleteFunc(w.claims, func(h held) bool { return h.t == t })
	if len(w.claims) == 0 && w.state.Load()&claimed != 0 {
		w.state.Add(-claimed)
	}
	w.wake()
	w.mu.Unlock()
}

// Abort releases the claim t of a copy that did not land.
func (w *Window) Abort(t Ticket) { w.Commit(t) }

func (w *Window) hold(list *[]held, spans []Span) Ticket {
	w.last++
	for _, s := range spans {
		*list = append(*list, held{s, w.last})
	}
	return w.last
}

func hits(list []held, spans []Span) bool {
	for _, h := range list {
		for _, s := range spans {
			if (h.Dev < 0 || s.Dev < 0 || h.Dev == s.Dev) && h.Lo < s.Hi && s.Lo < h.Hi {
				return true
			}
		}
	}
	return false
}

// wait parks the caller until the next wake, with w.mu held around it.
func (w *Window) wait(ctx context.Context) {
	p, sim := vclock.From(ctx)
	if !sim {
		if w.cond.L == nil {
			w.cond.L = &w.mu
		}
		w.cond.Wait()
		return
	}
	if w.sim != p.Sim() {
		w.sim, w.gate = p.Sim(), vclock.NewGate(p.Sim(), "raid.Window")
	}
	w.mu.Unlock()
	w.gate.Wait(p)
	w.mu.Lock()
}

// wake lets every waiter re-check; w.mu is held.
func (w *Window) wake() {
	w.cond.Broadcast()
	if w.gate != nil {
		w.gate.Broadcast()
	}
}
