package raid

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// DevSwapper is implemented by arrays whose member devices can be
// replaced in place — every redundant engine, through its Members
// table; required for hot sparing.
type DevSwapper interface {
	Rebuilder
	// SwapDev replaces member idx with dev (which must match geometry)
	// and returns the previous device.
	SwapDev(idx int, dev Dev) (Dev, error)
}

// Every redundant engine of this package is repaired by the one loop in
// restore.go and takes hot spares (core.RAIDx asserts the same).
var _, _, _ interface {
	Restorer
	DevSwapper
} = (*Stripe)(nil), (*RAID10)(nil), (*Chained)(nil)

// ErrRepairInFlight reports that a failover or supervised repair
// already owns the member slot — a second conflicting copy must not
// start and a second spare must not be consumed.
var ErrRepairInFlight = errors.New("raid: repair already in flight")

// Sparer manages a pool of hot-spare disks for an array: when a member
// fails, Failover swaps a spare into its slot and rebuilds it from the
// array's redundancy — the automated counterpart of the manual
// fail/replace/rebuild cycle.
type Sparer struct {
	arr DevSwapper

	mu     sync.Mutex
	spares []Dev
	// retired holds failed devices swapped out, for inspection.
	retired []Dev
	// inflight marks member slots with a claimed spare whose repair has
	// not finished: concurrent callers for the same slot get
	// ErrRepairInFlight instead of double-consuming spares (the second
	// swap would retire the first, still-blank spare).
	inflight map[int]bool
}

// NewSparer creates a sparer over the array with the given spare pool.
func NewSparer(arr DevSwapper, spares []Dev) *Sparer {
	return &Sparer{arr: arr, spares: spares, inflight: make(map[int]bool)}
}

// SparesLeft reports the remaining spare count.
func (s *Sparer) SparesLeft() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spares)
}

// Retired returns the failed devices that have been swapped out.
func (s *Sparer) Retired() []Dev {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Dev(nil), s.retired...)
}

// InFlight reports whether member idx has a claimed, unreleased repair.
func (s *Sparer) InFlight(idx int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight[idx]
}

// claim atomically takes the slot and a spare: one lock covers both
// decisions, so two concurrent callers can never pop two spares for one
// failed member.
func (s *Sparer) claim(idx int) (Dev, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[idx] {
		return nil, fmt.Errorf("%w for member %d", ErrRepairInFlight, idx)
	}
	if len(s.spares) == 0 {
		return nil, fmt.Errorf("raid: no spares left for member %d", idx)
	}
	spare := s.spares[len(s.spares)-1]
	s.spares = s.spares[:len(s.spares)-1]
	s.inflight[idx] = true
	return spare, nil
}

// unclaim returns an unused spare to the pool and frees the slot (the
// swap itself failed, e.g. geometry mismatch).
func (s *Sparer) unclaim(idx int, spare Dev) {
	s.mu.Lock()
	s.spares = append(s.spares, spare)
	delete(s.inflight, idx)
	s.mu.Unlock()
}

// Swap claims member idx and installs a spare in its slot without
// rebuilding it, for callers that run the rebuild themselves as a
// managed background job (the repair supervisor). The slot stays
// claimed — blocking Failover and further Swaps — until Release.
func (s *Sparer) Swap(idx int) error {
	spare, err := s.claim(idx)
	if err != nil {
		return err
	}
	old, err := s.arr.SwapDev(idx, spare)
	if err != nil {
		s.unclaim(idx, spare)
		return err
	}
	s.mu.Lock()
	s.retired = append(s.retired, old)
	s.mu.Unlock()
	return nil
}

// Release frees the claim on member idx after the caller's repair
// finished (or was abandoned).
func (s *Sparer) Release(idx int) {
	s.mu.Lock()
	delete(s.inflight, idx)
	s.mu.Unlock()
}

// Failover replaces failed member idx with a spare and rebuilds it.
// The array serves (degraded) traffic throughout; on return the array
// is fully redundant again. The slot stays claimed for the whole
// swap+rebuild, so a concurrent Failover for the same member fails fast
// with ErrRepairInFlight rather than consuming a second spare.
func (s *Sparer) Failover(ctx context.Context, idx int) error {
	if err := s.Swap(idx); err != nil {
		return err
	}
	defer s.Release(idx)
	return s.arr.Rebuild(ctx, idx)
}
