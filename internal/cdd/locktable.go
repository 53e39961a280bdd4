// Package cdd implements the cooperative disk drivers: the kernel
// modules of the paper, rebuilt as user-space components with the same
// three-part structure.
//
//   - The storage manager (Manager) exports a node's local disks to the
//     cluster over the transport protocol.
//   - The client module (NodeClient / RemoteDev) redirects block I/O to
//     remote managers, presenting remote disks as local raid.Dev
//     devices — the device-masquerading technique of Section 4.
//   - The consistency module (Table) maintains the lock-group table:
//     records of block ranges granted to a specific CDD client,
//     acquired and released atomically, and replicated to peer CDDs.
//
// Together these establish the single I/O space (SIOS): every node sees
// all nk disks and performs local and remote accesses through one
// interface, with no central server.
package cdd

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Range is a half-open interval [Start, End) of the global lock space.
// The file system locks inode and allocation regions; raw-block users
// may lock block ranges directly.
type Range struct {
	Start, End uint64
}

func (r Range) overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

// contains reports whether r fully covers o.
func (r Range) contains(o Range) bool { return r.Start <= o.Start && o.End <= r.End }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// Mode classifies a grant. Shared grants give read visibility — any
// number of owners may hold overlapping shared ranges, and a client may
// serve cached reads under them. Exclusive grants give write ownership
// and conflict with every other owner's grants of either mode.
type Mode uint8

const (
	// Shared is a read grant.
	Shared Mode = 0
	// Exclusive is a write grant (the paper's original lock-group
	// semantics).
	Exclusive Mode = 1
)

func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// Record is one entry of the lock-group table: a group of ranges held
// by one owner in one mode.
type Record struct {
	Owner  string
	Mode   Mode
	Ranges []Range
}

// Invalidation is one entry of the table's coherence-event ring: an
// exclusive acquisition (or the revocation preceding one) over Ranges
// by Owner. Clients drain the ring through heartbeats and drop cached
// blocks — and revoked shared grants — covered by the ranges.
type Invalidation struct {
	Seq    uint64
	Owner  string // the acquiring owner (consumers skip their own)
	Ranges []Range
}

// BeatResult is the lock service's answer to one client heartbeat.
type BeatResult struct {
	// Known reports whether the table holds grants for the owner. A
	// client that believes it holds grants but gets Known=false lost its
	// lease (expired while partitioned) and must drop grants and cache.
	Known bool
	// Seq is the newest invalidation sequence on the server.
	Seq uint64
	// Reset means the client's ack cursor fell off the bounded event
	// ring: it missed invalidations and must drop all cached state.
	Reset bool
	// TTL is the server's lease term; clients derive their cache-serve
	// safety window from it.
	TTL time.Duration
	// Events are the invalidations after the client's ack cursor.
	Events []Invalidation
	// Released reports that the heartbeat's ack released revoked grants
	// (a replication trigger for the manager).
	Released bool
}

// eventRingCap bounds the invalidation ring. A client further behind
// than this gets a full reset instead of replayed events.
const eventRingCap = 1024

// fenceTTL bounds how long a pending exclusive acquisition keeps new
// shared grants out of its ranges while existing holders drain.
const fenceTTL = 5 * time.Second

// ownerState is everything the table tracks per owner.
type ownerState struct {
	shared []Range
	excl   []Range
	// expires is the lease deadline (zero when leases are disabled).
	// Renewed by heartbeats and successful acquisitions; an owner whose
	// lease lapses is dropped wholesale — the auto-release that keeps a
	// dead client from wedging its ranges forever.
	expires time.Time
	// revoked lists shared ranges a writer wants back, tagged with the
	// invalidation sequence announcing the revocation. They are released
	// when the owner's heartbeat acks that sequence (or the lease
	// expires).
	revoked []revocation
}

type revocation struct {
	seq uint64
	r   Range
}

// fence keeps new shared grants out of ranges a writer is draining, so
// a stream of readers cannot livelock the revocation.
type fence struct {
	rs    []Range
	until time.Time
}

// Table is the lock-group table of the consistency module. Grants are
// all-or-nothing and atomic: either every requested range is free of
// conflicts (or already held by the same owner) and the whole group is
// granted, or nothing changes. With a lease configured (SetLease),
// grants expire unless renewed by heartbeats, and exclusive requests
// revoke overlapping shared grants through the invalidation ring.
type Table struct {
	mu      sync.Mutex
	owners  map[string]*ownerState
	version uint64

	ttl time.Duration
	now func() time.Time

	seq     uint64
	events  []Invalidation
	fences  []fence
	expired uint64 // owners auto-released by lease expiry
}

// NewTable creates an empty lock-group table with leases disabled
// (grants live until released — the in-process, single-failure-domain
// configuration). Network lock services enable leases with SetLease.
func NewTable() *Table {
	return &Table{owners: map[string]*ownerState{}, now: time.Now}
}

// SetLease enables lease-based auto-release: grants expire ttl after
// their owner's last heartbeat or acquisition. A nil clock keeps the
// current one (tests inject a fake clock). ttl <= 0 disables leases.
func (t *Table) SetLease(ttl time.Duration, clock func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ttl = ttl
	if clock != nil {
		t.now = clock
	}
	if ttl > 0 {
		deadline := t.now().Add(ttl)
		for _, st := range t.owners {
			st.expires = deadline
		}
	}
}

// expireLocked drops owners whose lease has lapsed and stale fences.
func (t *Table) expireLocked() {
	if t.ttl <= 0 {
		return
	}
	now := t.now()
	for owner, st := range t.owners {
		if !st.expires.IsZero() && now.After(st.expires) {
			delete(t.owners, owner)
			t.version++
			t.expired++
		}
	}
	if len(t.fences) > 0 {
		kept := t.fences[:0]
		for _, f := range t.fences {
			if now.Before(f.until) {
				kept = append(kept, f)
			}
		}
		t.fences = kept
	}
}

func (t *Table) touchLocked(st *ownerState) {
	if t.ttl > 0 {
		st.expires = t.now().Add(t.ttl)
	}
}

// appendEventLocked pushes one invalidation onto the bounded ring.
func (t *Table) appendEventLocked(owner string, rs []Range) uint64 {
	t.seq++
	cp := make([]Range, len(rs))
	copy(cp, rs)
	t.events = append(t.events, Invalidation{Seq: t.seq, Owner: owner, Ranges: cp})
	if len(t.events) > eventRingCap {
		t.events = append(t.events[:0], t.events[len(t.events)-eventRingCap:]...)
	}
	return t.seq
}

func overlapsAny(held []Range, rs []Range) bool {
	for _, h := range held {
		for _, r := range rs {
			if h.overlaps(r) {
				return true
			}
		}
	}
	return false
}

// TryAcquire atomically try-acquires an exclusive range group — the
// historical API; Acquire selects the mode.
func (t *Table) TryAcquire(owner string, rs []Range) bool {
	return t.Acquire(owner, Exclusive, rs)
}

// Acquire atomically grants the range group to owner in the given mode.
// It reports false (and grants nothing) on conflict. An exclusive
// request that conflicts only with shared holders additionally starts a
// revocation: an invalidation event is published, the ranges are fenced
// against new shared grants, and the shared grants are released when
// their holders ack the event (or their leases expire) — the caller
// retries until the range clears.
func (t *Table) Acquire(owner string, mode Mode, rs []Range) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()

	if mode == Shared {
		for _, f := range t.fences {
			if overlapsAny(f.rs, rs) {
				return false // a writer is draining these ranges
			}
		}
	}
	// Exclusive conflicts block either mode outright.
	for other, ost := range t.owners {
		if other == owner {
			continue
		}
		if overlapsAny(ost.excl, rs) {
			return false
		}
	}
	if mode == Exclusive {
		// Shared holders conflict too, but are revocable: publish one
		// invalidation covering the request, mark each holder, fence the
		// ranges, and fail the attempt — the grant lands once holders
		// ack via heartbeat or their leases lapse.
		var holders []*ownerState
		allMarked := true
		for other, ost := range t.owners {
			if other == owner {
				continue
			}
			if overlapsAny(ost.shared, rs) {
				holders = append(holders, ost)
				if !revokedCovers(ost.revoked, rs) {
					allMarked = false
				}
			}
		}
		if len(holders) > 0 {
			if !allMarked { // first conflicting attempt: announce it once
				seq := t.appendEventLocked(owner, rs)
				for _, ost := range holders {
					// Mark the holder's own grant ranges (acks release by
					// exact match against what was granted).
					for _, h := range ost.shared {
						if overlapsAny(rs, []Range{h}) && !revokedCovers(ost.revoked, []Range{h}) {
							ost.revoked = append(ost.revoked, revocation{seq: seq, r: h})
						}
					}
				}
				t.fences = append(t.fences, fence{rs: append([]Range(nil), rs...), until: t.now().Add(fenceTTL)})
			}
			return false
		}
	}

	st := t.owners[owner]
	if st == nil {
		st = &ownerState{}
		t.owners[owner] = st
	}
	if mode == Exclusive {
		st.excl = append(st.excl, rs...)
		t.appendEventLocked(owner, rs)
		// The writer got in; lift any fence it raised on the way.
		if len(t.fences) > 0 {
			kept := t.fences[:0]
			for _, f := range t.fences {
				if !overlapsAny(f.rs, rs) {
					kept = append(kept, f)
				}
			}
			t.fences = kept
		}
	} else {
		st.shared = append(st.shared, rs...)
	}
	t.touchLocked(st)
	t.version++
	return true
}

// revokedCovers reports whether every requested range already has a
// pending revocation entry (so a retrying writer does not republish).
func revokedCovers(revs []revocation, rs []Range) bool {
	for _, r := range rs {
		found := false
		for _, rv := range revs {
			if rv.r.overlaps(r) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func dropExact(held []Range, rs []Range) []Range {
	out := held[:0]
	for _, h := range held {
		drop := false
		for _, r := range rs {
			if h == r {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, h)
		}
	}
	return out
}

// Release atomically removes exactly the given ranges from owner's
// holdings in both modes (ranges must match grants; partial overlap is
// not split).
func (t *Table) Release(owner string, rs []Range) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	st := t.owners[owner]
	if st == nil {
		return
	}
	st.shared = dropExact(st.shared, rs)
	st.excl = dropExact(st.excl, rs)
	if len(st.revoked) > 0 {
		kept := st.revoked[:0]
		for _, rv := range st.revoked {
			released := false
			for _, r := range rs {
				if rv.r == r {
					released = true
					break
				}
			}
			if !released {
				kept = append(kept, rv)
			}
		}
		st.revoked = kept
	}
	if len(st.shared) == 0 && len(st.excl) == 0 {
		delete(t.owners, owner)
	}
	t.version++
}

// ReleaseAll drops every range held by owner (client disconnect).
func (t *Table) ReleaseAll(owner string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	if _, ok := t.owners[owner]; ok {
		delete(t.owners, owner)
		t.version++
	}
}

// Holds reports whether owner currently holds a range overlapping r in
// either mode.
func (t *Table) Holds(owner string, r Range) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	st := t.owners[owner]
	if st == nil {
		return false
	}
	return overlapsAny(st.shared, []Range{r}) || overlapsAny(st.excl, []Range{r})
}

// Beat is one client heartbeat: it renews owner's lease, releases any
// revoked shared grants the client has acked (lastSeq is the newest
// invalidation sequence the client processed), and returns the
// invalidations the client has not seen yet.
func (t *Table) Beat(owner string, lastSeq uint64) BeatResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()

	br := BeatResult{Seq: t.seq, TTL: t.ttl}
	if st, ok := t.owners[owner]; ok {
		br.Known = true
		t.touchLocked(st)
		if len(st.revoked) > 0 {
			kept := st.revoked[:0]
			for _, rv := range st.revoked {
				if rv.seq <= lastSeq {
					st.shared = dropExact(st.shared, []Range{rv.r})
					br.Released = true
				} else {
					kept = append(kept, rv)
				}
			}
			st.revoked = kept
			if br.Released {
				t.version++
				if len(st.shared) == 0 && len(st.excl) == 0 {
					delete(t.owners, owner)
				}
			}
		}
	}
	oldest := t.seq - uint64(len(t.events))
	switch {
	case lastSeq >= t.seq:
		// up to date
	case lastSeq < oldest:
		br.Reset = true
	default:
		for _, ev := range t.events {
			if ev.Seq > lastSeq {
				br.Events = append(br.Events, ev)
			}
		}
	}
	return br
}

// Version reports a counter incremented on every table mutation (used
// by replication).
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Stats reports the table's size and lifetime auto-release count, for
// observability gauges.
func (t *Table) Stats() (owners, ranges int, expired uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.owners {
		ranges += len(st.shared) + len(st.excl)
	}
	return len(t.owners), ranges, t.expired
}

// Snapshot returns the table contents ordered by owner (exclusive
// grants before shared per owner), for replication and introspection.
// Lease and revocation bookkeeping is deliberately not replicated: a
// replica that takes over re-arms fresh leases on Install.
func (t *Table) Snapshot() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	owners := make([]string, 0, len(t.owners))
	for o := range t.owners {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	out := make([]Record, 0, len(owners))
	for _, o := range owners {
		st := t.owners[o]
		if len(st.excl) > 0 {
			rs := make([]Range, len(st.excl))
			copy(rs, st.excl)
			out = append(out, Record{Owner: o, Mode: Exclusive, Ranges: rs})
		}
		if len(st.shared) > 0 {
			rs := make([]Range, len(st.shared))
			copy(rs, st.shared)
			out = append(out, Record{Owner: o, Mode: Shared, Ranges: rs})
		}
	}
	return out
}

// Install replaces the table contents with a replicated snapshot.
func (t *Table) Install(version uint64, recs []Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if version <= t.version && t.version != 0 {
		return // stale replica
	}
	t.owners = map[string]*ownerState{}
	for _, rec := range recs {
		st := t.owners[rec.Owner]
		if st == nil {
			st = &ownerState{}
			t.owners[rec.Owner] = st
		}
		rs := make([]Range, len(rec.Ranges))
		copy(rs, rec.Ranges)
		if rec.Mode == Exclusive {
			st.excl = append(st.excl, rs...)
		} else {
			st.shared = append(st.shared, rs...)
		}
		t.touchLocked(st)
	}
	t.version = version
}
