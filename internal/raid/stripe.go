package raid

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/par"
	"repro/internal/parity"
)

// Stripe is the parity-striped array engine: every stripe holds k data
// shards and m parity shards of a systematic Reed-Solomon code (m = 1
// is plain XOR parity), one shard per device, and the array survives
// any m device failures. Logical block lb is data shard lb%k of stripe
// lb/k; shard j of stripe s (data for j < k, parity row j-k otherwise)
// lives at physical block s of device (rot(s)+j) mod n, so parity
// writes and degraded-read load rotate over all members.
//
// Three parameterisations exist, each with its own constructor:
//
//   - NewRAID5: m = 1, left-symmetric rotation. Small writes pay the
//     read-modify-write penalty the paper's Figure 5 exposes.
//   - NewRS: any m >= 1, forward rotation.
//   - NewAFRAID: RAID-5 with deferred parity (Savage & Wilkes, USENIX
//     '96, which the paper names as an influence): writes touch data
//     only and leave their stripes in a redundancy window until Flush
//     recomputes the parity. RAID-x reaches the same small-write speed
//     by mirroring, paying capacity instead of a window.
//
// All parity math runs through internal/parity and all block scratch
// comes from internal/bufpool. Full-stripe writes and healthy reads go
// out as one vectored transfer per device aliasing the caller's buffer.
type Stripe struct {
	name    string
	mem     *Members
	n       int // members
	bs      int
	k, m    int
	code    *parity.RS
	stripes int64                    // physical blocks per device
	rot     func(s int64, n int) int // device of shard 0 of stripe s

	// The redundancy window: stripes with stale parity. nil unless parity
	// is deferred.
	mu    sync.Mutex
	dirty map[int64]struct{}
}

// leftSymmetric is RAID-5's rotation: the parity shard (the last one)
// sits on device n-1 - s mod n, layout.RAID5.ParityDisk, and the data
// shards follow it cyclically.
func leftSymmetric(s int64, n int) int { return (n - int(s%int64(n))) % n }

// forward moves every shard one device up per stripe.
func forward(s int64, n int) int { return int(s % int64(n)) }

func newStripe(name string, devs []Dev, m int, rot func(int64, int) int, deferred bool) (*Stripe, error) {
	if m < 1 {
		return nil, fmt.Errorf("raid: %s: m must be >= 1, got %d", name, m)
	}
	// At least two data shards (use mirroring below that).
	bs, per, err := CheckDevs(devs, m+2)
	if err != nil {
		return nil, err
	}
	code, err := parity.NewRS(len(devs)-m, m)
	if err != nil {
		return nil, fmt.Errorf("raid: %s: %w", name, err)
	}
	a := &Stripe{name: name, mem: NewMembers(name, devs, bs, per), n: len(devs), bs: bs, k: len(devs) - m, m: m, code: code, stripes: per, rot: rot}
	if deferred {
		a.dirty = map[int64]struct{}{}
	}
	return a, nil
}

// NewRAID5 builds a RAID-5 array over at least three devices.
func NewRAID5(devs []Dev) (*Stripe, error) {
	return newStripe("raid5", devs, 1, leftSymmetric, false)
}

// NewRS builds an erasure-coded array with m parity shards per stripe
// over the given devices; k is implied as len(devs) - m.
func NewRS(devs []Dev, m int) (*Stripe, error) {
	return newStripe(fmt.Sprintf("rs(%d,%d)", len(devs)-m, m), devs, m, forward, false)
}

// NewAFRAID builds an AFRAID array over at least three devices.
func NewAFRAID(devs []Dev) (*Stripe, error) {
	return newStripe("afraid", devs, 1, leftSymmetric, true)
}

// Name implements Array.
func (a *Stripe) Name() string { return a.name }

// BlockSize implements Array.
func (a *Stripe) BlockSize() int { return a.bs }

// Blocks implements Array.
func (a *Stripe) Blocks() int64 { return a.stripes * int64(a.k) }

// Shards reports the code geometry (k data, m parity).
func (a *Stripe) Shards() (k, m int) { return a.k, a.m }

// SetDegradedNotify implements DegradedNotifier: fn hears of the logical
// blocks served through reconstruction.
func (a *Stripe) SetDegradedNotify(fn func(blocks int)) { a.mem.SetDegradedNotify(fn) }

// DirtyStripes reports how many stripes currently lack valid parity —
// the size of the redundancy window (always zero with eager parity).
func (a *Stripe) DirtyStripes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.dirty)
}

func (a *Stripe) isDirty(s int64) bool {
	if a.dirty == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, dirty := a.dirty[s]
	return dirty
}

// devOf reports the device holding shard j of stripe s.
func (a *Stripe) devOf(s int64, j int) int { return (a.rot(s, a.n) + j) % a.n }

// shardOf reports which shard of stripe s device d holds.
func (a *Stripe) shardOf(s int64, d int) int { return (d - a.rot(s, a.n) + a.n) % a.n }

// block returns logical block lb's slot in p, whose first byte is
// logical block b0.
func (a *Stripe) block(p []byte, b0, lb int64) []byte {
	off := (lb - b0) * int64(a.bs)
	return p[off : off+int64(a.bs)]
}

// devSet is a set of device indexes (parity.NewRS caps k+m at 255).
type devSet [4]uint64

func (s *devSet) add(d int)     { s[d>>6] |= 1 << (d & 63) }
func (s devSet) has(d int) bool { return s[d>>6]&(1<<(d&63)) != 0 }

func (s devSet) count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// lostDevs returns the members of v no read decision may use (lost:
// down, or blank — a spare whose rebuild has not completed) and those
// no write can reach (down, a subset of lost). More
// than m lost is data loss.
func (a *Stripe) lostDevs(v *MemberView) (lost, down devSet, err error) {
	for i, d := range v.Devs {
		if !d.Healthy() {
			down.add(i)
		}
		if !v.Readable(i) {
			lost.add(i)
		}
	}
	if f := lost.count(); f > a.m {
		err = fmt.Errorf("%s: %d devices failed, tolerate %d: %w", a.name, f, a.m, ErrDataLoss)
	}
	return lost, down, err
}

// avoid adds to lost, while at most m members are lost, each member that
// missed a write in stripes [s0, s1]: its shards there are decoded around
// while the code allows, and read when it does not.
func (a *Stripe) avoid(lost devSet, s0, s1 int64) devSet {
	for d := 0; d < a.n && lost.count() < a.m; d++ {
		if !lost.has(d) && a.mem.il.Missed(d, s0, s1-s0+1) {
			lost.add(d)
		}
	}
	return lost
}

// place adds logical blocks [b, b+n) of p to a new plan on their devices,
// except those that live on a device in skip, and counts those. The
// caller sorts the plan.
func (a *Stripe) place(b int64, n int, p []byte, skip devSet) (pl *Plan, skipped int) {
	pl = NewPlan()
	for lb := b; lb < b+int64(n); lb++ {
		s := lb / int64(a.k)
		if d := a.devOf(s, int(lb%int64(a.k))); skip.has(d) {
			skipped++
		} else {
			pl.Add(d, s, lb, a.block(p, b, lb))
		}
	}
	return pl, skipped
}

// lostRow reports whether stripe s has a data shard in [b, b+n) on a
// failed device.
func (a *Stripe) lostRow(s, b int64, n int, failed devSet) bool {
	for j := 0; j < a.k; j++ {
		if lb := s*int64(a.k) + int64(j); lb >= b && lb < b+int64(n) && failed.has(a.devOf(s, j)) {
			return true
		}
	}
	return false
}

// moveRuns moves every run of pl in parallel — one branch per device, its
// runs in physical order, each as one vectored transfer (xfer is
// ReadBlocksVec or WriteBlocksVec) — and returns the erring devices, each
// recorded in pl (fail), alongside the first error, so reads can fail
// over to reconstruction.
func moveRuns(ctx context.Context, devs []Dev, pl *Plan, xfer func(context.Context, Dev, int64, [][]byte) error) (erred devSet, err error) {
	pl.track(len(devs))
	for i, j := 0, 0; i < len(pl.Data); i = j {
		d := pl.Data[i].Disk
		for j = i + 1; j < len(pl.Data) && pl.Data[j].Disk == d; j++ {
		}
		data, segs := pl.Data[i:j], pl.Segs[i:j]
		pl.Fns = append(pl.Fns, func(ctx context.Context) (err error) {
			for r, next := 0, 0; r < len(data) && err == nil; r = next {
				next = runEnd(data, r, 0)
				err = xfer(ctx, devs[d], data[r].Phys, segs[r:next])
			}
			if err != nil {
				pl.fail(d, err)
			}
			return err
		})
	}
	err = par.Do(ctx, pl.Fns...)
	for d := range pl.errs {
		if pl.errs[d].Load() != nil {
			erred.add(d)
		}
	}
	return erred, err
}

// ReadBlocks implements Array. Shards on healthy devices scatter
// straight into p; stripes with a needed shard on a failed device, or on
// one that missed a write there (avoid), are reconstructed. A device
// that reports healthy but errors at read time (remote health probes are
// cached, so Healthy() can lag an actual failure) triggers a retry with
// that device treated as failed, so its blocks are served through
// reconstruction instead of surfacing the error.
func (a *Stripe) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	n, err := CheckRange(a, b, p)
	if err != nil {
		return err
	}
	v := a.mem.Load()
	failed, _, err := a.lostDevs(v)
	if err != nil {
		return err
	}
	failed = a.avoid(failed, b/int64(a.k), (b+int64(n)-1)/int64(a.k))
	for {
		lost, erred, err := a.readOnce(ctx, v.Devs, b, n, p, failed)
		if err == nil {
			if lost > 0 && a.mem.notify != nil {
				a.mem.notify(lost)
			}
			return nil
		}
		// erred is disjoint from failed (failed devices are never
		// read), so every retry grows failed and the loop ends within
		// m rounds.
		if ctx.Err() != nil || erred.count() == 0 || failed.count()+erred.count() > a.m {
			return err
		}
		for i := range failed {
			failed[i] |= erred[i]
		}
	}
}

// readOnce executes one read attempt treating the given devices as
// failed, in one transfer phase: every stripe with a block of [b, b+n)
// on a failed device has all its surviving shards planned beside the
// healthy blocks, and is decoded once they have arrived, its lost
// blocks straight into p. It reports how many blocks it decoded and, on
// error, which devices erred at read time.
func (a *Stripe) readOnce(ctx context.Context, devs []Dev, b int64, n int, p []byte, failed devSet) (int, devSet, error) {
	pl, lost := a.place(b, n, p, failed)
	defer pl.Release()
	s0, s1 := b/int64(a.k), (b+int64(n)-1)/int64(a.k)
	var shards [][]byte
	if lost > 0 {
		var scratch []byte
		var err error
		if shards, scratch, err = a.planSurvivors(pl, s0, s1, b, n, p, failed); err != nil {
			return 0, devSet{}, err
		}
		defer bufpool.Put(scratch)
	}
	pl.Sort()
	if erred, err := moveRuns(ctx, devs, pl, ReadBlocksVec); err != nil {
		return 0, erred, err
	}
	w := a.k + a.m
	for s, row := s0, shards; lost > 0 && s <= s1; s++ {
		if !a.lostRow(s, b, n, failed) {
			continue
		}
		var present [256]bool
		for j := 0; j < w; j++ {
			present[j] = !failed.has(a.devOf(s, j))
		}
		if err := a.code.Reconstruct(row[:w], present[:w]); err != nil {
			return 0, devSet{}, err
		}
		row = row[w:]
	}
	return lost, devSet{}, nil
}

// planSurvivors adds to pl every surviving shard of the lost stripes in
// [s0, s1] that pl does not hold yet — parity, and data outside [b, b+n)
// — read into one pooled scratch buffer, and returns those stripes'
// shards, k+m per stripe in stripe order, for decoding: a data shard in
// [b, b+n) is its slot in p, lost or not, and any other lost shard is
// nil (not wanted). A stripe in the redundancy window has no valid
// parity to decode from.
func (a *Stripe) planSurvivors(pl *Plan, s0, s1, b int64, n int, p []byte, failed devSet) (shards [][]byte, scratch []byte, err error) {
	w, end := a.k+a.m, b+int64(n)
	// inP reports whether shard j of stripe s already has a slot in p.
	inP := func(s int64, j int) bool {
		lb := s*int64(a.k) + int64(j)
		return j < a.k && lb >= b && lb < end
	}
	rows, extra := 0, 0
	for s := s0; s <= s1; s++ {
		if !a.lostRow(s, b, n, failed) {
			continue
		}
		if a.isDirty(s) {
			return nil, nil, fmt.Errorf("%s: stripe %d in redundancy window (parity stale): %w", a.name, s, ErrDataLoss)
		}
		rows++
		for j := 0; j < w; j++ {
			if !inP(s, j) && !failed.has(a.devOf(s, j)) {
				extra++
			}
		}
	}
	scratch = bufpool.Get(extra * a.bs)
	shards = make([][]byte, rows*w)
	row, free := shards, scratch
	for s := s0; s <= s1; s++ {
		if !a.lostRow(s, b, n, failed) {
			continue
		}
		for j := 0; j < w; j++ {
			lb, d := s*int64(a.k)+int64(j), a.devOf(s, j)
			switch {
			case inP(s, j):
				row[j] = a.block(p, b, lb)
			case !failed.has(d):
				if j >= a.k {
					lb = -1
				}
				row[j], free = free[:a.bs:a.bs], free[a.bs:]
				pl.Add(d, s, lb, row[j])
			}
		}
		row = row[w:]
	}
	return shards, scratch, nil
}

// readShards reads shard j of stripe s into shards[j] for every j in js,
// in parallel.
func (a *Stripe) readShards(ctx context.Context, devs []Dev, s int64, shards [][]byte, js []int) error {
	return par.ForEach(ctx, len(js), func(ctx context.Context, i int) error {
		return devs[a.devOf(s, js[i])].ReadBlocks(ctx, s, shards[js[i]])
	})
}

// writeShards writes shard j of stripe s from shards[j] for every j in
// js, in parallel. A shard that fails to land is intent-marked, and the
// write settles on lostDevs.
func (a *Stripe) writeShards(ctx context.Context, v *MemberView, s int64, shards [][]byte, js []int) error {
	pl := NewPlan() // only its failure record
	defer pl.Release()
	pl.track(a.n)
	err := par.ForEach(ctx, len(js), func(ctx context.Context, i int) error {
		d := a.devOf(s, js[i])
		err := v.Devs[d].WriteBlocks(ctx, s, shards[js[i]])
		if err != nil {
			a.mem.Intent().MarkRange(d, s, 1)
			pl.fail(d, err)
		}
		return err
	})
	return pl.settle(ctx, v, err, func() error { _, _, err := a.lostDevs(v); return err })
}

func putShards(shards [][]byte) {
	for _, sh := range shards {
		bufpool.Put(sh)
	}
}

// WriteBlocks implements Array. With eager parity the request splits
// into a partial head stripe, a run of full stripes and a partial tail
// stripe. With deferred parity the data blocks go out immediately (no
// parity I/O on the critical path) and the touched stripes enter the
// redundancy window until Flush. An eager write skips only members that
// are down — a blank spare takes every write — intent-marks every shard
// write it skips or that fails, and settles on lostDevs. A deferred write
// that skips or loses a block fails: no parity holds it yet. Every
// write enters the members' window over its rows: a row's shards decode
// only together, so a restore of one member must not see half of a write.
func (a *Stripe) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	n, err := CheckRange(a, b, p)
	if err != nil {
		return err
	}
	v := a.mem.Load()
	lost, down, err := a.lostDevs(v)
	if err != nil {
		return err
	}
	k := int64(a.k)
	end := b + int64(n)
	s0, s1 := b/k, (end-1)/k
	defer a.mem.win.Exit(a.mem.win.Enter(ctx, Span{Dev: -1, Lo: s0, Hi: s1 + 1}))
	lost = a.avoid(lost, s0, s1) // no stale shard feeds a read-modify-write
	if a.dirty != nil {
		pl, skipped := a.place(b, n, p, down)
		defer pl.Release()
		if skipped > 0 {
			return fmt.Errorf("%s: cannot write %d blocks, their devices failed and parity is deferred: %w", a.name, skipped, ErrDataLoss)
		}
		pl.Sort()
		// Open the window before the data moves, so a failure mid-write
		// finds it open; a sync of these rows waits for this write.
		a.mu.Lock()
		for s := s0; s <= s1; s++ {
			a.dirty[s] = struct{}{}
		}
		a.mu.Unlock()
		_, err := moveRuns(ctx, v.Devs, pl, WriteBlocksVec)
		return pl.settle(ctx, v, err, func() error { return fmt.Errorf("%s: parity is deferred: %w", a.name, ErrDataLoss) })
	}
	fullStart, fullEnd := s0, s1+1
	if b%k != 0 {
		fullStart = s0 + 1
	}
	if end%k != 0 {
		fullEnd = s1
	}
	// Partial stripes first...
	for s := s0; s <= s1; s++ {
		if s >= fullStart && s < fullEnd {
			continue
		}
		lo, hi := max(s*k, b), min((s+1)*k, end)
		if err := a.writePartialStripe(ctx, v, s, lo, hi, p, b, lost, down); err != nil {
			return err
		}
	}
	// ...then the full-stripe region as one long parallel write.
	if fullStart < fullEnd {
		return a.writeFullStripes(ctx, v, fullStart, fullEnd, p, b, down)
	}
	return nil
}

// writeFullStripes writes stripes [sa, sb), all fully covered: data
// shards go out as gather lists aliasing p, parity shards are encoded
// into one pooled staging buffer. Every device holds one shard of every
// row, so device d's gather list is the plan's d-th run of rows blocks.
func (a *Stripe) writeFullStripes(ctx context.Context, v *MemberView, sa, sb int64, p []byte, b0 int64, down devSet) error {
	rows := int(sb - sa)
	parityBuf := bufpool.Get(rows * a.m * a.bs)
	defer bufpool.Put(parityBuf)
	pl := NewPlan()
	defer pl.Release()
	shards := make([][]byte, a.k+a.m)
	for s := sa; s < sb; s++ {
		for j := range shards {
			lb := s*int64(a.k) + int64(j)
			if j < a.k {
				shards[j] = a.block(p, b0, lb)
			} else {
				off := (int(s-sa)*a.m + j - a.k) * a.bs
				shards[j], lb = parityBuf[off:off+a.bs], -1
			}
			pl.Add(a.devOf(s, j), s, lb, shards[j])
		}
		if err := a.code.Encode(shards[:a.k], shards[a.k:]); err != nil {
			return err
		}
	}
	pl.Sort()
	pl.track(a.n)
	err := par.ForEach(ctx, a.n, func(ctx context.Context, d int) (err error) {
		if !down.has(d) {
			if err = WriteBlocksVec(ctx, v.Devs[d], sa, pl.Segs[d*rows:(d+1)*rows]); err != nil {
				pl.fail(d, err)
			}
		}
		if down.has(d) || err != nil {
			a.mem.Intent().MarkRange(d, sa, int64(rows))
		}
		return err
	})
	return pl.settle(ctx, v, err, func() error { _, _, err := a.lostDevs(v); return err })
}

// writePartialStripe updates logical blocks [lo, hi) of stripe s — the
// covered shards — and the parity shards, on every member that is up:
//
//   - Every covered shard and every parity shard to be written has a
//     readable old value: read-modify-write. Read the old covered data
//     and the parity, fold the deltas into the parity, write both back;
//     with no parity member up it is a plain data write. This is the
//     "R+W" small-write cost of the paper's Table 2.
//   - A covered shard is lost, so its new value can exist only inside
//     the parity — or a parity shard sits on a blank spare, where a delta
//     would land on zeros: reconstruct-write. Re-encode the parity whole
//     from the new covered values and the old uncovered ones, which are
//     read directly — or, when one of those is lost too, recovered by
//     reconstructing the old stripe.
func (a *Stripe) writePartialStripe(ctx context.Context, v *MemberView, s, lo, hi int64, p []byte, b0 int64, lost, down devSet) error {
	j0, j1 := int(lo-s*int64(a.k)), int(hi-s*int64(a.k))
	// The stripe as this write sees it: a pooled block per shard holds
	// what is read or encoded; the covered data shards end up aliasing p.
	buf := bufpool.Get((a.k + a.m) * a.bs)
	defer bufpool.Put(buf)
	shards := make([][]byte, a.k+a.m)
	for j := range shards {
		shards[j] = buf[j*a.bs : (j+1)*a.bs]
	}

	// out lists the shards to write: parity, then covered data, each on a
	// member that is up. reencode is set when one of them has no readable
	// old value to form a delta against.
	out := make([]int, 0, a.k+a.m)
	reencode, uncoveredLost := false, false
	for j := a.k; j < a.k+a.m; j++ {
		if d := a.devOf(s, j); down.has(d) {
			a.mem.Intent().MarkRange(d, s, 1)
		} else {
			out = append(out, j)
			reencode = reencode || lost.has(d)
		}
	}
	parityLeft := len(out)
	for j := 0; j < a.k; j++ {
		d := a.devOf(s, j)
		switch covered := j >= j0 && j < j1; {
		case covered && down.has(d):
			a.mem.Intent().MarkRange(d, s, 1)
			reencode = true
		case covered:
			out = append(out, j)
			reencode = reencode || lost.has(d)
		case lost.has(d):
			uncoveredLost = true
		}
	}

	switch {
	case !reencode && parityLeft > 0:
		if err := a.readShards(ctx, v.Devs, s, shards, out); err != nil {
			return err
		}
		for _, j := range out[parityLeft:] {
			// delta = old ^ new, formed in place in the old block.
			parity.XorInto(shards[j], a.block(p, b0, s*int64(a.k)+int64(j)))
			a.code.Update(shards[a.k:], j, shards[j])
		}
	case reencode && !uncoveredLost:
		uncovered := make([]int, 0, a.k)
		for j := 0; j < a.k; j++ {
			if j < j0 || j >= j1 {
				uncovered = append(uncovered, j)
			}
		}
		if err := a.readShards(ctx, v.Devs, s, shards, uncovered); err != nil {
			return err
		}
	case reencode:
		// The old data shards, read and decoded as a degraded read of the
		// whole stripe would.
		if _, _, err := a.readOnce(ctx, v.Devs, s*int64(a.k), a.k, buf[:a.k*a.bs], lost); err != nil {
			return err
		}
	}
	for j := j0; j < j1; j++ {
		shards[j] = a.block(p, b0, s*int64(a.k)+int64(j))
	}
	if reencode {
		if err := a.code.Encode(shards[:a.k], shards[a.k:]); err != nil {
			return err
		}
	}
	return a.writeShards(ctx, v, s, shards, out)
}

// Flush implements Array. With deferred parity it first recomputes the
// parity of every stripe in the redundancy window (the parity writes
// ride the devices' background lanes), restoring full redundancy.
func (a *Stripe) Flush(ctx context.Context) error {
	v := a.mem.Load()
	if a.dirty != nil {
		if err := a.syncWindow(ctx, v); err != nil {
			return err
		}
	}
	return FlushAll(ctx, v.Devs)
}

// syncWindow syncs every stripe now in the redundancy window, in stripe
// order.
func (a *Stripe) syncWindow(ctx context.Context, v *MemberView) error {
	a.mu.Lock()
	window := make([]int64, 0, len(a.dirty))
	for s := range a.dirty {
		window = append(window, s)
	}
	a.mu.Unlock()
	slices.Sort(window)
	for _, s := range window {
		if err := a.syncStripe(ctx, v, s); err != nil {
			return err
		}
	}
	return nil
}

// syncStripe recomputes one dirty stripe's parity: fold each data
// shard, read through one scratch block, into zeroed parity, and queue
// the parity writes behind the foreground traffic. It claims the row in
// the members' window, so no write lands on it from the first read to
// the window closing, and two flushes sync it one after the other.
func (a *Stripe) syncStripe(ctx context.Context, v *MemberView, s int64) error {
	defer a.mem.win.Commit(a.mem.win.Open(ctx, Span{Dev: -1, Lo: s, Hi: s + 1}))
	if !a.isDirty(s) {
		return nil // another flush synced it
	}
	for j := 0; j < a.k+a.m; j++ {
		d := a.devOf(s, j)
		if j < a.k && !a.mem.fresh(v, d, s, 1) {
			return fmt.Errorf("%s: cannot sync stripe %d, data device %d down: %w", a.name, s, d, ErrDataLoss)
		}
		if !v.Devs[d].Healthy() {
			return nil // a parity device is down: the stripe stays dirty until it is replaced
		}
	}
	pshards := make([][]byte, a.m)
	for j := range pshards {
		pshards[j] = bufpool.Get(a.bs)
		clear(pshards[j])
	}
	defer putShards(pshards)
	buf := bufpool.Get(a.bs)
	defer bufpool.Put(buf)
	for j := 0; j < a.k; j++ {
		if err := v.Devs[a.devOf(s, j)].ReadBlocks(ctx, s, buf); err != nil {
			return err
		}
		a.code.Update(pshards, j, buf)
	}
	for j, sh := range pshards {
		if err := v.Devs[a.devOf(s, a.k+j)].WriteBlocksBackground(ctx, s, sh); err != nil {
			return err
		}
	}
	a.mu.Lock()
	delete(a.dirty, s)
	a.mu.Unlock()
	return nil
}

// Members implements Restorer.
func (a *Stripe) Members() *Members { return a.mem }

// SwapDev implements DevSwapper.
func (a *Stripe) SwapDev(idx int, dev Dev) (Dev, error) { return a.mem.Swap(idx, dev) }

// Rebuild implements Rebuilder: reconstruct every block of (replaced)
// device idx from the survivors, up to m-1 of which may be down too.
func (a *Stripe) Rebuild(ctx context.Context, idx int) error {
	return RebuildFrom(ctx, a, idx, nil, nil)
}

// Extents implements Restorer: a member is one run of shards, one per
// stripe, and the placement never changes.
func (a *Stripe) Extents() ([][2]int64, uint64) { return [][2]int64{{0, a.stripes}}, 0 }

// Reconstruct implements Restorer: the shards device idx holds in
// stripes [pb, pb+len(hole)), decoded from those rows of the readable
// survivors that missed no write there while the code allows (avoid),
// each read in one call. A stripe in the redundancy window
// cannot be reconstructed (AFRAID's accepted risk).
func (a *Stripe) Reconstruct(ctx context.Context, idx int, pb int64, dst []byte, hole []bool) error {
	v := a.mem.Load()
	missing, _, _ := a.lostDevs(v)
	missing.add(idx)
	if f := missing.count(); f > a.m {
		return fmt.Errorf("%s: %d members unavailable during rebuild, tolerate %d: %w", a.name, f, a.m, ErrDataLoss)
	}
	missing = a.avoid(missing, pb, pb+int64(len(hole))-1)
	cols := make([][]byte, a.n)
	for d := range cols {
		cols[d] = bufpool.Get(len(dst))
	}
	defer putShards(cols)
	err := par.ForEach(ctx, a.n, func(ctx context.Context, d int) error {
		if missing.has(d) {
			return nil
		}
		return v.Devs[d].ReadBlocks(ctx, pb, cols[d])
	})
	shards := make([][]byte, a.k+a.m)
	present := make([]bool, a.k+a.m)
	for r := 0; r < len(hole) && err == nil; r++ {
		s := pb + int64(r)
		if a.isDirty(s) {
			return fmt.Errorf("%s: stripe %d in redundancy window (parity stale): %w: %w", a.name, s, ErrPending, ErrDataLoss)
		}
		// Decode idx's shard straight into the caller's buffer, and no
		// other lost shard unless idx's is parity, which is encoded from
		// all the data.
		t := a.shardOf(s, idx)
		for j := range shards {
			d := a.devOf(s, j)
			switch present[j] = !missing.has(d); {
			case j == t:
				shards[j] = dst[r*a.bs : (r+1)*a.bs]
			case present[j] || (j < a.k && t >= a.k):
				shards[j] = cols[d][r*a.bs : (r+1)*a.bs]
			default:
				shards[j] = nil
			}
		}
		err = a.code.Reconstruct(shards, present)
	}
	return err
}

// Verify implements Verifier through the repair loop's compare (Verify).
func (a *Stripe) Verify(ctx context.Context) error {
	_, err := Verify(ctx, a)
	return err
}
