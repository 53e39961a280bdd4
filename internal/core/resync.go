package core

import (
	"context"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/parity"
	"repro/internal/raid"
)

// PaceFunc throttles background repair I/O. The repair loops call it
// after each landed chunk with the bytes just copied; the function
// sleeps (or waits on a token bucket) to keep repair bandwidth under a
// budget so foreground I/O keeps priority. Returning an error aborts
// the repair job with its checkpoint intact — the supervisor uses that
// for pause.
type PaceFunc func(ctx context.Context, bytes int) error

// RebuildProgress is a rebuild checkpoint: how many physical blocks of
// the device's data half (Data*) and of its mirror half (Groups*) have
// been restored, at every layout generation. RebuildFrom updates it
// after every chunk, so a caller that persists it across an
// interruption resumes where the last run stopped instead of recopying
// the whole disk. The JSON names date from when the mirror half counted
// whole mirror groups at generation zero; a checkpoint persisted in
// that unit reads as fewer blocks than were done, so it resumes
// earlier, never later.
type RebuildProgress struct {
	DataDone    int64 `json:"data_done"`
	DataTotal   int64 `json:"data_total"`
	GroupsDone  int64 `json:"groups_done"`
	GroupsTotal int64 `json:"groups_total"`
	// Epoch is the layout generation the checkpoint was cut under. A
	// rebalance between runs moves placements, so a resumed rebuild
	// restarts from zero when the generations differ.
	Epoch uint64 `json:"epoch,omitempty"`
}

// done reports progress in physical blocks, the unit of the obs gauges.
func (p *RebuildProgress) done() int64 { return p.DataDone + p.GroupsDone }

// Total reports the job size in physical blocks.
func (p *RebuildProgress) Total() int64 { return p.DataTotal + p.GroupsTotal }

// ResyncStats reports what a delta resync moved.
type ResyncStats struct {
	Regions      int   `json:"regions"`
	BlocksCopied int64 `json:"blocks_copied"`
	BytesCopied  int64 `json:"bytes_copied"`
}

// ScrubStats reports what a sampled scrub checked and repaired.
type ScrubStats struct {
	BlocksChecked  int64 `json:"blocks_checked"`
	Mismatches     int64 `json:"mismatches"`
	BlocksRepaired int64 `json:"blocks_repaired"`
}

// resyncSource maps physical block pb of device idx back to the logical
// block stored there, through the epoch's inverse maps: the data half
// holds data blocks, the mirror half images. ok is false for blocks no
// logical block maps to (capacity truncation, unused or vacated slots) —
// those need no repair.
func (a *RAIDx) resyncSource(pb int64, idx int) (int64, bool) {
	if pb < a.lay.DiskBlocks/2 {
		return a.Epoch().DataSource(idx, pb)
	}
	return a.Epoch().MirrorSource(idx, pb)
}

// peerLoc reports where the live copy of logical block lb lives, given
// that device idx is the stale one: the mirror image when idx holds the
// data block, the data block when idx holds the image. OSM orthogonality
// guarantees the peer is on a different node.
func (a *RAIDx) peerLoc(lb int64, idx int) layout.Loc {
	es := a.epoch.Load()
	if d := es.dataLoc(lb); d.Disk != idx {
		return d
	}
	return es.mirrorLoc(lb)
}

// repairTarget checks that device idx can take a repair job (what names
// it in errors) and returns the device view the job works on.
func (a *RAIDx) repairTarget(idx int, what string) (*devView, error) {
	v := a.table.Load()
	if idx < 0 || idx >= len(v.devs) {
		return nil, fmt.Errorf("core: %s of device %d out of range", what, idx)
	}
	if _, _, active := a.Migrating(); active {
		return nil, ErrMigrationActive
	}
	if a.ColumnRetired(idx) {
		return nil, ErrRetiredColumn
	}
	if !v.devs[idx].Healthy() {
		return nil, fmt.Errorf("core: %s target %d is not healthy (replace it first)", what, idx)
	}
	return v, nil
}

// readPeer reads into dst the live copy of whatever logical block is
// stored at physical block pb of device idx. ok is false, and nothing is
// read, when no logical block maps there.
func (a *RAIDx) readPeer(ctx context.Context, v *devView, idx int, pb int64, dst []byte) (ok bool, err error) {
	lb, ok := a.resyncSource(pb, idx)
	if !ok {
		return false, nil
	}
	src := a.peerLoc(lb, idx)
	if !v.readable(src.Disk) {
		return true, fmt.Errorf("core: live copy of physical block %d/%d (block %d) unavailable: %w", idx, pb, lb, raid.ErrDataLoss)
	}
	return true, v.devs[src.Disk].ReadBlocks(ctx, src.Block, dst)
}

// restore rewrites physical blocks [lo, hi) of device idx from their
// live peer copies, rebuildChunk blocks at a time: the chunk's peers are
// read in parallel, then the blocks some logical block maps to are
// written back in as few contiguous runs as possible (capacity-truncated
// tails and unused mirror slots are skipped). It is the one repair loop:
// a rebuild restores both halves of the disk, a resync its dirty
// regions. done, when non-nil, is a checkpoint — how much of [lo, hi) an
// earlier run already restored — kept current (with the rebuild gauge)
// after every chunk. pace, when non-nil, is called after each chunk.
// restore returns the number of blocks it wrote.
func (a *RAIDx) restore(ctx context.Context, v *devView, idx int, lo, hi int64, done *int64, pace PaceFunc) (copied int64, err error) {
	c := lo
	if done != nil {
		// Resume at a chunk boundary — re-copying a partial chunk is
		// idempotent, trusting it is not.
		c += min(*done, hi-lo)
		if c < hi {
			c -= (c - lo) % rebuildChunk
		}
	}
	// One pooled scratch buffer serves every chunk.
	buf := bufpool.Get(rebuildChunk * a.bs)
	defer bufpool.Put(buf)
	var valid [rebuildChunk]bool
	for ; c < hi; c += rebuildChunk {
		n := int(min(hi-c, rebuildChunk))
		err := par.ForEach(ctx, n, func(ctx context.Context, t int) (err error) {
			valid[t], err = a.readPeer(ctx, v, idx, c+int64(t), buf[t*a.bs:(t+1)*a.bs])
			return err
		})
		if err != nil {
			return copied, err
		}
		for t := 0; t < n; {
			if !valid[t] {
				t++
				continue
			}
			run := t
			for run < n && valid[run] {
				run++
			}
			if err := v.devs[idx].WriteBlocks(ctx, c+int64(t), buf[t*a.bs:run*a.bs]); err != nil {
				return copied, err
			}
			copied += int64(run - t)
			t = run
		}
		if done != nil {
			a.rebuildDone.Add(c + int64(n) - lo - *done)
			*done = c + int64(n) - lo
		}
		if pace != nil {
			if err := pace(ctx, n*a.bs); err != nil {
				return copied, err
			}
		}
	}
	return copied, nil
}

// Resync replays dirty physical regions of device idx from the live
// peer copies — the delta alternative to a full Rebuild when a device
// returns stale rather than blank. Regions normally come from
// intent.Log.TakeDirty; on error the caller must re-mark the regions it
// passed in (replaying a region twice is idempotent, losing one is
// not). pace, when non-nil, throttles the copy like RebuildFrom.
func (a *RAIDx) Resync(ctx context.Context, idx int, regions []intent.Region, pace PaceFunc) (st ResyncStats, err error) {
	v, err := a.repairTarget(idx, "resync")
	if err != nil {
		return st, err
	}
	ctx, root := a.tracer.StartRoot(ctx, "raidx.resync", a.col(idx))
	defer func() { root.End(err) }()
	subject := fmt.Sprintf("raidx/d%d", idx)
	a.met.events.Append(obs.EventResyncStart, subject,
		fmt.Sprintf("%d regions", len(regions)))
	defer func() {
		detail := fmt.Sprintf("copied %d blocks (%d bytes) over %d regions",
			st.BlocksCopied, st.BytesCopied, st.Regions)
		if err != nil {
			detail += ": " + err.Error()
		}
		a.met.events.Append(obs.EventResyncEnd, subject, detail)
	}()
	for _, reg := range regions {
		st.Regions++
		n, err := a.restore(ctx, v, idx, reg.Start, reg.Start+reg.Count, nil, pace)
		st.BlocksCopied += n
		st.BytesCopied += n * int64(a.bs)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// ScrubSample spot-checks device idx after a resync: every stride-th
// physical block (stride <= 0 takes rebuildChunk) is compared against
// its live peer copy and repaired from the peer on mismatch. The
// sampled scrub is the cheap confidence check that the intent log
// really covered everything the device missed — a mismatch here means
// dirty-region tracking lost a write, so the caller should escalate to
// a full rebuild.
func (a *RAIDx) ScrubSample(ctx context.Context, idx int, stride int64, pace PaceFunc) (st ScrubStats, err error) {
	v, err := a.repairTarget(idx, "scrub")
	if err != nil {
		return st, err
	}
	if stride <= 0 {
		stride = rebuildChunk
	}
	ctx, root := a.tracer.StartRoot(ctx, "raidx.scrub", a.col(idx))
	defer func() { root.End(err) }()
	have := bufpool.Get(a.bs)
	want := bufpool.Get(a.bs)
	defer bufpool.Put(have)
	defer bufpool.Put(want)
	for pb := int64(0); pb < a.lay.DiskBlocks; pb += stride {
		ok, err := a.readPeer(ctx, v, idx, pb, want)
		if err != nil {
			return st, err
		}
		if !ok {
			continue
		}
		if err := v.devs[idx].ReadBlocks(ctx, pb, have); err != nil {
			return st, err
		}
		st.BlocksChecked++
		if parity.FirstDiff(have, want) >= 0 {
			st.Mismatches++
			if err := v.devs[idx].WriteBlocks(ctx, pb, want); err != nil {
				return st, err
			}
			st.BlocksRepaired++
		}
		if pace != nil {
			if err := pace(ctx, 2*a.bs); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}
