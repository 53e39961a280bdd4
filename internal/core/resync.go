package core

import (
	"context"
	"fmt"

	"repro/internal/layout"
	"repro/internal/par"
	"repro/internal/raid"
)

// The repair loop itself — chunking, pacing, checkpoints, dirty-region
// replay, scrub — is internal/raid's (restore.go), shared with every
// other engine. This file is the OSM policy's contribution to it: the
// inverse placement.

var _ interface {
	raid.Restorer
	raid.DevSwapper
} = (*RAIDx)(nil)

// Extents implements raid.Restorer: the data half of a disk, then its
// mirror half, under the current layout generation.
func (a *RAIDx) Extents() ([][2]int64, uint64) {
	half := a.lay.DiskBlocks / 2
	return [][2]int64{{0, half}, {half, 2 * half}}, a.Epoch().Gen()
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

// Reconstruct implements raid.Restorer: each physical block of
// [pb, pb+len(hole)) on device idx is inverted to the logical block
// stored there and read from that block's other copy, the blocks in
// parallel — a column's peers scatter over every other disk, which is
// the OSM rebuild's advantage. Repair refuses to run against a layout
// migration (the copier and a rebuild would each re-derive blocks the
// other is moving) and on a column a shrink retired.
func (a *RAIDx) Reconstruct(ctx context.Context, idx int, pb int64, dst []byte, hole []bool) error {
	if _, _, active := a.Migrating(); active {
		return ErrMigrationActive
	}
	if a.ColumnRetired(idx) {
		return ErrRetiredColumn
	}
	v := a.mem.Load()
	return par.ForEach(ctx, len(hole), func(ctx context.Context, t int) error {
		lb, ok := a.resyncSource(pb+int64(t), idx)
		if hole[t] = !ok; !ok {
			return nil
		}
		src := a.peerLoc(lb, idx)
		if !v.Readable(src.Disk) {
			return fmt.Errorf("core: live copy of physical block %d/%d (block %d) unavailable: %w", idx, pb+int64(t), lb, raid.ErrDataLoss)
		}
		return v.Devs[src.Disk].ReadBlocks(ctx, src.Block, dst[t*a.bs:(t+1)*a.bs])
	})
}
