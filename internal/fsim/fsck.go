package fsim

import (
	"context"
	"fmt"

	"repro/internal/cdd"
)

// FsckReport summarizes a consistency check of the volume.
type FsckReport struct {
	// Files and Dirs count reachable objects.
	Files, Dirs int
	// UsedBlocks counts data blocks referenced by reachable inodes
	// (including indirect blocks).
	UsedBlocks int
	// LeakedBlocks are marked used in a bitmap but referenced by no
	// reachable inode.
	LeakedBlocks []int64
	// LeakedInodes are marked used in an inode bitmap but unreachable
	// from the root.
	LeakedInodes []uint32
	// Problems lists hard inconsistencies (cross-linked blocks, entries
	// pointing at free inodes, blocks marked free but in use).
	Problems []string

	// freeInodes and freeBlocks are the reachable inodes and in-use
	// blocks a bitmap marks free (among Problems): Repair marks them used.
	freeInodes []uint32
	freeBlocks []int64
}

// OK reports whether the volume is fully consistent.
func (r *FsckReport) OK() bool {
	return len(r.LeakedBlocks) == 0 && len(r.LeakedInodes) == 0 && len(r.Problems) == 0
}

func (r *FsckReport) String() string {
	return fmt.Sprintf("fsck: %d files, %d dirs, %d blocks in use, %d leaked blocks, %d leaked inodes, %d problems",
		r.Files, r.Dirs, r.UsedBlocks, len(r.LeakedBlocks), len(r.LeakedInodes), len(r.Problems))
}

// Fsck walks the volume from the root and cross-checks every reachable
// inode and block against the allocation bitmaps. Run it on a quiescent
// volume (it takes no locks); the concurrency tests use it to prove the
// allocator never double-assigned or leaked under contention.
func (fs *FS) Fsck(ctx context.Context) (*FsckReport, error) {
	rep := &FsckReport{}
	blockOwner := map[int64]uint32{} // phys block -> inode
	inodeSeen := map[uint32]bool{}

	var walk func(ino uint32, path string) error
	walk = func(ino uint32, path string) error {
		if inodeSeen[ino] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d reachable twice (at %s)", ino, path))
			return nil
		}
		inodeSeen[ino] = true
		t := fs.begin(true)
		defer t.end()
		in, err := fs.readInode(ctx, t, ino)
		if err != nil {
			return err
		}
		switch in.Mode {
		case modeFile:
			rep.Files++
		case modeDir:
			rep.Dirs++
		default:
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: inode %d has mode %d", path, ino, in.Mode))
			return nil
		}
		blks, err := fs.fileBlocks(ctx, t, in)
		if err != nil {
			return err
		}
		for _, b := range blks {
			if b < fs.sb.DataStart || b >= fs.sb.Blocks {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: block %d outside data area", path, b))
				continue
			}
			if owner, dup := blockOwner[b]; dup {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: block %d cross-linked with inode %d", path, b, owner))
				continue
			}
			blockOwner[b] = ino
			rep.UsedBlocks++
		}
		if in.Mode != modeDir {
			return nil
		}
		ents, err := fs.readDir(ctx, t, in)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.Ino >= fs.sb.maxInodes() {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s/%s: inode %d out of range", path, e.Name, e.Ino))
				continue
			}
			if err := walk(e.Ino, path+"/"+e.Name); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, ""); err != nil {
		return nil, err
	}

	// Cross-check bitmaps.
	t := fs.begin(true)
	defer t.end()
	for g := uint32(0); g < fs.sb.Groups; g++ {
		// Inode bitmap vs reachability.
		buf, err := t.bread(ctx, fs.sb.inodeBitmapBlk(g))
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < fs.sb.InodesPerGroup; i++ {
			ino := g*fs.sb.InodesPerGroup + i
			marked := buf[i/8]&(1<<(i%8)) != 0
			switch {
			case marked && !inodeSeen[ino]:
				rep.LeakedInodes = append(rep.LeakedInodes, ino)
			case !marked && inodeSeen[ino]:
				rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d reachable but marked free", ino))
				rep.freeInodes = append(rep.freeInodes, ino)
			}
		}
		// Block bitmap vs references.
		if buf, err = t.bread(ctx, fs.sb.blockBitmapBlk(g)); err != nil {
			return nil, err
		}
		lo, hi := fs.sb.groupDataRange(g)
		for bit := int64(0); bit < hi-lo; bit++ {
			blk := lo + bit
			marked := buf[bit/8]&(1<<(bit%8)) != 0
			_, used := blockOwner[blk]
			switch {
			case marked && !used:
				rep.LeakedBlocks = append(rep.LeakedBlocks, blk)
			case !marked && used:
				rep.Problems = append(rep.Problems, fmt.Sprintf("block %d in use but marked free", blk))
				rep.freeBlocks = append(rep.freeBlocks, blk)
			}
		}
	}
	return rep, nil
}

// Repair makes the allocation bitmaps agree with reachability, as
// e2fsck's pass 5 does: it releases every leaked block and inode a fresh
// Fsck finds, and marks used every reachable inode and in-use block a
// bitmap marks free (what an array call torn between its blocks leaves),
// taking the affected group locks. It returns the post-repair report.
// Cross-links are reported, not fixed.
func (fs *FS) Repair(ctx context.Context) (*FsckReport, error) {
	rep, err := fs.Fsck(ctx)
	if err != nil {
		return nil, err
	}
	// Blocks by allocation group.
	byGroup := map[uint32][2][]int64{} // free, used
	for i, blks := range [][]int64{rep.LeakedBlocks, rep.freeBlocks} {
		for _, b := range blks {
			g := fs.sb.groupOfBlock(b)
			set := byGroup[g]
			set[i] = append(set[i], b)
			byGroup[g] = set
		}
	}
	for g, set := range byGroup {
		err := fs.withLocks(ctx, []cdd.Range{lockForGroup(g)}, func(t *tx) error {
			if err := fs.setBlocksInGroup(ctx, t, g, set[0], false); err != nil {
				return err
			}
			return fs.setBlocksInGroup(ctx, t, g, set[1], true)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, ino := range rep.LeakedInodes {
		g := ino / fs.sb.InodesPerGroup
		err := fs.withLocks(ctx, fs.lockSet([]uint32{g}, ino), func(t *tx) error {
			if err := fs.writeInode(ctx, t, ino, &inode{}); err != nil {
				return err
			}
			return fs.setInodeUsed(ctx, t, ino, false)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, ino := range rep.freeInodes {
		err := fs.withLocks(ctx, fs.lockSet([]uint32{ino / fs.sb.InodesPerGroup}, ino), func(t *tx) error {
			return fs.setInodeUsed(ctx, t, ino, true)
		})
		if err != nil {
			return nil, err
		}
	}
	return fs.Fsck(ctx)
}

// FSStat summarizes volume capacity and usage.
type FSStat struct {
	TotalBlocks, FreeBlocks int64
	TotalInodes, FreeInodes int64
	BlockSize               int
}

// StatFS scans the allocation bitmaps and reports capacity and free
// space (data blocks and inodes).
func (fs *FS) StatFS(ctx context.Context) (FSStat, error) {
	st := FSStat{BlockSize: fs.bs}
	t := fs.begin(true)
	defer t.end()
	for g := uint32(0); g < fs.sb.Groups; g++ {
		lo, hi := fs.sb.groupDataRange(g)
		st.TotalBlocks += hi - lo
		buf, err := t.bread(ctx, fs.sb.blockBitmapBlk(g))
		if err != nil {
			return st, err
		}
		for bit := int64(0); bit < hi-lo; bit++ {
			if buf[bit/8]&(1<<(bit%8)) == 0 {
				st.FreeBlocks++
			}
		}
		st.TotalInodes += int64(fs.sb.InodesPerGroup)
		if buf, err = t.bread(ctx, fs.sb.inodeBitmapBlk(g)); err != nil {
			return st, err
		}
		for i := uint32(0); i < fs.sb.InodesPerGroup; i++ {
			if buf[i/8]&(1<<(i%8)) == 0 {
				st.FreeInodes++
			}
		}
	}
	return st, nil
}
