package fsim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cdd"
)

// Truncate shrinks (or logically grows) the file to size bytes. Growth
// just extends the size: reads of the new tail see zeros, because the
// slack past the end of a file's last block is always zero (a block is
// zero-filled when allocated, and re-zeroed here on shrink). Shrinking
// releases whole blocks past the new end and zeroes the freed pointers.
func (f *File) Truncate(ctx context.Context, size int64) error {
	if size < 0 {
		return fmt.Errorf("fsim: negative size %d", size)
	}
	fs := f.fs
	// Discover the groups owning blocks that may be freed, then lock
	// them with the inode; re-validated implicitly because the inode
	// lock freezes the block list.
	in, err := fs.readInode(ctx, f.ino)
	if err != nil {
		return err
	}
	blks, err := fs.fileBlocks(ctx, in)
	if err != nil {
		return err
	}
	groups := map[uint32]bool{}
	for _, b := range blks {
		groups[fs.sb.groupOfBlock(b)] = true
	}
	sorted := make([]uint32, 0, len(groups))
	for g := range groups {
		sorted = append(sorted, g)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ranges := make([]cdd.Range, 0, len(sorted)+1)
	for _, g := range sorted {
		ranges = append(ranges, lockForGroup(g))
	}
	ranges = append(ranges, lockForInode(f.ino))

	return fs.withLocks(ctx, ranges, func(ctx context.Context) error {
		in, err := fs.readInode(ctx, f.ino)
		if err != nil {
			return err
		}
		if size >= int64(in.Size) {
			in.Size = uint64(size)
			return fs.writeInode(ctx, f.ino, in)
		}
		keep, nblocks := fs.blocksFor(size), fs.blocksFor(int64(in.Size))
		m, err := fs.loadMap(ctx, in, nblocks)
		if err != nil {
			return err
		}
		defer fs.releaseMap(&m)
		// Zero the stale tail of a partially-kept final block, so a
		// later grow exposes zeros, not old data.
		if within := int(size % int64(fs.bs)); within != 0 {
			if phys := m.at(keep - 1); phys != 0 {
				bp := fs.getBlock()
				defer fs.putBlock(bp)
				buf := *bp
				if err := fs.bread(ctx, phys, buf); err != nil {
					return err
				}
				clear(buf[within:])
				if err := fs.bwrite(ctx, phys, buf); err != nil {
					return err
				}
			}
		}
		var freed []int64
		for idx := keep; idx < nblocks; idx++ {
			if phys := m.at(idx); phys != 0 {
				freed = append(freed, phys)
				m.set(idx, 0)
			}
		}
		// Drop the indirect block itself if nothing above numDirect
		// remains.
		if in.Indirect != 0 && keep <= numDirect {
			freed = append(freed, int64(in.Indirect))
			in.Indirect = 0
			m.dirty = false
		}
		if err := fs.flushMap(ctx, &m); err != nil {
			return err
		}
		// Free per group (all involved groups are locked).
		byGroup := map[uint32][]int64{}
		for _, b := range freed {
			g := fs.sb.groupOfBlock(b)
			if !groups[g] {
				return fmt.Errorf("fsim: truncate lock set missed group %d", g)
			}
			byGroup[g] = append(byGroup[g], b)
		}
		for g, bs := range byGroup {
			if err := fs.freeBlocksInGroup(ctx, g, bs); err != nil {
				return err
			}
		}
		in.Size = uint64(size)
		return fs.writeInode(ctx, f.ino, in)
	})
}

// Walk visits every reachable file and directory under root in
// depth-first order, calling fn with the full path and info. fn
// returning an error stops the walk.
func (fs *FS) Walk(ctx context.Context, root string, fn func(path string, info FileInfo) error) error {
	info, err := fs.Stat(ctx, root)
	if err != nil {
		return err
	}
	// Normalize: "/" walks the root without doubling slashes.
	base := root
	if base == "/" {
		base = ""
	}
	if err := fn(root, info); err != nil {
		return err
	}
	if !info.IsDir {
		return nil
	}
	ents, err := fs.ReadDir(ctx, root)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := fs.Walk(ctx, base+"/"+e.Name, fn); err != nil {
			return err
		}
	}
	return nil
}
