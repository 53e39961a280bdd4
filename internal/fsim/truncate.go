package fsim

import (
	"context"
	"fmt"
	"slices"
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
	u := fs.begin(false)
	defer u.end()
	in, err := fs.readInode(ctx, u, f.ino)
	if err != nil {
		return err
	}
	blks, err := fs.fileBlocks(ctx, u, in)
	if err != nil {
		return err
	}
	groups := fs.groupsOf(blks)

	return fs.withLocks(ctx, fs.lockSet(groups, f.ino), func(t *tx) error {
		in, err := fs.readInode(ctx, t, f.ino)
		if err != nil {
			return err
		}
		if size >= int64(in.Size) {
			in.Size = uint64(size)
			return fs.writeInode(ctx, t, f.ino, in)
		}
		keep, nblocks := fs.blocksFor(size), fs.blocksFor(int64(in.Size))
		m, err := fs.loadMap(ctx, t, in, nblocks)
		if err != nil {
			return err
		}
		// Zero the stale tail of a partially-kept final block, so a
		// later grow exposes zeros, not old data.
		if within := int(size % int64(fs.bs)); within != 0 {
			if phys := m.at(keep - 1); phys != 0 {
				buf, err := t.bread(ctx, phys)
				if err != nil {
					return err
				}
				clear(buf[within:])
				t.bwrite(phys)
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
		m.flush(t)
		// Unlink first and free last: commit writes the indirect block
		// and the inode before the bitmaps, so a cut leaves only leaks.
		in.Size = uint64(size)
		if err := fs.writeInode(ctx, t, f.ino, in); err != nil {
			return err
		}
		for _, g := range fs.groupsOf(freed) {
			if !slices.Contains(groups, g) {
				return fmt.Errorf("fsim: truncate lock set missed group %d", g)
			}
			if err := fs.freeBlocksInGroup(ctx, t, g, freed); err != nil {
				return err
			}
		}
		return nil
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
