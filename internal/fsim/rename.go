package fsim

import (
	"context"
	"fmt"
)

// Rename moves oldPath to newPath (which must not exist). Both parent
// directories, locked as one atomic group, are re-validated under the
// locks; the child inode itself is untouched, so the operation is a
// pure directory-entry move.
func (fs *FS) Rename(ctx context.Context, oldPath, newPath string) error {
	u := fs.begin(false)
	defer u.end()
	opino, oleaf, err := fs.resolveParent(ctx, u, oldPath)
	if err != nil {
		return err
	}
	npino, nleaf, err := fs.resolveParent(ctx, u, newPath)
	if err != nil {
		return err
	}
	// Growth of the destination directory may allocate; include this
	// mount's preferred group.
	return fs.withLocks(ctx, fs.lockSet([]uint32{fs.prefGroup}, opino, npino), func(t *tx) error {
		odin, err := fs.readInode(ctx, t, opino)
		if err != nil {
			return err
		}
		cino, oslot, err := fs.lookup(ctx, t, odin, oleaf)
		if err != nil {
			return err
		}
		if oslot < 0 {
			return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
		}
		ndin := odin
		if npino != opino {
			if ndin, err = fs.readInode(ctx, t, npino); err != nil {
				return err
			}
			if ndin.Mode != modeDir {
				return fmt.Errorf("%w: parent of %s", ErrNotDir, newPath)
			}
		}
		if _, slot, err := fs.lookup(ctx, t, ndin, nleaf); err != nil {
			return err
		} else if slot >= 0 {
			return fmt.Errorf("%w: %s", ErrExist, newPath)
		}
		e := DirEntry{Name: nleaf, Ino: cino}
		if npino == opino {
			// Within one directory the record is renamed in its slot.
			return fs.setEntry(ctx, t, opino, odin, oslot, e, fs.prefGroup)
		}
		// Insert the new entry first, then clear the old one; a cut
		// commit between the two leaves an extra link rather than a
		// lost file.
		if err := fs.addEntry(ctx, t, npino, ndin, e, fs.prefGroup); err != nil {
			return err
		}
		return fs.setEntry(ctx, t, opino, odin, oslot, DirEntry{}, 0)
	})
}
