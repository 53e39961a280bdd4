package fsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Ino   uint32
	Size  int64
	IsDir bool
}

// DirEntry is one directory record.
type DirEntry struct {
	Name string
	Ino  uint32
}

// splitPath normalizes a slash-separated absolute or relative path into
// components.
func splitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

// recName and recIno decode a directory record; a record whose name
// length is 0 is a free slot.
func recName(rec []byte) []byte { return rec[5 : 5+min(int(rec[4]), maxNameLen)] }
func recIno(rec []byte) uint32  { return binary.BigEndian.Uint32(rec[0:4]) }

func encodeEntry(rec []byte, e DirEntry) {
	binary.BigEndian.PutUint32(rec[0:4], e.Ino)
	rec[4] = byte(len(e.Name))
	copy(rec[5:], e.Name)
}

// entries calls fn with the slot and record of each used entry of
// directory din, in slot order, straight from the transaction's copies
// of its blocks; fn returns false to stop.
func (fs *FS) entries(ctx context.Context, t *tx, din *inode, fn func(slot int, rec []byte) bool) error {
	per := fs.bs / direntSize
	slots := int(din.Size) / direntSize
	m, err := fs.loadMap(ctx, t, din, fs.blocksFor(int64(din.Size)))
	if err != nil {
		return err
	}
	for first := 0; first < slots; first += per {
		phys := m.at(int64(first / per))
		if phys == 0 {
			continue // a hole holds no entries
		}
		buf, err := t.bread(ctx, phys)
		if err != nil {
			return err
		}
		for s := first; s < min(first+per, slots); s++ {
			rec := buf[(s-first)*direntSize : (s-first+1)*direntSize]
			if rec[4] != 0 && !fn(s, rec) {
				return nil
			}
		}
	}
	return nil
}

// readDir lists directory din.
func (fs *FS) readDir(ctx context.Context, t *tx, din *inode) ([]DirEntry, error) {
	var out []DirEntry
	err := fs.entries(ctx, t, din, func(_ int, rec []byte) bool {
		out = append(out, DirEntry{Name: string(recName(rec)), Ino: recIno(rec)})
		return true
	})
	return out, err
}

// lookup scans directory din for name and reports its inode and slot;
// slot is -1 if name is absent.
func (fs *FS) lookup(ctx context.Context, t *tx, din *inode, name string) (ino uint32, slot int, err error) {
	slot = -1
	err = fs.entries(ctx, t, din, func(s int, rec []byte) bool {
		if string(recName(rec)) != name {
			return true
		}
		ino, slot = recIno(rec), s
		return false
	})
	return ino, slot, err
}

// resolve walks path to an inode number.
func (fs *FS) resolve(ctx context.Context, t *tx, path string) (uint32, *inode, error) {
	ino := uint32(0)
	in, err := fs.readInode(ctx, t, ino)
	if err != nil {
		return 0, nil, err
	}
	for _, name := range splitPath(path) {
		if in.Mode != modeDir {
			return 0, nil, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		child, slot, err := fs.lookup(ctx, t, in, name)
		if err != nil {
			return 0, nil, err
		}
		if slot < 0 {
			return 0, nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		ino = child
		if in, err = fs.readInode(ctx, t, ino); err != nil {
			return 0, nil, err
		}
	}
	return ino, in, nil
}

// resolveParent resolves everything but the last component.
func (fs *FS) resolveParent(ctx context.Context, t *tx, path string) (uint32, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("fsim: path %q has no leaf", path)
	}
	leaf := parts[len(parts)-1]
	if len(leaf) > maxNameLen {
		return 0, "", fmt.Errorf("%w: %s", ErrNameTooLong, leaf)
	}
	dir := strings.Join(parts[:len(parts)-1], "/")
	ino, in, err := fs.resolve(ctx, t, dir)
	if err != nil {
		return 0, "", err
	}
	if in.Mode != modeDir {
		return 0, "", fmt.Errorf("%w: %s", ErrNotDir, dir)
	}
	return ino, leaf, nil
}

// setEntry stores e in slot of directory dino (a zero DirEntry clears
// the slot), growing the directory from group g as needed, and writes
// the directory inode back only if that changed it.
func (fs *FS) setEntry(ctx context.Context, t *tx, dino uint32, din *inode, slot int, e DirEntry, g uint32) error {
	rec := make([]byte, direntSize)
	encodeEntry(rec, e)
	before := *din
	if err := fs.writeData(ctx, t, din, int64(slot)*direntSize, rec, g); err != nil {
		return err
	}
	if *din == before {
		return nil
	}
	return fs.writeInode(ctx, t, dino, din)
}

// addEntry links e into the first free slot of directory dino.
func (fs *FS) addEntry(ctx context.Context, t *tx, dino uint32, din *inode, e DirEntry, g uint32) error {
	// Used slots come in order, so the first one missing is free.
	free := 0
	err := fs.entries(ctx, t, din, func(slot int, _ []byte) bool {
		if slot != free {
			return false
		}
		free++
		return true
	})
	if err != nil {
		return err
	}
	return fs.setEntry(ctx, t, dino, din, free, e, g)
}

// create makes an inode of the given mode holding data and links it
// under path, as one transaction. Allocation prefers this mount's group
// and falls over to the next group when one fills up.
func (fs *FS) create(ctx context.Context, path string, mode uint16, data []byte) (uint32, error) {
	u := fs.begin(false)
	defer u.end()
	pino, leaf, err := fs.resolveParent(ctx, u, path)
	if err != nil {
		return 0, err
	}
	lastErr := error(ErrNoSpace)
	for attempt := uint32(0); attempt < fs.sb.Groups; attempt++ {
		g := (fs.prefGroup + attempt) % fs.sb.Groups
		ino, err := fs.createIn(ctx, u, g, pino, leaf, path, mode, data)
		if errors.Is(err, ErrNoInodes) || errors.Is(err, ErrNoSpace) {
			lastErr = err
			continue
		}
		return ino, err
	}
	return 0, lastErr
}

// createIn is create in group g. The new inode's table block must be in
// the lock group, so it peeks at the inode bitmap through u (the mount
// cache) for a free inode, locks that inode's block with the parent's
// and the group, and under the locks allocates only inside that block.
// If the block filled meanwhile, it retries with a free inode the
// locked bitmap shows.
func (fs *FS) createIn(ctx context.Context, u *tx, g, pino uint32, leaf, path string, mode uint16, data []byte) (uint32, error) {
	ino, err := fs.freeInode(ctx, u, g, 0)
	if err != nil {
		return 0, err
	}
	for retry := 0; ; retry++ {
		stale := false
		err := fs.withLocks(ctx, fs.lockSet([]uint32{g}, pino, ino), func(t *tx) error {
			din, err := fs.readInode(ctx, t, pino)
			if err != nil {
				return err
			}
			if din.Mode != modeDir {
				return fmt.Errorf("%w: parent of %s", ErrNotDir, path)
			}
			if _, slot, err := fs.lookup(ctx, t, din, leaf); err != nil {
				return err
			} else if slot >= 0 {
				return fmt.Errorf("%w: %s", ErrExist, path)
			}
			tb, _ := fs.inodeLoc(ino)
			got, err := fs.freeInode(ctx, t, g, tb)
			if errors.Is(err, ErrNoInodes) {
				ino, err = fs.freeInode(ctx, t, g, 0)
				stale = err == nil
				return err
			}
			if err != nil {
				return err
			}
			ino = got
			// Bitmaps, then data, the inode and the entry that makes them
			// reachable: commit writes them in that order.
			if err := fs.setInodeUsed(ctx, t, ino, true); err != nil {
				return err
			}
			child := inode{Mode: mode, Nlink: 1}
			if err := fs.writeData(ctx, t, &child, 0, data, g); err != nil {
				return err
			}
			if err := fs.writeInode(ctx, t, ino, &child); err != nil {
				return err
			}
			return fs.addEntry(ctx, t, pino, din, DirEntry{Name: leaf, Ino: ino}, g)
		})
		if err != nil || !stale {
			return ino, err
		}
		if retry > 16 {
			return 0, fmt.Errorf("fsim: create %s: inode table kept filling", path)
		}
	}
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(ctx context.Context, path string) error {
	_, err := fs.create(ctx, path, modeDir, nil)
	return err
}

// MkdirAll creates a directory and any missing ancestors.
func (fs *FS) MkdirAll(ctx context.Context, path string) error {
	parts := splitPath(path)
	for i := 1; i <= len(parts); i++ {
		err := fs.Mkdir(ctx, strings.Join(parts[:i], "/"))
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Create makes a new empty file and returns a handle.
func (fs *FS) Create(ctx context.Context, path string) (*File, error) {
	ino, err := fs.create(ctx, path, modeFile, nil)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino}, nil
}

// resolveFile is resolve for a path that must not name a directory.
func (fs *FS) resolveFile(ctx context.Context, t *tx, path string) (uint32, *inode, error) {
	ino, in, err := fs.resolve(ctx, t, path)
	if err != nil {
		return 0, nil, err
	}
	if in.Mode == modeDir {
		return 0, nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	return ino, in, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(ctx context.Context, path string) (*File, error) {
	t := fs.begin(false)
	defer t.end()
	ino, _, err := fs.resolveFile(ctx, t, path)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino}, nil
}

// Stat describes the object at path.
func (fs *FS) Stat(ctx context.Context, path string) (FileInfo, error) {
	t := fs.begin(false)
	defer t.end()
	ino, in, err := fs.resolve(ctx, t, path)
	if err != nil {
		return FileInfo{}, err
	}
	parts := splitPath(path)
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return FileInfo{Name: name, Ino: ino, Size: int64(in.Size), IsDir: in.Mode == modeDir}, nil
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(ctx context.Context, path string) ([]DirEntry, error) {
	t := fs.begin(false)
	defer t.end()
	_, in, err := fs.resolve(ctx, t, path)
	if err != nil {
		return nil, err
	}
	if in.Mode != modeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	return fs.readDir(ctx, t, in)
}

// Remove deletes a file or an empty directory. The lock group covers
// the parent and child inodes plus every allocation group that will
// receive freed blocks; the group set is computed optimistically and
// re-verified under the locks, retrying with the set seen there if it
// changed.
func (fs *FS) Remove(ctx context.Context, path string) error {
	u := fs.begin(false)
	defer u.end()
	pino, leaf, err := fs.resolveParent(ctx, u, path)
	if err != nil {
		return err
	}
	din, err := fs.readInode(ctx, u, pino)
	if err != nil {
		return err
	}
	cino, slot, err := fs.lookup(ctx, u, din, leaf)
	if err != nil {
		return err
	}
	if slot < 0 {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	child, err := fs.readInode(ctx, u, cino)
	if err != nil {
		return err
	}
	blks, err := fs.fileBlocks(ctx, u, child)
	if err != nil {
		return err
	}
	groups := fs.groupsOf(blks, cino/fs.sb.InodesPerGroup)
	for retry := 0; ; retry++ {
		stale := false
		err = fs.withLocks(ctx, fs.lockSet(groups, pino, cino), func(t *tx) error {
			din, err := fs.readInode(ctx, t, pino)
			if err != nil {
				return err
			}
			got, slot, err := fs.lookup(ctx, t, din, leaf)
			if err != nil {
				return err
			}
			if slot < 0 || got != cino {
				return fmt.Errorf("%w: %s (changed concurrently)", ErrNotExist, path)
			}
			child, err := fs.readInode(ctx, t, cino)
			if err != nil {
				return err
			}
			if child.Mode == modeDir {
				empty := true
				if err := fs.entries(ctx, t, child, func(int, []byte) bool { empty = false; return false }); err != nil {
					return err
				}
				if !empty {
					return fmt.Errorf("%w: %s", ErrNotEmpty, path)
				}
			}
			blks, err := fs.fileBlocks(ctx, t, child)
			if err != nil {
				return err
			}
			if now := fs.groupsOf(blks, cino/fs.sb.InodesPerGroup); !slices.Equal(groups, now) {
				groups, stale = now, true // file grew into new groups; retry with them
				return nil
			}
			// Unlink first and free last: commit writes the entry and
			// the inode before the bitmaps, so a cut leaves only leaks.
			if err := fs.setEntry(ctx, t, pino, din, slot, DirEntry{}, 0); err != nil {
				return err
			}
			if err := fs.writeInode(ctx, t, cino, &inode{}); err != nil {
				return err
			}
			for _, g := range groups {
				if err := fs.freeBlocksInGroup(ctx, t, g, blks); err != nil {
					return err
				}
			}
			return fs.setInodeUsed(ctx, t, cino, false)
		})
		if err != nil || !stale {
			return err
		}
		if retry > 16 {
			return fmt.Errorf("fsim: remove %s: lock set kept changing", path)
		}
	}
}

// groupsOf lists, sorted, the groups gs plus every allocation group
// owning one of blks.
func (fs *FS) groupsOf(blks []int64, gs ...uint32) []uint32 {
	out := slices.Clone(gs)
	for _, b := range blks {
		if g := fs.sb.groupOfBlock(b); !slices.Contains(out, g) {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return out
}

// File is an open file handle. Handles are stateless (offsets are
// explicit), so they are safe to share.
type File struct {
	fs  *FS
	ino uint32
}

// Size reports the current file size.
func (f *File) Size(ctx context.Context) (int64, error) {
	t := f.fs.begin(false)
	defer t.end()
	in, err := f.fs.readInode(ctx, t, f.ino)
	if err != nil {
		return 0, err
	}
	return int64(in.Size), nil
}

// ReadAt fills p from offset off, returning the bytes read (short reads
// happen at end of file).
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	t := f.fs.begin(false)
	defer t.end()
	in, err := f.fs.readInode(ctx, t, f.ino)
	if err != nil {
		return 0, err
	}
	return f.fs.readData(ctx, t, in, off, p)
}

// WriteAt stores p at offset off, growing the file as needed. The
// inode and an allocation group are locked as one atomic group for the
// duration; a full group falls over to the next.
func (f *File) WriteAt(ctx context.Context, p []byte, off int64) error {
	return f.write(ctx, p, func(in *inode) int64 { return off })
}

// Append writes p at the end of the file.
func (f *File) Append(ctx context.Context, p []byte) error {
	return f.write(ctx, p, func(in *inode) int64 { return int64(in.Size) })
}

func (f *File) write(ctx context.Context, p []byte, offOf func(*inode) int64) error {
	fs := f.fs
	lastErr := error(ErrNoSpace)
	for attempt := uint32(0); attempt < fs.sb.Groups; attempt++ {
		g := (fs.prefGroup + attempt) % fs.sb.Groups
		err := fs.withLocks(ctx, fs.lockSet([]uint32{g}, f.ino), func(t *tx) error {
			in, err := fs.readInode(ctx, t, f.ino)
			if err != nil {
				return err
			}
			before := *in
			if err := fs.writeData(ctx, t, in, offOf(in), p, g); err != nil {
				return err
			}
			if *in == before {
				return nil // overwritten in place: size and pointers stand
			}
			return fs.writeInode(ctx, t, f.ino, in)
		})
		if errors.Is(err, ErrNoSpace) {
			lastErr = err
			continue
		}
		return err
	}
	return lastErr
}

// WriteFile creates a file with the given contents, as one transaction;
// it fails with ErrExist if path already names something.
func (fs *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	_, err := fs.create(ctx, path, modeFile, data)
	return err
}

// ReadFile returns a file's full contents.
func (fs *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	t := fs.begin(false)
	defer t.end()
	_, in, err := fs.resolveFile(ctx, t, path)
	if err != nil {
		return nil, err
	}
	data := make([]byte, in.Size)
	n, err := fs.readData(ctx, t, in, 0, data)
	return data[:n], err
}

// Reader returns a sequential io.Reader over the file's contents. The
// context is captured for the reads.
func (f *File) Reader(ctx context.Context) *FileReader {
	return &FileReader{f: f, ctx: ctx}
}

// FileReader streams a file sequentially.
type FileReader struct {
	f   *File
	ctx context.Context
	off int64
}

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(r.ctx, p, r.off)
	r.off += int64(n)
	if err != nil {
		return n, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Writer returns a sequential appender implementing io.Writer, starting
// at the given offset (use the current size to append).
func (f *File) Writer(ctx context.Context, off int64) *FileWriter {
	return &FileWriter{f: f, ctx: ctx, off: off}
}

// FileWriter streams sequential writes into a file.
type FileWriter struct {
	f   *File
	ctx context.Context
	off int64
}

// Write implements io.Writer.
func (w *FileWriter) Write(p []byte) (int, error) {
	if err := w.f.WriteAt(w.ctx, p, w.off); err != nil {
		return 0, err
	}
	w.off += int64(len(p))
	return len(p), nil
}
