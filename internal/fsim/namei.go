package fsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/cdd"
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

// entryAt decodes the i-th directory record from raw dir data.
func entryAt(data []byte, i int) (DirEntry, bool) {
	rec := data[i*direntSize : (i+1)*direntSize]
	nameLen := int(rec[4])
	if nameLen == 0 {
		return DirEntry{}, false
	}
	return DirEntry{
		Ino:  binary.BigEndian.Uint32(rec[0:4]),
		Name: string(rec[5 : 5+nameLen]),
	}, true
}

func encodeEntry(rec []byte, e DirEntry) {
	for i := range rec {
		rec[i] = 0
	}
	binary.BigEndian.PutUint32(rec[0:4], e.Ino)
	rec[4] = byte(len(e.Name))
	copy(rec[5:], e.Name)
}

// readDirData loads a directory's raw records.
func (fs *FS) readDirData(ctx context.Context, in *inode) ([]byte, error) {
	data := make([]byte, in.Size)
	if _, err := fs.readData(ctx, in, 0, data); err != nil {
		return nil, err
	}
	return data, nil
}

// lookup scans directory din for name.
func (fs *FS) lookup(ctx context.Context, din *inode, name string) (uint32, bool, error) {
	data, err := fs.readDirData(ctx, din)
	if err != nil {
		return 0, false, err
	}
	for i := 0; i < len(data)/direntSize; i++ {
		if e, ok := entryAt(data, i); ok && e.Name == name {
			return e.Ino, true, nil
		}
	}
	return 0, false, nil
}

// resolve walks path to an inode number.
func (fs *FS) resolve(ctx context.Context, path string) (uint32, *inode, error) {
	ino := uint32(0)
	in, err := fs.readInode(ctx, ino)
	if err != nil {
		return 0, nil, err
	}
	for _, name := range splitPath(path) {
		if in.Mode != modeDir {
			return 0, nil, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		child, ok, err := fs.lookup(ctx, in, name)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		ino = child
		if in, err = fs.readInode(ctx, ino); err != nil {
			return 0, nil, err
		}
	}
	return ino, in, nil
}

// resolveParent resolves everything but the last component.
func (fs *FS) resolveParent(ctx context.Context, path string) (uint32, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("fsim: path %q has no leaf", path)
	}
	leaf := parts[len(parts)-1]
	if len(leaf) > maxNameLen {
		return 0, "", fmt.Errorf("%w: %s", ErrNameTooLong, leaf)
	}
	dir := strings.Join(parts[:len(parts)-1], "/")
	ino, in, err := fs.resolve(ctx, dir)
	if err != nil {
		return 0, "", err
	}
	if in.Mode != modeDir {
		return 0, "", fmt.Errorf("%w: %s", ErrNotDir, dir)
	}
	return ino, leaf, nil
}

// addEntry writes a directory record into the first free slot of dir
// dino (held under locks by the caller), growing the directory file
// from group g as needed, and persists the directory inode.
func (fs *FS) addEntry(ctx context.Context, dino uint32, din *inode, e DirEntry, g uint32) error {
	data, err := fs.readDirData(ctx, din)
	if err != nil {
		return err
	}
	slot := len(data) / direntSize
	for i := 0; i < len(data)/direntSize; i++ {
		if _, ok := entryAt(data, i); !ok {
			slot = i
			break
		}
	}
	rec := make([]byte, direntSize)
	encodeEntry(rec, e)
	if err := fs.writeData(ctx, din, int64(slot)*direntSize, rec, g); err != nil {
		return err
	}
	return fs.writeInode(ctx, dino, din)
}

// removeEntry clears name's record in dir dino (caller holds locks).
func (fs *FS) removeEntry(ctx context.Context, dino uint32, din *inode, name string) error {
	data, err := fs.readDirData(ctx, din)
	if err != nil {
		return err
	}
	for i := 0; i < len(data)/direntSize; i++ {
		if e, ok := entryAt(data, i); ok && e.Name == name {
			rec := make([]byte, direntSize)
			// Clearing a slot never grows the directory, so no
			// allocation group is consulted.
			if err := fs.writeData(ctx, din, int64(i)*direntSize, rec, 0); err != nil {
				return err
			}
			return fs.writeInode(ctx, dino, din)
		}
	}
	return fmt.Errorf("%w: %s", ErrNotExist, name)
}

// create allocates an inode of the given mode and links it under path.
// Allocation prefers this mount's group and falls over to the next
// group when one fills up.
func (fs *FS) create(ctx context.Context, path string, mode uint16) (uint32, error) {
	pino, leaf, err := fs.resolveParent(ctx, path)
	if err != nil {
		return 0, err
	}
	var ino uint32
	lastErr := error(ErrNoSpace)
	for attempt := uint32(0); attempt < fs.sb.Groups; attempt++ {
		g := (fs.prefGroup + attempt) % fs.sb.Groups
		err := fs.withLocks(ctx, []cdd.Range{lockForGroup(g), lockForInode(pino)}, func(ctx context.Context) error {
			din, err := fs.readInode(ctx, pino)
			if err != nil {
				return err
			}
			if din.Mode != modeDir {
				return fmt.Errorf("%w: parent of %s", ErrNotDir, path)
			}
			if _, exists, err := fs.lookup(ctx, din, leaf); err != nil {
				return err
			} else if exists {
				return fmt.Errorf("%w: %s", ErrExist, path)
			}
			ino, err = fs.allocInode(ctx, g)
			if err != nil {
				return err
			}
			child := inode{Mode: mode, Nlink: 1}
			if err := fs.writeInode(ctx, ino, &child); err != nil {
				return err
			}
			if err := fs.addEntry(ctx, pino, din, DirEntry{Name: leaf, Ino: ino}, g); err != nil {
				// Roll back the inode claim so nothing leaks.
				_ = fs.setInodeUsed(ctx, ino, false)
				return err
			}
			return nil
		})
		if errors.Is(err, ErrNoInodes) || errors.Is(err, ErrNoSpace) {
			lastErr = err
			continue
		}
		return ino, err
	}
	return 0, lastErr
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(ctx context.Context, path string) error {
	_, err := fs.create(ctx, path, modeDir)
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
	ino, err := fs.create(ctx, path, modeFile)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino}, nil
}

// resolveFile is resolve for a path that must not name a directory.
func (fs *FS) resolveFile(ctx context.Context, path string) (uint32, *inode, error) {
	ino, in, err := fs.resolve(ctx, path)
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
	ino, _, err := fs.resolveFile(ctx, path)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino}, nil
}

// Stat describes the object at path.
func (fs *FS) Stat(ctx context.Context, path string) (FileInfo, error) {
	ino, in, err := fs.resolve(ctx, path)
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
	_, in, err := fs.resolve(ctx, path)
	if err != nil {
		return nil, err
	}
	if in.Mode != modeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	data, err := fs.readDirData(ctx, in)
	if err != nil {
		return nil, err
	}
	var out []DirEntry
	for i := 0; i < len(data)/direntSize; i++ {
		if e, ok := entryAt(data, i); ok {
			out = append(out, e)
		}
	}
	return out, nil
}

// Remove deletes a file or an empty directory. The lock group covers
// the parent and child inodes plus every allocation group that will
// receive freed blocks; the group set is computed optimistically and
// re-verified under the locks, retrying if it changed.
func (fs *FS) Remove(ctx context.Context, path string) error {
	pino, leaf, err := fs.resolveParent(ctx, path)
	if err != nil {
		return err
	}
	for retry := 0; ; retry++ {
		din, err := fs.readInode(ctx, pino)
		if err != nil {
			return err
		}
		cino, ok, err := fs.lookup(ctx, din, leaf)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		child, err := fs.readInode(ctx, cino)
		if err != nil {
			return err
		}
		blks, err := fs.fileBlocks(ctx, child)
		if err != nil {
			return err
		}
		groups := fs.groupsOf(cino, blks)
		ranges := make([]cdd.Range, 0, len(groups)+2)
		for _, g := range groups {
			ranges = append(ranges, lockForGroup(g))
		}
		ranges = append(ranges, lockForInode(pino), lockForInode(cino))

		stale := false
		err = fs.withLocks(ctx, ranges, func(ctx context.Context) error {
			din, err := fs.readInode(ctx, pino)
			if err != nil {
				return err
			}
			got, ok, err := fs.lookup(ctx, din, leaf)
			if err != nil {
				return err
			}
			if !ok || got != cino {
				return fmt.Errorf("%w: %s (changed concurrently)", ErrNotExist, path)
			}
			child, err := fs.readInode(ctx, cino)
			if err != nil {
				return err
			}
			if child.Mode == modeDir {
				data, err := fs.readDirData(ctx, child)
				if err != nil {
					return err
				}
				for i := 0; i < len(data)/direntSize; i++ {
					if _, used := entryAt(data, i); used {
						return fmt.Errorf("%w: %s", ErrNotEmpty, path)
					}
				}
			}
			blks, err := fs.fileBlocks(ctx, child)
			if err != nil {
				return err
			}
			if !sameGroups(groups, fs.groupsOf(cino, blks)) {
				stale = true // file grew into new groups; retry with them
				return nil
			}
			for _, g := range groups {
				if err := fs.freeBlocksInGroup(ctx, g, blks); err != nil {
					return err
				}
			}
			if err := fs.writeInode(ctx, cino, &inode{}); err != nil {
				return err
			}
			if err := fs.setInodeUsed(ctx, cino, false); err != nil {
				return err
			}
			return fs.removeEntry(ctx, pino, din, leaf)
		})
		if err != nil || !stale {
			return err
		}
		if retry > 16 {
			return fmt.Errorf("fsim: remove %s: lock set kept changing", path)
		}
	}
}

// groupsOf lists, sorted, every allocation group touched by freeing the
// inode and blocks.
func (fs *FS) groupsOf(ino uint32, blks []int64) []uint32 {
	seen := map[uint32]bool{ino / fs.sb.InodesPerGroup: true}
	for _, b := range blks {
		seen[fs.sb.groupOfBlock(b)] = true
	}
	out := make([]uint32, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sameGroups(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// File is an open file handle. Handles are stateless (offsets are
// explicit), so they are safe to share.
type File struct {
	fs  *FS
	ino uint32
}

// Size reports the current file size.
func (f *File) Size(ctx context.Context) (int64, error) {
	in, err := f.fs.readInode(ctx, f.ino)
	if err != nil {
		return 0, err
	}
	return int64(in.Size), nil
}

// ReadAt fills p from offset off, returning the bytes read (short reads
// happen at end of file).
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	in, err := f.fs.readInode(ctx, f.ino)
	if err != nil {
		return 0, err
	}
	return f.fs.readData(ctx, in, off, p)
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
		err := fs.withLocks(ctx, []cdd.Range{lockForGroup(g), lockForInode(f.ino)}, func(ctx context.Context) error {
			in, err := fs.readInode(ctx, f.ino)
			if err != nil {
				return err
			}
			before := *in
			if err := fs.writeData(ctx, in, offOf(in), p, g); err != nil {
				return err
			}
			if *in == before {
				return nil // overwritten in place: size and pointers stand
			}
			return fs.writeInode(ctx, f.ino, in)
		})
		if errors.Is(err, ErrNoSpace) {
			lastErr = err
			continue
		}
		return err
	}
	return lastErr
}

// WriteFile creates a file with the given contents; it fails with
// ErrExist if path already names something.
func (fs *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	f, err := fs.Create(ctx, path)
	if err != nil {
		return err
	}
	return f.WriteAt(ctx, data, 0)
}

// ReadFile returns a file's full contents.
func (fs *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	_, in, err := fs.resolveFile(ctx, path)
	if err != nil {
		return nil, err
	}
	data := make([]byte, in.Size)
	n, err := fs.readData(ctx, in, 0, data)
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
