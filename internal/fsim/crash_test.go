package fsim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cdd"
	"repro/internal/raid"
)

var errCut = errors.New("write cut")

// cutArray passes the first `left` writes on to the array and fails
// every later one, like a volume whose node stops answering partway
// through an operation.
type cutArray struct {
	raid.Array
	left atomic.Int64
}

func (a *cutArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	if a.left.Add(-1) < 0 {
		return errCut
	}
	return a.Array.WriteBlocks(ctx, b, p)
}

// TestCrashFSCommitOrder cuts each operation after its k-th array write,
// for every k, and checks the volume from a fresh uncached mount: Fsck
// must find no problem (at most leaks) and Repair must leave it clean.
// Commit order is what makes this hold: an allocation writes the blocks
// it allocated, then the bitmaps, the inode and the entry; a removal
// writes the entry and the inode, then the bitmaps.
func TestCrashFSCommitOrder(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 70000) // 18 blocks: indirect block in use
	for i := range data {
		data[i] = byte(i%251 + 1)
	}
	for _, sc := range []struct {
		name  string
		setup func(fs *FS) error
		op    func(fs *FS) error
	}{
		{"Remove file", func(fs *FS) error { return fs.WriteFile(ctx, "/d/f", data) },
			func(fs *FS) error { return fs.Remove(ctx, "/d/f") }},
		{"Remove dir", func(fs *FS) error { return fs.Mkdir(ctx, "/d/e") },
			func(fs *FS) error { return fs.Remove(ctx, "/d/e") }},
		{"Truncate", func(fs *FS) error { return fs.WriteFile(ctx, "/d/f", data) },
			func(fs *FS) error {
				f, err := fs.Open(ctx, "/d/f")
				if err != nil {
					return err
				}
				return f.Truncate(ctx, 5000)
			}},
		{"WriteFile", nil, func(fs *FS) error { return fs.WriteFile(ctx, "/d/f", data) }},
		{"Create", nil, func(fs *FS) error { _, err := fs.Create(ctx, "/d/c"); return err }},
		// The new inode shares /g's table block and /g's only block is
		// full, so the entry goes into a block the directory grows by,
		// one a removed file left its bytes in.
		{"Create growing the directory", func(fs *FS) error {
			if err := fs.Mkdir(ctx, "/g"); err != nil {
				return err
			}
			for i := 0; i < 30; i++ {
				if err := fs.WriteFile(ctx, fmt.Sprintf("/d/x%d", i), data[:fs.bs]); err != nil {
					return err
				}
			}
			for i := 0; i < fs.bs/direntSize; i++ {
				if err := fs.WriteFile(ctx, fmt.Sprintf("/g/%d", i), nil); err != nil {
					return err
				}
			}
			for i := 0; i < 30; i++ {
				if err := fs.Remove(ctx, fmt.Sprintf("/d/x%d", i)); err != nil {
					return err
				}
			}
			return nil
		}, func(fs *FS) error { return fs.WriteFile(ctx, "/g/new", data[:100]) }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			for k := int64(0); ; k++ {
				base, _ := newCountedFS(t, Options{})
				cut := &cutArray{Array: base.arr}
				cut.left.Store(1 << 62)
				fs, err := Mount(ctx, cut, NewTableLocker(cdd.NewTable()), "test")
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.Mkdir(ctx, "/d"); err != nil {
					t.Fatal(err)
				}
				if sc.setup != nil {
					if err := sc.setup(fs); err != nil {
						t.Fatal(err)
					}
				}
				cut.left.Store(k)
				opErr := sc.op(fs)
				if opErr != nil && !errors.Is(opErr, errCut) {
					t.Fatalf("k=%d: %v", k, opErr)
				}
				check, err := MountOptions(ctx, base.arr, NewTableLocker(cdd.NewTable()), "check", Options{CacheBlocks: -1})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := check.Fsck(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Problems) > 0 {
					t.Fatalf("cut after %d writes: %s\nproblems: %v", k, rep, rep.Problems)
				}
				if rep, err = check.Repair(ctx); err != nil || !rep.OK() {
					t.Fatalf("cut after %d writes: repair: %v %v", k, rep, err)
				}
				if opErr == nil {
					return // k covered every write the operation makes
				}
			}
		})
	}
}
