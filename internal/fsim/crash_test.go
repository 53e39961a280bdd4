package fsim

import (
	"bytes"
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
// through an operation. With lands set, the first failed write is torn
// instead: of its blocks only those lands names reach the array, one
// call each, and n records how many blocks that write had.
type cutArray struct {
	raid.Array
	left  atomic.Int64
	lands func(i, n int) bool
	n     int
}

func (a *cutArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	left := a.left.Add(-1)
	if left >= 0 {
		return a.Array.WriteBlocks(ctx, b, p)
	}
	if left == -1 && a.lands != nil {
		bs := a.BlockSize()
		a.n = len(p) / bs
		for i := 0; i < a.n; i++ {
			if a.lands(i, a.n) {
				if err := a.Array.WriteBlocks(ctx, b+int64(i), p[i*bs:(i+1)*bs]); err != nil {
					return err
				}
			}
		}
	}
	return errCut
}

// TestCrashFSCommitOrder cuts each operation after its k-th array write,
// for every k, and checks the volume from a fresh uncached mount: Fsck
// must find no problem (at most leaks) and Repair must leave it clean.
// Commit order is what makes this hold: an allocation writes the blocks
// it allocated, then the bitmaps, the inode and the entry; a removal
// writes the entry and the inode, then the bitmaps. The k-th write is
// also torn, as a client dying inside one striped call tears it: every
// prefix of its blocks lands, and each block alone. A torn call may
// leave a bitmap behind its inode, which Repair mends; after it the
// volume is clean and every file still reachable reads back whole (a
// truncated one up to its new size).
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
			// run cuts the operation at its k-th write, torn as lands says
			// (nil: not at all), and checks the volume; it reports whether
			// the operation completed and the torn write's block count.
			run := func(k int64, lands func(i, n int) bool) (done bool, n int) {
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
				cut.lands = lands
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
				if lands == nil && len(rep.Problems) > 0 {
					t.Fatalf("cut after %d writes: %s\nproblems: %v", k, rep, rep.Problems)
				}
				if rep, err = check.Repair(ctx); err != nil || !rep.OK() {
					t.Fatalf("cut after %d writes, torn %v: repair: %v %v", k, lands != nil, rep, err)
				}
				// A truncate may drop its tail before the inode says so.
				keep := len(data)
				if sc.name == "Truncate" {
					keep = 5000
				}
				for _, path := range []string{"/d/f", "/d/c", "/g/new"} {
					got, err := check.ReadFile(ctx, path)
					if n := min(len(got), keep); err == nil && !bytes.Equal(got[:n], data[:n]) {
						t.Fatalf("cut after %d writes, torn %v: %s lost bytes", k, lands != nil, path)
					}
				}
				return opErr == nil, cut.n
			}
			for k := int64(0); ; k++ {
				done, _ := run(k, nil)
				if done {
					return // k covered every write the operation makes
				}
				// Tear the k-th write: each prefix, then each block alone.
				_, n := run(k, func(i, n int) bool { return false })
				for j := 1; j < n; j++ {
					run(k, func(i, n int) bool { return i < j })
				}
				for j := 0; n > 1 && j < n; j++ {
					run(k, func(i, n int) bool { return i == j })
				}
			}
		})
	}
}
