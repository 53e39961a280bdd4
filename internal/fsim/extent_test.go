package fsim

// Tests of the extent data path: byte ranges against the shadow model,
// stale-slack regressions, cache coherence of writes that go past the
// cache, and pins on how many array calls an operation may make.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/race"
	"repro/internal/raid"
	"repro/internal/store"
)

// countingArray counts the block I/O calls fsim makes on the array.
type countingArray struct {
	raid.Array
	calls atomic.Int64
}

func (a *countingArray) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	a.calls.Add(1)
	return a.Array.ReadBlocks(ctx, b, p)
}

func (a *countingArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	a.calls.Add(1)
	return a.Array.WriteBlocks(ctx, b, p)
}

// newCountedFS formats a 4 KiB-block RAID-x volume of 4096 blocks behind
// a countingArray.
func newCountedFS(t *testing.T, opts Options) (*FS, *countingArray) {
	t.Helper()
	devs := make([]raid.Dev, 4)
	for i := range devs {
		devs[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(4096, 2048), disk.DefaultModel())
	}
	arr, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ca := &countingArray{Array: arr}
	fs, err := Mkfs(context.Background(), ca, NewTableLocker(cdd.NewTable()), "test", opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs, ca
}

func mustFsck(t *testing.T, fs *FS) {
	t.Helper()
	rep, err := fs.Fsck(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s\nproblems: %v leaked-blocks: %v leaked-inodes: %v",
			rep, rep.Problems, rep.LeakedBlocks, rep.LeakedInodes)
	}
}

// TestNoStaleSlack: a block this write allocated is never read back, so
// what a removed file left in it cannot surface in the gap between two
// small writes, nor in the tail a Truncate-grow exposes.
func TestNoStaleSlack(t *testing.T) {
	ctx := context.Background()
	fs, _ := newCountedFS(t, Options{})
	// dirty leaves one freed block full of 0xAA for the next file.
	dirty := func() {
		t.Helper()
		if err := fs.WriteFile(ctx, "/a", bytes.Repeat([]byte{0xAA}, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(ctx, "/a"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(path string, want []byte) {
		t.Helper()
		got, err := fs.ReadFile(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s: byte %d of %d is %#x", path, i, len(got), got[i])
				}
			}
			t.Fatalf("%s: %d bytes, want %d", path, len(got), len(want))
		}
	}

	dirty()
	f, err := fs.Create(ctx, "/gap")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, []byte("x"), 2000); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2001)
	copy(want, "hello")
	want[2000] = 'x'
	check("/gap", want)
	if err := fs.Remove(ctx, "/gap"); err != nil {
		t.Fatal(err)
	}

	dirty()
	f, err = fs.Create(ctx, "/grow")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(ctx, 3000); err != nil {
		t.Fatal(err)
	}
	want = make([]byte, 3000)
	copy(want, "hello")
	check("/grow", want)
	if err := fs.Remove(ctx, "/grow"); err != nil {
		t.Fatal(err)
	}

	// A write past the end leaves the skipped blocks as holes; they
	// must not be handed the dirty block either.
	dirty()
	f, err = fs.Create(ctx, "/far")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, []byte("end"), 3*4096+10); err != nil {
		t.Fatal(err)
	}
	want = make([]byte, 3*4096+13)
	copy(want[3*4096+10:], "end")
	check("/far", want)
	mustFsck(t, fs)
}

// TestExtentRanges drives WriteAt and ReadAt with ranges that start and
// end inside blocks, cross block boundaries and the direct-to-indirect
// boundary at block 12, over fresh files, a contiguous file, a file of
// holes and a file with no two blocks adjacent; every range is compared
// with the shadow model and every scenario ends with a clean Fsck.
func TestExtentRanges(t *testing.T) {
	const B = 4096
	ranges := []struct{ off, n int64 }{
		{0, 1}, {0, B}, {0, B + 1}, {B - 1, 2}, {B / 2, B}, {B, 3 * B},
		{3*B + 7, 5 * B}, {11 * B, 2 * B}, {12*B - 5, 10}, {12 * B, B},
		{10*B + 100, 6 * B}, {39*B + 1, B - 1}, {20 * B, 0}, {0, 40 * B},
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	fill := func(n int64) []byte {
		p := make([]byte, n)
		rng.Read(p)
		for i := range p {
			p[i] |= 1 // never zero, so a hole cannot pass for data
		}
		return p
	}
	// readBack compares every range and the whole file with the model.
	readBack := func(t *testing.T, fs *FS, sh *shadowFS, name string) {
		t.Helper()
		f, err := fs.Open(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		model := sh.files[name]
		for _, r := range ranges {
			want := model[min(r.off, int64(len(model))):min(r.off+r.n, int64(len(model)))]
			got := make([]byte, r.n)
			n, err := f.ReadAt(ctx, got, r.off)
			if err != nil {
				t.Fatalf("%s: read %d+%d: %v", name, r.off, r.n, err)
			}
			if !bytes.Equal(got[:n], want) {
				t.Fatalf("%s: read %d+%d: %d bytes differ from the model's %d", name, r.off, r.n, n, len(want))
			}
		}
		got, err := fs.ReadFile(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("%s: whole file (%d bytes) differs from the model (%d bytes)", name, len(got), len(model))
		}
	}
	// overwrite applies every range to one file, reading back after each.
	overwrite := func(t *testing.T, fs *FS, sh *shadowFS, name string) {
		t.Helper()
		f, err := fs.Open(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			p := fill(r.n)
			if err := f.WriteAt(ctx, p, r.off); err != nil {
				t.Fatalf("%s: write %d+%d: %v", name, r.off, r.n, err)
			}
			sh.writeAt(name, p, r.off)
			readBack(t, fs, sh, name)
		}
	}

	for _, cacheBlocks := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(t *testing.T) {
			fs, _ := newCountedFS(t, Options{CacheBlocks: cacheBlocks})
			sh := newShadow()

			// Each range into its own fresh file: holes below off, fresh
			// partial blocks at both ends.
			for i, r := range ranges {
				name := fmt.Sprintf("/fresh%02d", i)
				f, err := fs.Create(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				sh.files[name] = nil
				p := fill(r.n)
				if err := f.WriteAt(ctx, p, r.off); err != nil {
					t.Fatalf("%s: write %d+%d: %v", name, r.off, r.n, err)
				}
				sh.writeAt(name, p, r.off)
				readBack(t, fs, sh, name)
			}
			mustFsck(t, fs)

			// One contiguous 40-block file.
			sh.files["/contig"] = fill(40 * B)
			if err := fs.WriteFile(ctx, "/contig", sh.files["/contig"]); err != nil {
				t.Fatal(err)
			}
			overwrite(t, fs, sh, "/contig")
			mustFsck(t, fs)

			// Forty blocks of holes.
			f, err := fs.Create(ctx, "/holes")
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(ctx, 40*B); err != nil {
				t.Fatal(err)
			}
			sh.files["/holes"] = make([]byte, 40*B)
			readBack(t, fs, sh, "/holes")
			overwrite(t, fs, sh, "/holes")
			mustFsck(t, fs)

			// Two files grown alternately a block at a time, so no two
			// blocks of either are adjacent.
			var frag [2]*File
			for i := range frag {
				name := fmt.Sprintf("/frag%d", i)
				if frag[i], err = fs.Create(ctx, name); err != nil {
					t.Fatal(err)
				}
				sh.files[name] = nil
			}
			for b := 0; b < 40; b++ {
				for i, f := range frag {
					name := fmt.Sprintf("/frag%d", i)
					p := fill(B)
					if err := f.Append(ctx, p); err != nil {
						t.Fatal(err)
					}
					sh.writeAt(name, p, int64(len(sh.files[name])))
				}
			}
			for i, f := range frag {
				tx := fs.begin(true)
				in, err := fs.readInode(ctx, tx, f.ino)
				if err != nil {
					t.Fatal(err)
				}
				blks, err := fs.fileBlocks(ctx, tx, in)
				tx.end()
				if err != nil {
					t.Fatal(err)
				}
				blks = blks[:len(blks)-1] // the indirect block comes last
				for j := 1; j < len(blks); j++ {
					if blks[j] == blks[j-1]+1 {
						t.Fatalf("/frag%d: blocks %d and %d are adjacent (%d, %d); the file is not fragmented", i, j-1, j, blks[j-1], blks[j])
					}
				}
			}
			readBack(t, fs, sh, "/frag0")
			overwrite(t, fs, sh, "/frag1")
			readBack(t, fs, sh, "/frag0")
			mustFsck(t, fs)
		})
	}
}

// TestCacheDropOnDirectWrite: a whole-block write goes past the cache
// and must drop the copy a partial write left there, and dropping must
// keep the FIFO bookkeeping exact.
func TestCacheDropOnDirectWrite(t *testing.T) {
	ctx := context.Background()
	fs, _ := newCountedFS(t, Options{})
	f, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, []byte("partial"), 0); err != nil { // cached
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, bytes.Repeat([]byte{'B'}, 2*4096), 0); err != nil { // direct
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if _, err := f.ReadAt(ctx, got, 0); err != nil { // through the cache
		t.Fatal(err)
	}
	if string(got) != "BBBBBBB" {
		t.Fatalf("read %q after a direct overwrite: the cached copy was not dropped", got)
	}

	c := newBlockCache(4)
	blk := make([]byte, 8)
	for b := int64(10); b < 14; b++ {
		c.put(ctx, b, blk)
	}
	c.drop(11, 2)
	if len(c.data) != 2 || len(c.order) != 2 {
		t.Fatalf("after drop: %d entries, %d in order, want 2 and 2", len(c.data), len(c.order))
	}
	c.put(ctx, 11, blk)
	c.put(ctx, 20, blk)
	if len(c.data) != 4 || !c.get(ctx, 10, blk) || !c.get(ctx, 11, blk) {
		t.Fatalf("a dropped block's stale FIFO slot evicted a live entry: %v", c.order)
	}
}

// TestCallsExtentIO pins how many array calls the extent path may make,
// on an uncached mount so every read is counted. A return to one call
// per file block, or to re-reading the indirect block per pointer, fails
// here (per-block I/O made 134, 121 and 122 calls; a WriteFile that ran
// Create and then WriteAt made 18).
func TestCallsExtentIO(t *testing.T) {
	ctx := context.Background()
	fs, arr := newCountedFS(t, Options{CacheBlocks: -1})
	calls := func(fn func() error) int64 {
		t.Helper()
		before := arr.calls.Load()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return arr.calls.Load() - before
	}
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(data)

	// Unlocked: the root inode and the inode bitmap (the peek). Locked:
	// the root inode, the root directory, the bitmaps and the new
	// inode's table block; the indirect block, one data run, the bitmaps
	// with the table block after them, the entry and the root inode.
	if n := calls(func() error { return fs.WriteFile(ctx, "/big", data) }); n > 12 {
		t.Errorf("WriteFile of 256 KiB on a fresh volume: %d array calls, want <= 12", n)
	}
	// Root inode, root directory, file inode, indirect block, one data read.
	var got []byte
	if n := calls(func() (err error) { got, err = fs.ReadFile(ctx, "/big"); return err }); n > 5 {
		t.Errorf("ReadFile of 256 KiB: %d array calls, want <= 5", n)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReadFile returned different bytes")
	}

	f, err := fs.Create(ctx, "/mib")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	// Inode read, indirect read, one data write; the inode is unchanged.
	if n := calls(func() error { return f.WriteAt(ctx, data[:4096], 512<<10) }); n > 3 {
		t.Errorf("4 KiB overwrite inside a 1 MiB file: %d array calls, want <= 3", n)
	}
	mustFsck(t, fs)
}

// countingLocker counts lock-group acquisitions and releases.
type countingLocker struct {
	Locker
	locks, unlocks atomic.Int64
}

func (l *countingLocker) Lock(ctx context.Context, owner string, rs []cdd.Range) error {
	l.locks.Add(1)
	return l.Locker.Lock(ctx, owner, rs)
}

func (l *countingLocker) Unlock(ctx context.Context, owner string, rs []cdd.Range) error {
	l.unlocks.Add(1)
	return l.Locker.Unlock(ctx, owner, rs)
}

// TestCallsFSOps pins the array calls of one operation on the default
// cached mount: each is one transaction that reads a block at most once
// under its locks and writes each changed block once, at commit. The
// files live in a directory this mount created, as in the Andrew tree,
// so the parent's inode and the new one share a table block; creating
// in the root, whose inode sits in another group's table, reads and
// writes that second table block too. Running Create and then WriteAt,
// with nested table-block locks, made 11, 18, 18, 14 and 14 calls.
func TestCallsFSOps(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(4)).Read(data)
	for _, dir := range []string{"/d", ""} {
		fs, arr := newCountedFS(t, Options{})
		if dir != "" {
			if err := fs.Mkdir(ctx, dir); err != nil {
				t.Fatal(err)
			}
		}
		// A first file warms the cache the unlocked lookups read.
		if err := fs.WriteFile(ctx, dir+"/warm", []byte("w")); err != nil {
			t.Fatal(err)
		}
		other := 0 // the root's table block, read and written once more
		if dir == "" {
			other = 1
		}
		for _, op := range []struct {
			name string
			max  int
			fn   func() error
		}{
			{"Create", 6 + other, func() error { _, err := fs.Create(ctx, dir+"/c"); return err }},
			{"WriteFile 256 KiB", 10 + other, func() error { return fs.WriteFile(ctx, dir+"/big", data) }},
			{"WriteFile 5,000 B", 8 + other, func() error { return fs.WriteFile(ctx, dir+"/small", data[:5000]) }},
			{"same-directory Rename", 3, func() error { return fs.Rename(ctx, dir+"/c", dir+"/c2") }},
			{"Remove 256 KiB", 8, func() error { return fs.Remove(ctx, dir+"/big") }},
			{"Remove 5,000 B", 8, func() error { return fs.Remove(ctx, dir+"/small") }},
		} {
			before := arr.calls.Load()
			if err := op.fn(); err != nil {
				t.Fatalf("%s in %q: %v", op.name, dir+"/", err)
			}
			if n := arr.calls.Load() - before; n > int64(op.max) {
				t.Errorf("%s in %q: %d array calls, want <= %d", op.name, dir+"/", n, op.max)
			}
		}
		mustFsck(t, fs)
	}
}

// TestCallsLockOps: every mutating operation takes its whole lock group
// in one Lock and gives it back in one Unlock. Under raidxfs the lock
// home is a node, so each Lock is a network round trip; nested
// table-block locks made 3, 5, 2, 2, 3 and 3.
func TestCallsLockOps(t *testing.T) {
	ctx := context.Background()
	fs, _ := newCountedFS(t, Options{})
	lk := &countingLocker{Locker: fs.lock}
	fs.lock = lk
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	var f *File
	for _, op := range []struct {
		name string
		fn   func() error
	}{
		{"Create", func() (err error) { f, err = fs.Create(ctx, "/d/f"); return err }},
		{"WriteFile", func() error { return fs.WriteFile(ctx, "/d/g", make([]byte, 70000)) }},
		{"WriteAt", func() error { return f.WriteAt(ctx, make([]byte, 70000), 100) }},
		{"Truncate", func() error { return f.Truncate(ctx, 5000) }},
		{"Rename", func() error { return fs.Rename(ctx, "/d/f", "/f") }},
		{"Remove", func() error { return fs.Remove(ctx, "/d/g") }},
	} {
		l0, u0 := lk.locks.Load(), lk.unlocks.Load()
		if err := op.fn(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if l, u := lk.locks.Load()-l0, lk.unlocks.Load()-u0; l != 1 || u != 1 {
			t.Errorf("%s: %d Lock and %d Unlock calls, want 1 and 1", op.name, l, u)
		}
	}
	mustFsck(t, fs)
}

// TestAllocsFSOverwrite: a 4 KiB overwrite inside a 1 MiB file, over
// the in-process engine, allocates no more than before the operation
// became a transaction (15).
func TestAllocsFSOverwrite(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	fs, _ := newCountedFS(t, Options{})
	f, err := fs.Create(ctx, "/mib")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.WriteAt(ctx, p, 512<<10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 15 {
		t.Errorf("4 KiB overwrite: %.1f allocs, want <= 15", allocs)
	}
}

// TestAllocsFSCreateRemove: a Create and a Remove of the same name
// allocate no more than before they became transactions (132).
func TestAllocsFSCreateRemove(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	fs, _ := newCountedFS(t, Options{})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.Create(ctx, "/x"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(ctx, "/x"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 132 {
		t.Errorf("Create + Remove: %.1f allocs, want <= 132", allocs)
	}
}
