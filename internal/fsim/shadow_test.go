package fsim

// Shadow-model tests: drive the file system with randomized operation
// sequences and compare against a trivial in-memory model after every
// step, sequentially and then with concurrent simulated clients.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/vclock"
)

// shadowFS is the reference model: paths to contents, dirs as a set.
type shadowFS struct {
	files map[string][]byte
	dirs  map[string]bool
}

func newShadow() *shadowFS {
	return &shadowFS{files: map[string][]byte{}, dirs: map[string]bool{"": true}}
}

// writeAt applies a File.WriteAt to the model: bytes between the old
// end and off read as zeros, and an empty write changes nothing.
func (s *shadowFS) writeAt(name string, p []byte, off int64) {
	if len(p) == 0 {
		return
	}
	f := s.files[name]
	if end := int(off) + len(p); end > len(f) {
		f = append(f, make([]byte, end-len(f))...)
	}
	copy(f[off:], p)
	s.files[name] = f
}

func parent(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return ""
}

// TestShadowModelSequential runs 500 random operations against fs and
// the model.
func TestShadowModelSequential(t *testing.T) {
	ctx := context.Background()
	fs := newFS(t, 1024, 2048)
	sh := newShadow()
	rng := rand.New(rand.NewSource(99))

	names := []string{"/a", "/b", "/a/x", "/a/y", "/b/z", "/a/x/deep", "/c"}
	randName := func() string { return names[rng.Intn(len(names))] }

	for op := 0; op < 500; op++ {
		name := randName()
		switch rng.Intn(5) {
		case 0: // mkdir
			err := fs.Mkdir(ctx, name)
			_, fileEx := sh.files[name]
			parentOK := sh.dirs[parent(name)]
			if parentOK && !fileEx && !sh.dirs[name] {
				if err != nil {
					t.Fatalf("op %d mkdir %s: %v", op, name, err)
				}
				sh.dirs[name] = true
			} else if err == nil {
				t.Fatalf("op %d mkdir %s succeeded, model says no", op, name)
			}
		case 1: // write file (create or error)
			data := make([]byte, rng.Intn(3000))
			rng.Read(data)
			err := fs.WriteFile(ctx, name, data)
			_, fileEx := sh.files[name]
			parentOK := sh.dirs[parent(name)]
			if parentOK && !fileEx && !sh.dirs[name] {
				if err != nil {
					t.Fatalf("op %d create %s: %v", op, name, err)
				}
				sh.files[name] = data
			} else if err == nil {
				t.Fatalf("op %d create %s succeeded, model says no", op, name)
			}
		case 2: // read file
			got, err := fs.ReadFile(ctx, name)
			want, ok := sh.files[name]
			if ok {
				if err != nil {
					t.Fatalf("op %d read %s: %v", op, name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d read %s: content mismatch (%d vs %d bytes)", op, name, len(got), len(want))
				}
			} else if err == nil {
				t.Fatalf("op %d read %s succeeded, model says missing", op, name)
			}
		case 3: // remove
			err := fs.Remove(ctx, name)
			if _, ok := sh.files[name]; ok {
				if err != nil {
					t.Fatalf("op %d remove file %s: %v", op, name, err)
				}
				delete(sh.files, name)
			} else if sh.dirs[name] {
				empty := true
				for f := range sh.files {
					if parent(f) == name {
						empty = false
					}
				}
				for d := range sh.dirs {
					if d != "" && parent(d) == name {
						empty = false
					}
				}
				if empty {
					if err != nil {
						t.Fatalf("op %d remove dir %s: %v", op, name, err)
					}
					delete(sh.dirs, name)
				} else if !errors.Is(err, ErrNotEmpty) {
					t.Fatalf("op %d remove non-empty %s: %v", op, name, err)
				}
			} else if err == nil {
				t.Fatalf("op %d remove %s succeeded, model says missing", op, name)
			}
		case 4: // readdir of a random dir
			var dirs []string
			for d := range sh.dirs {
				dirs = append(dirs, d)
			}
			sort.Strings(dirs)
			d := dirs[rng.Intn(len(dirs))]
			ents, err := fs.ReadDir(ctx, "/"+d)
			if err != nil {
				t.Fatalf("op %d readdir %s: %v", op, d, err)
			}
			want := map[string]bool{}
			for f := range sh.files {
				if parent(f) == d {
					want[f[len(d)+1:]] = true
				}
			}
			for dd := range sh.dirs {
				if dd != "" && parent(dd) == d {
					want[dd[len(d)+1:]] = true
				}
			}
			if len(ents) != len(want) {
				t.Fatalf("op %d readdir %s: %d entries, want %d", op, d, len(ents), len(want))
			}
			for _, e := range ents {
				if !want[e.Name] {
					t.Fatalf("op %d readdir %s: unexpected entry %q", op, d, e.Name)
				}
			}
		}
	}
}

// TestConcurrentClientsUnderVClock runs eight simulated clients doing
// private-file work plus shared-directory churn concurrently (real
// interleaving at every I/O yield point), then audits the final state.
func TestConcurrentClientsUnderVClock(t *testing.T) {
	const (
		clients = 8
		files   = 12
		bs      = 1024
	)
	s := vclock.New()
	model := disk.Model{Seek: 500 * 1000, TrackSkip: 0, BandwidthBps: 50e6, PerRequest: 0} // 0.5ms seeks
	devs := make([]raid.Dev, 4)
	for i := range devs {
		devs[i] = disk.New(s, fmt.Sprintf("d%d", i), store.NewMem(bs, 4096), model)
	}
	arr, err := core.New(devs, 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := cdd.NewTable()
	root, err := Mkfs(context.Background(), arr, NewTableLocker(table), "mkfs", Options{MaxInodes: 2048, Groups: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir(context.Background(), "/shared"); err != nil {
		t.Fatal(err)
	}

	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		c := c
		lk := NewTableLocker(table)
		mount, err := Mount(context.Background(), arr, lk, fmt.Sprintf("cl%d", c))
		if err != nil {
			t.Fatal(err)
		}
		s.Spawn(fmt.Sprintf("client%d", c), func(p *vclock.Proc) {
			ctx := vclock.With(context.Background(), p)
			run := func() error {
				base := fmt.Sprintf("/cl%d", c)
				if err := mount.Mkdir(ctx, base); err != nil {
					return err
				}
				for f := 0; f < files; f++ {
					data := bytes.Repeat([]byte{byte(c*16 + f)}, 700+f*37)
					if err := mount.WriteFile(ctx, fmt.Sprintf("%s/f%02d", base, f), data); err != nil {
						return fmt.Errorf("write f%d: %w", f, err)
					}
				}
				// Shared-directory churn: everyone creates one file in
				// /shared and deletes it again, contending on the
				// /shared inode lock.
				tmp := fmt.Sprintf("/shared/tmp%d", c)
				if err := mount.WriteFile(ctx, tmp, []byte("x")); err != nil {
					return fmt.Errorf("shared create: %w", err)
				}
				if err := mount.Remove(ctx, tmp); err != nil {
					return fmt.Errorf("shared remove: %w", err)
				}
				// Everyone leaves one permanent marker.
				if err := mount.WriteFile(ctx, fmt.Sprintf("/shared/mark%d", c), []byte{byte(c)}); err != nil {
					return fmt.Errorf("shared mark: %w", err)
				}
				return nil
			}
			errs[c] = run()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Audit with a fresh coherent mount (no cache).
	ctx := context.Background()
	audit, err := MountOptions(ctx, arr, NewTableLocker(table), "audit", Options{CacheBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		for f := 0; f < files; f++ {
			want := bytes.Repeat([]byte{byte(c*16 + f)}, 700+f*37)
			got, err := audit.ReadFile(ctx, fmt.Sprintf("/cl%d/f%02d", c, f))
			if err != nil {
				t.Fatalf("audit cl%d/f%02d: %v", c, f, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("audit cl%d/f%02d: content corrupted", c, f)
			}
		}
	}
	ents, err := audit.ReadDir(ctx, "/shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != clients {
		t.Fatalf("/shared has %d entries, want %d markers", len(ents), clients)
	}
	// Full metadata audit: no cross-linked blocks, no leaked blocks or
	// inodes — the allocator stayed consistent under real interleaving.
	rep, err := audit.Fsck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after concurrent run: %s\nproblems: %v leaked-blocks: %v leaked-inodes: %v",
			rep, rep.Problems, rep.LeakedBlocks, rep.LeakedInodes)
	}
}
