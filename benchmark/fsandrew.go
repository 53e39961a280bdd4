package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	raidx "repro"
)

// The Andrew-style tree: 8 directories, 128 files, 4.4 MiB. The byte
// total is the same for every seed (small sizes are drawn in pairs that
// sum to 17 KiB), so seeds change which files are small and where they
// live, not how much work a cycle is.
const (
	fsDirs       = 8
	fsFiles      = 128
	fsFiles256k  = 8
	fsFiles64k   = 24
	fsSmallPairs = (fsFiles - fsFiles256k - fsFiles64k) / 2
)

type fsFile struct {
	path string
	data []byte // expected contents; the first 16 bytes are restamped every cycle
}

type fsAndrew struct {
	*mirrorRig
	e     *env
	fs    *raidx.FS
	dirs  []string
	files []fsFile
	cycle uint32
}

func fsTree(seed uint64) (dirs []string, files []fsFile, total int64) {
	r := newRNG(seed, 0x66737472) // "fstr"
	sizes := make([]int, 0, fsFiles)
	for i := 0; i < fsFiles256k; i++ {
		sizes = append(sizes, 256<<10)
	}
	for i := 0; i < fsFiles64k; i++ {
		sizes = append(sizes, 64<<10)
	}
	for i := 0; i < fsSmallPairs; i++ {
		s := 1<<10 + r.intn(15<<10+1) // 1 KiB .. 16 KiB
		sizes = append(sizes, s, 17<<10-s)
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	for d := 0; d < fsDirs; d++ {
		dirs = append(dirs, fmt.Sprintf("/d%d", d))
	}
	for i, size := range sizes {
		data := make([]byte, size)
		w := mix64(seed ^ uint64(i)*fillStep)
		for off := 0; off+8 <= size; off += 8 {
			w = mix64(w)
			binary.LittleEndian.PutUint64(data[off:], w)
		}
		files = append(files, fsFile{path: fmt.Sprintf("%s/f%03d", dirs[i%fsDirs], i), data: data})
		total += int64(size)
	}
	return dirs, files, total
}

func setupFSAndrew(e *env) (instance, error) {
	r, err := newMirrorRig(e.tr, mirrorNodeBlocks)
	if err != nil {
		return nil, err
	}
	// A local lock table, as raidxfs mounts it.
	lk := raidx.NewTableLocker(raidx.NewLockTable())
	fs, err := raidx.Mkfs(context.Background(), r.arr, lk, "bench", raidx.FSOptions{})
	if err != nil {
		r.close()
		return nil, err
	}
	w := &fsAndrew{mirrorRig: r, e: e, fs: fs}
	w.dirs, w.files, _ = fsTree(e.seed)
	return w, nil
}

// call times one file-system call under a root span.
func (w *fsAndrew) call(t *tally, k opKind, name string, bytes int64, fn func(ctx context.Context) (bad int, err error)) {
	ctx, id := w.e.tr.start(context.Background(), name, bytes)
	t0 := time.Now()
	bad, err := fn(ctx)
	t1 := time.Now()
	w.e.tr.end(id)
	t.done(k, bytes, t0, t1, bad, err)
}

// fsPhases are the five phases of a cycle, in order.
var fsPhases = [5]string{"makedir", "copy", "scandir", "readall", "remove"}

// runCycle runs the five phases once and returns their segments: copy
// is the write segment (it ends with Flush, inside its time), readall
// the read segment, the other three one meta segment.
func (w *fsAndrew) runCycle(phaseS *[5]float64) []seg {
	w.cycle++
	cpu0 := cpuSeconds()
	var tallies [5]tally
	var durs [5]time.Duration
	timed := func(p int, fn func(t *tally)) {
		t0 := time.Now()
		fn(&tallies[p])
		durs[p] = time.Since(t0)
		phaseS[p] += durs[p].Seconds()
	}
	timed(0, func(t *tally) {
		for _, d := range w.dirs {
			w.call(t, kMeta, "fsim.mkdir", 0, func(ctx context.Context) (int, error) { return 0, w.fs.Mkdir(ctx, d) })
		}
	})
	timed(1, func(t *tally) {
		for i := range w.files {
			f := &w.files[i]
			putStamp(f.data, stamp{seed: uint32(w.e.seed), version: w.cycle, block: uint64(i)})
			w.call(t, kWrite, "fsim.writefile", int64(len(f.data)), func(ctx context.Context) (int, error) {
				return 0, w.fs.WriteFile(ctx, f.path, f.data)
			})
		}
		w.call(t, kMeta, "fsim.flush", 0, func(ctx context.Context) (int, error) { return 0, w.fs.Flush(ctx) })
	})
	timed(2, func(t *tally) {
		for _, d := range w.dirs {
			var ents []string
			w.call(t, kMeta, "fsim.readdir", 0, func(ctx context.Context) (int, error) {
				es, err := w.fs.ReadDir(ctx, d)
				for _, e := range es {
					ents = append(ents, d+"/"+e.Name)
				}
				if err == nil && len(es) != fsFiles/fsDirs {
					return 1, nil
				}
				return 0, err
			})
			for _, p := range ents {
				w.call(t, kMeta, "fsim.stat", 0, func(ctx context.Context) (int, error) {
					_, err := w.fs.Stat(ctx, p)
					return 0, err
				})
			}
		}
	})
	timed(3, func(t *tally) {
		for i := range w.files {
			f := &w.files[i]
			w.call(t, kRead, "fsim.readfile", int64(len(f.data)), func(ctx context.Context) (int, error) {
				got, err := w.fs.ReadFile(ctx, f.path)
				if err == nil && !bytes.Equal(got, f.data) {
					return 1, nil
				}
				return 0, err
			})
		}
	})
	timed(4, func(t *tally) {
		for i := range w.files {
			p := w.files[i].path
			w.call(t, kMeta, "fsim.remove", 0, func(ctx context.Context) (int, error) { return 0, w.fs.Remove(ctx, p) })
		}
		for _, d := range w.dirs {
			w.call(t, kMeta, "fsim.remove", 0, func(ctx context.Context) (int, error) { return 0, w.fs.Remove(ctx, d) })
		}
	})
	segs := make([]seg, 3)
	segs[2].cpu = cpuSeconds() - cpu0 // the whole cycle's; a round sums its segments
	for p := range tallies {
		t := &tallies[p]
		w.e.acc.attempted += t.attempted
		w.e.acc.failed += t.failed
		g := &segs[2]
		switch p {
		case 1:
			g = &segs[0]
		case 3:
			g = &segs[1]
		}
		g.dur += durs[p]
		for k := opKind(0); k < nKinds; k++ {
			g.ops[k] += t.ops[k]
			g.bytes[k] += t.bytes[k]
		}
		for k := 0; k < 2; k++ {
			g.lat[k] = append(g.lat[k], t.lat[k]...)
		}
	}
	return segs
}

// window runs for about n slice lengths. A slice is as many whole
// cycles as it takes to fill sliceLen — at least one, so a sample never
// ends mid-phase — which makes the number of rounds depend on how long a
// cycle takes.
func (w *fsAndrew) window(n int, sliceLen time.Duration, lite bool) windowResult {
	res := windowResult{before: w.counters(), extra: samples{}}
	total := time.Duration(n) * sliceLen
	for start := time.Now(); len(res.rounds) == 0 || time.Since(start) < total; {
		var round []seg
		var phaseS [5]float64
		cycles := 0
		t0 := time.Now()
		for cycles == 0 || time.Since(t0) < sliceLen {
			round = append(round, w.runCycle(&phaseS)...)
			cycles++
		}
		res.rounds = append(res.rounds, round)
		res.extra.add("fs_cycle_s", time.Since(t0).Seconds()/float64(cycles))
		for p, name := range fsPhases {
			res.extra.add("phase_"+name+"_s", phaseS[p]/float64(cycles))
		}
	}
	res.after, res.ioEnd = w.counters(), time.Now()
	return res
}

// verify builds the tree once more and leaves it in place, then checks
// every directory listing and every file against the generator's copy
// through a second mount of the same array — nothing the first mount
// cached can vouch for the blocks.
func (w *fsAndrew) verify() {
	ctx := context.Background()
	acc := &w.e.acc
	w.cycle++
	fail := func(err error) {
		acc.attempted++
		if err != nil {
			acc.failed++
		}
	}
	for _, d := range w.dirs {
		fail(w.fs.Mkdir(ctx, d))
	}
	for i := range w.files {
		f := &w.files[i]
		putStamp(f.data, stamp{seed: uint32(w.e.seed), version: w.cycle, block: uint64(i)})
		fail(w.fs.WriteFile(ctx, f.path, f.data))
	}
	fail(w.fs.Flush(ctx))
	fs2, err := raidx.Mount(ctx, w.engine, raidx.NewTableLocker(raidx.NewLockTable()), "verify")
	fail(err)
	if err != nil {
		return
	}
	for i := range w.files {
		f := &w.files[i]
		got, err := fs2.ReadFile(ctx, f.path)
		acc.attempted++
		if err != nil || !bytes.Equal(got, f.data) {
			acc.failed++
		}
	}
}
