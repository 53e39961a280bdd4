package raid

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bufpool"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/parity"
)

// Restorer is all the repair loop needs of an array engine: its member
// table and the policy's inverse. How a member is repaired or checked
// (chunking, pacing, checkpoint and resume, missed-region replay and
// commit, scrub and verify compares, gauges, events, spans) is this
// file's business, once, for every policy.
type Restorer interface {
	BlockSize() int
	Members() *Members
	// Extents lists the physical block ranges [lo, hi) of a member that
	// hold array content, in the order a rebuild restores them, and the
	// placement generation they were derived under.
	Extents() (ext [][2]int64, gen uint64)
	// Reconstruct fills dst with what the physical blocks of member idx
	// from pb on — never straddling two extents — must hold, read or
	// decoded from readable members other than idx — from none in a
	// missed region while a fresh copy remains. hole, one flag per
	// block and all false on entry, is set for a block nothing maps to,
	// whose bytes in dst are then undefined. An engine that cannot have
	// idx repaired now says so here, with its own typed error.
	Reconstruct(ctx context.Context, idx int, pb int64, dst []byte, hole []bool) error
}

// rebuildChunk bounds repair I/O: the most blocks one Reconstruct call
// covers and one device transfer of a repair job moves. A whole column
// in one call is tens of megabytes at realistic disk sizes: too much to
// hold in memory, and to frame when a member is remote.
const rebuildChunk = 128

// PaceFunc throttles background repair I/O. The repair loop calls it
// after each chunk with the chunk's size in bytes; the function
// sleeps (or waits on a token bucket) so foreground I/O keeps priority.
// Returning an error aborts the job with its checkpoint intact — the
// supervisor uses that for pause.
type PaceFunc func(ctx context.Context, bytes int) error

// RebuildProgress is a rebuild checkpoint: how many physical blocks of
// the member, counted over its concatenated extents, have been restored.
// A caller that persists it across an interruption resumes where the
// last run stopped instead of recopying the whole disk. A checkpoint
// persisted under the earlier field names (data_done, groups_done)
// decodes as zero done, so it resumes earlier, never later.
type RebuildProgress struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Epoch is the placement generation the checkpoint was cut under. A
	// rebalance between runs moves placements, so a resumed rebuild
	// restarts from zero when the generations differ.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ResyncStats reports what a delta resync moved.
type ResyncStats struct {
	Regions      int   `json:"regions"`
	BlocksCopied int64 `json:"blocks_copied"`
	BytesCopied  int64 `json:"bytes_copied"`
}

// ScrubStats reports what a compare pass (Verify, ScrubSample) checked
// and repaired.
type ScrubStats struct {
	BlocksChecked  int64 `json:"blocks_checked"`
	Mismatches     int64 `json:"mismatches"`
	BlocksRepaired int64 `json:"blocks_repaired"`
	// Pending counts the blocks left unchecked because their redundancy
	// is not computed yet (AFRAID's window): they are no mismatch.
	Pending int64 `json:"pending"`
}

// repairTarget checks that member idx can take a repair job (what names
// it in errors) and returns the device the job writes to.
func repairTarget(m *Members, idx int, what string) (Dev, error) {
	devs := m.Load().Devs
	if idx < 0 || idx >= len(devs) {
		return nil, fmt.Errorf("%s: %s of device %d out of range", m.name, what, idx)
	}
	if devs[idx] == nil || !devs[idx].Healthy() {
		return nil, fmt.Errorf("%s: %s target %d is not healthy (swap in a spare with SwapDev first)", m.name, what, idx)
	}
	return devs[idx], nil
}

// ColumnRetired reports whether a shrink retired member i of r: it holds
// nothing, and is never repaired or verified.
func ColumnRetired(r Restorer, i int) bool {
	s, ok := r.(interface{ ColumnRetired(int) bool })
	return ok && s.ColumnRetired(i)
}

// compare is restore's compare mode: instead of writing every block it
// reconstructs, restore reads the member's own copy of the chunk and
// writes back only what differs (repair) or fails on it. stride > 1
// samples one block every stride blocks instead of whole chunks.
type compare struct {
	stride int64
	repair bool
	st     ScrubStats
}

// restore rewrites what physical blocks [lo, hi) of member idx hold of
// the array — the part of the range inside each extent — rebuildChunk
// blocks at a time: the engine reconstructs the chunk from the other
// members, then the blocks that are not holes are written to dev in as
// few contiguous runs as possible, all under a claim of the members'
// window. It is the one repair and compare loop: a rebuild restores the
// whole member, a resync its missed regions; with cmp, a scrub or a
// verify compares. prog, when non-nil, is the checkpoint of a
// whole-member restore: what an earlier run restored is skipped, and the
// checkpoint (with the rebuild gauge) is kept current after every chunk.
// begin, when non-nil, runs once the engine has reconstructed the first
// chunk: it agreed to repair the member. pace, when non-nil, is called
// after each chunk. restore returns the number of blocks it wrote.
func restore(ctx context.Context, r Restorer, idx int, dev Dev, lo, hi int64, prog *RebuildProgress, begin func(), pace PaceFunc, cmp *compare) (copied int64, err error) {
	m, bs := r.Members(), r.BlockSize()
	step, width := int64(rebuildChunk), int64(rebuildChunk)
	if cmp != nil && cmp.stride > 1 {
		step, width = cmp.stride, 1
	}
	// One pooled scratch buffer serves every chunk.
	buf := bufpool.Get(int(min(hi-lo, width)) * bs)
	defer bufpool.Put(buf)
	var hole [rebuildChunk]bool
	ext, _ := r.Extents()
	base := int64(0) // where the extent starts in the checkpoint's count
	for _, e := range ext {
		c, end := max(lo, e[0]), min(hi, e[1])
		if prog != nil {
			// Resume at a chunk boundary — re-copying a partial chunk is
			// idempotent, trusting it is not.
			c += min(max(prog.Done-base, 0), end-c)
			if c < end {
				c -= (c - e[0]) % rebuildChunk
			}
		}
		for ; c < end; c += step {
			n := int(min(end-c, width))
			// No foreground write to the chunk lands between the first read
			// and the last write here.
			claim := m.win.Open(ctx, Span{Dev: idx, Lo: c, Hi: c + int64(n)})
			if cmp != nil {
				err = cmp.chunk(ctx, r, idx, dev, c, buf[:n*bs], hole[:n])
			} else {
				clear(hole[:n])
				if err = r.Reconstruct(ctx, idx, c, buf[:n*bs], hole[:n]); err == nil && begin != nil {
					begin()
					begin = nil
				}
			}
			for t := 0; t < n && err == nil; {
				if hole[t] {
					t++
					continue
				}
				run := t
				for run < n && !hole[run] {
					run++
				}
				if err = dev.WriteBlocks(ctx, c+int64(t), buf[t*bs:run*bs]); err == nil {
					copied += int64(run - t)
				}
				t = run
			}
			if err != nil {
				m.win.Abort(claim)
				return copied, err
			}
			m.win.Commit(claim)
			if prog != nil {
				done := base + c + int64(n) - e[0]
				m.done.Add(done - prog.Done)
				prog.Done = done
			}
			if pace != nil {
				if err := pace(ctx, n*bs); err != nil {
					return copied, err
				}
			}
		}
		base += e[1] - e[0]
	}
	return copied, nil
}

// chunk is one claimed chunk of a compare: it reads member idx's copy of
// the blocks from c on, reconstructs what they must hold into want, and
// flags in skip every block restore need not write — holes, and the
// blocks that match. A mismatch counts once confirmed: the view's devices
// are flushed, so that a background write still on its way lands, and
// the chunk is looked at again. A chunk whose redundancy is pending is
// counted and skipped whole.
func (cmp *compare) chunk(ctx context.Context, r Restorer, idx int, dev Dev, c int64, want []byte, skip []bool) error {
	m, bs := r.Members(), r.BlockSize()
	have := bufpool.Get(len(want)) // the member's own copy
	defer bufpool.Put(have)
	look := func() error {
		clear(skip)
		if err := dev.ReadBlocks(ctx, c, have); err != nil {
			return err
		}
		return r.Reconstruct(ctx, idx, c, want, skip)
	}
	diff := func(t int) int { return parity.FirstDiff(have[t*bs:(t+1)*bs], want[t*bs:(t+1)*bs]) }
	err := look()
	for t := 0; t < len(skip) && err == nil; t++ {
		if !skip[t] && diff(t) >= 0 {
			if err = FlushAll(ctx, m.Load().Devs); err == nil {
				err = look()
			}
			break
		}
	}
	if errors.Is(err, ErrPending) {
		cmp.st.Pending += int64(len(skip))
		for t := range skip {
			skip[t] = true
		}
		return nil
	}
	for t := 0; t < len(skip) && err == nil; t++ {
		if skip[t] {
			continue
		}
		cmp.st.BlocksChecked++
		i := diff(t)
		if skip[t] = i < 0; skip[t] {
			continue
		}
		cmp.st.Mismatches++
		if !cmp.repair {
			err = fmt.Errorf("%s: device %d block %d differs from what the other members hold at byte %d", m.name, idx, c+int64(t), i)
		}
	}
	return err
}

// RebuildFrom reconstructs the full contents of (replaced) member idx —
// every engine's Rebuild — resuming from prog when it records an
// interrupted run (nil or zeroed: a fresh rebuild) and pacing itself
// through pace (nil: full speed). Once the engine reconstructs the first
// chunk, a rebuild from scratch marks the member blank — it may hold
// wrong blocks (a scrub found some) or none at all — and takes its
// blocks, so no read uses the member until the rebuild commits them; a
// resumed one finds them taken. A write the member misses meanwhile,
// before or after a pause, stays missed.
func RebuildFrom(ctx context.Context, r Restorer, idx int, prog *RebuildProgress, pace PaceFunc) (err error) {
	m := r.Members()
	dev, err := repairTarget(m, idx, "rebuild")
	if err != nil {
		return err
	}
	ext, gen := r.Extents()
	if prog == nil {
		prog = &RebuildProgress{}
	}
	if prog.Epoch != gen {
		// Checkpoint cut under a different placement generation: the
		// recorded progress no longer names the same blocks.
		*prog = RebuildProgress{Epoch: gen}
	}
	ctx, root := m.tracer.StartRoot(ctx, m.name+".rebuild", fmt.Sprintf("d%d", idx))
	defer func() { root.End(err) }()
	subject := fmt.Sprintf("%s/d%d", m.name, idx)
	detail := fmt.Sprintf("epoch %d", prog.Epoch)
	if prog.Done > 0 {
		detail += fmt.Sprintf(", resume at block %d", prog.Done)
	}
	m.events.Append(obs.EventRebuildStart, subject, detail)
	defer func() {
		detail := "ok"
		if err != nil {
			detail = err.Error()
		}
		m.events.Append(obs.EventRebuildEnd, subject, detail)
	}()
	prog.Total = 0
	for _, e := range ext {
		prog.Total += e[1] - e[0]
	}
	m.total.Store(prog.Total)
	m.done.Store(prog.Done)
	var blank func()
	if prog.Done == 0 {
		blank = func() { m.il.MarkBlank(idx); m.il.TakeDirty(idx) }
	}
	if _, err := restore(ctx, r, idx, dev, 0, math.MaxInt64, prog, blank, pace, nil); err != nil {
		return err
	}
	m.il.Release(idx)
	return nil
}

// Resync replays missed physical regions of member idx from the other
// members — the delta alternative to a full rebuild when a device
// returns stale rather than blank. Regions come from the intent log's
// TakeDirty(idx); once every one is replayed Resync commits the take
// (Release). A resync that fails commits nothing: the next take hands
// the regions out again. pace, when non-nil, throttles the copy like
// RebuildFrom.
func Resync(ctx context.Context, r Restorer, idx int, regions []intent.Region, pace PaceFunc) (st ResyncStats, err error) {
	m := r.Members()
	dev, err := repairTarget(m, idx, "resync")
	if err != nil {
		return st, err
	}
	ctx, root := m.tracer.StartRoot(ctx, m.name+".resync", fmt.Sprintf("d%d", idx))
	defer func() { root.End(err) }()
	subject := fmt.Sprintf("%s/d%d", m.name, idx)
	m.events.Append(obs.EventResyncStart, subject, fmt.Sprintf("%d regions", len(regions)))
	defer func() {
		detail := fmt.Sprintf("copied %d blocks (%d bytes) over %d regions",
			st.BlocksCopied, st.BytesCopied, st.Regions)
		if err != nil {
			detail += ": " + err.Error()
		}
		m.events.Append(obs.EventResyncEnd, subject, detail)
	}()
	for _, reg := range regions {
		st.Regions++
		n, err := restore(ctx, r, idx, dev, reg.Start, reg.Start+reg.Count, nil, nil, pace, nil)
		st.BlocksCopied += n
		st.BytesCopied += n * int64(r.BlockSize())
		if err != nil {
			return st, err
		}
	}
	m.il.Release(idx)
	return st, nil
}

// ScrubSample spot-checks member idx after a resync: restore's compare
// mode, over every stride-th block of each extent (stride <= 0 takes
// rebuildChunk), repairs each block that differs from what the other
// members say it must hold. It is the cheap confidence check that the
// intent log covered everything the device missed — a mismatch means
// dirty-region tracking lost a write, so the caller should escalate to a
// full rebuild.
func ScrubSample(ctx context.Context, r Restorer, idx int, stride int64, pace PaceFunc) (st ScrubStats, err error) {
	m := r.Members()
	dev, err := repairTarget(m, idx, "scrub")
	if err != nil {
		return st, err
	}
	if stride <= 0 {
		stride = rebuildChunk
	}
	ctx, root := m.tracer.StartRoot(ctx, m.name+".scrub", fmt.Sprintf("d%d", idx))
	defer func() { root.End(err) }()
	cmp := compare{stride: stride, repair: true}
	cmp.st.BlocksRepaired, err = restore(ctx, r, idx, dev, 0, math.MaxInt64, nil, nil, pace, &cmp)
	return cmp.st, err
}

// Verify checks the redundancy of r: restore's compare mode over every
// member a shrink did not retire, every block, repairing nothing. It
// returns at the first mismatch, naming its device and physical block.
// Blocks whose redundancy is pending are counted, not checked.
func Verify(ctx context.Context, r Restorer) (st ScrubStats, err error) {
	m := r.Members()
	ctx, root := m.tracer.StartRoot(ctx, m.name+".verify", m.name)
	defer func() { root.End(err) }()
	cmp := compare{stride: 1}
	for idx, dev := range m.Load().Devs {
		if dev == nil || ColumnRetired(r, idx) {
			continue
		}
		if _, err := restore(ctx, r, idx, dev, 0, math.MaxInt64, nil, nil, nil, &cmp); err != nil {
			return cmp.st, err
		}
	}
	return cmp.st, nil
}
