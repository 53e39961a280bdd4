package layout

import (
	"errors"
	"testing"
)

// epochCheck verifies the full placement invariants of one epoch by
// exhaustive scan: bijective data placement, bijective image placement,
// orthogonality, contiguous per-disk data prefixes, and that the
// inverse lookups really invert the forward maps.
func epochCheck(t *testing.T, e *Epoch) {
	t.Helper()
	b := e.DataBlocks()
	half := e.Base().DiskBlocks / 2
	dataSeen := make(map[Loc]int64, b)
	mirSeen := make(map[Loc]int64, b)
	counts := make([]int64, e.Width())
	for lb := int64(0); lb < b; lb++ {
		dl, ml := e.DataLoc(lb), e.MirrorLoc(lb)
		if !e.Active(dl.Disk) || !e.Active(ml.Disk) {
			t.Fatalf("block %d placed on retired disk: data %v image %v", lb, dl, ml)
		}
		if dl.Block < 0 || dl.Block >= half {
			t.Fatalf("block %d data offset %v outside data half", lb, dl)
		}
		if ml.Block < half || ml.Block >= e.Base().DiskBlocks {
			t.Fatalf("block %d image offset %v outside mirror half", lb, ml)
		}
		if e.NodeOf(dl.Disk) == e.NodeOf(ml.Disk) {
			t.Fatalf("block %d not orthogonal: data %v image %v share node %d", lb, dl, ml, e.NodeOf(dl.Disk))
		}
		if prev, dup := dataSeen[dl]; dup {
			t.Fatalf("blocks %d and %d share data loc %v", prev, lb, dl)
		}
		if prev, dup := mirSeen[ml]; dup {
			t.Fatalf("blocks %d and %d share image loc %v", prev, lb, ml)
		}
		dataSeen[dl] = lb
		mirSeen[ml] = lb
		counts[dl.Disk]++
		if got, ok := e.DataSource(dl.Disk, dl.Block); !ok || got != lb {
			t.Fatalf("DataSource(%v) = %d,%v; want %d", dl, got, ok, lb)
		}
		if got, ok := e.MirrorSource(ml.Disk, ml.Block); !ok || got != lb {
			t.Fatalf("MirrorSource(%v) = %d,%v; want %d", ml, got, ok, lb)
		}
	}
	// Contiguous prefix: every offset below the count is occupied.
	for d := 0; d < e.Width(); d++ {
		if counts[d] != e.DataCounts()[d] {
			t.Fatalf("disk %d: counted %d data blocks, epoch says %d", d, counts[d], e.DataCounts()[d])
		}
		for off := int64(0); off < counts[d]; off++ {
			if _, ok := dataSeen[Loc{Disk: d, Block: off}]; !ok {
				t.Fatalf("disk %d: hole at data offset %d below count %d", d, off, counts[d])
			}
		}
	}
}

// balanceCheck asserts the active disks are within ±1 data block of
// each other and together hold exactly the full capacity.
func balanceCheck(t *testing.T, e *Epoch) {
	t.Helper()
	counts := e.DataCounts()
	minC, maxC := int64(1<<62), int64(-1)
	var sum int64
	for d, c := range counts {
		if !e.Active(d) {
			if c != 0 {
				t.Fatalf("retired disk %d still holds %d blocks", d, c)
			}
			continue
		}
		sum += c
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if sum != e.DataBlocks() {
		t.Fatalf("active disks hold %d blocks, capacity %d", sum, e.DataBlocks())
	}
	if maxC-minC > 1 {
		t.Fatalf("imbalance: per-disk counts span [%d,%d]", minC, maxC)
	}
}

// TestEpochRemapProperties is the exhaustive geometry sweep: for every
// disk-count pair N→M with 2 ≤ N < M ≤ 64, the grow remap must be
// (a) balanced within ±1 block per disk, (b) move no block whose old
// and new homes coincide, and (c) move no more than the theoretical
// minimum plus slack (one block per destination disk, the cost of the
// remainder assignment).
func TestEpochRemapProperties(t *testing.T) {
	for n := 2; n < 64; n++ {
		base := NewEpoch(NewOSM(n, 1, 8*int64(n-1)))
		b := base.DataBlocks()
		for m := n + 1; m <= 64; m++ {
			next, err := base.Grow(m - n)
			if err != nil {
				t.Fatalf("grow %d→%d: %v", n, m, err)
			}
			balanceCheck(t, next)

			// (b) no self-moves: every override is a real move.
			for lb, to := range next.dataOver {
				if from := base.DataLoc(lb); from == to {
					t.Fatalf("%d→%d: block %d 'moved' to its own home %v", n, m, lb, to)
				}
			}
			if len(next.dataOver) != len(next.dataRev) {
				t.Fatalf("%d→%d: override/inverse size mismatch %d vs %d", n, m, len(next.dataOver), len(next.dataRev))
			}

			// (c) minimal movement. Old disks each hold B/n; no disk
			// may keep more than ceil(B/m), so at least
			// sum(B/n - ceil(B/m)) blocks must leave. Slack: the ±1
			// remainder assignment costs at most one block per disk.
			ceil := (b + int64(m) - 1) / int64(m)
			var minMoves int64
			for d := 0; d < n; d++ {
				if surplus := b/int64(n) - ceil; surplus > 0 {
					minMoves += surplus
				}
			}
			moved, images := next.MovedByLastStep()
			if moved > minMoves+int64(m) {
				t.Fatalf("%d→%d: moved %d blocks, minimum %d + slack %d", n, m, moved, minMoves, m)
			}
			if images != 0 {
				t.Fatalf("%d→%d: grow moved %d images; grow must move only data", n, m, images)
			}
			// And movement really restored balance: nothing above ceil.
			for d, c := range next.DataCounts() {
				if c > ceil {
					t.Fatalf("%d→%d: disk %d holds %d > ceil %d", n, m, d, c, ceil)
				}
			}
		}
	}
}

// TestEpochGrowExhaustive runs the full per-block invariant scan on a
// representative set of grows, including multi-disk nodes and chained
// steps.
func TestEpochGrowExhaustive(t *testing.T) {
	cases := []struct {
		nodes, k, add int
		diskBlocks    int64
	}{
		{2, 1, 1, 8},
		{4, 1, 8, 24},
		{4, 2, 2, 24},
		{3, 3, 5, 16},
		{8, 1, 3, 56},
	}
	for _, c := range cases {
		e0 := NewEpoch(NewOSM(c.nodes, c.k, c.diskBlocks))
		epochCheck(t, e0)
		e1, err := e0.Grow(c.add)
		if err != nil {
			t.Fatalf("grow %+v: %v", c, err)
		}
		epochCheck(t, e1)
		balanceCheck(t, e1)
		if e1.Gen() != 1 || e0.Gen() != 0 {
			t.Fatalf("gen: got %d after grow of %d", e1.Gen(), e0.Gen())
		}
		// Chained second step.
		e2, err := e1.Grow(1)
		if err != nil {
			t.Fatalf("second grow %+v: %v", c, err)
		}
		epochCheck(t, e2)
		balanceCheck(t, e2)
	}
}

// TestEpochShrink grows an array then shrinks it, checking the full
// invariants at each generation — including that images stranded on
// retired disks relocate and orthogonality holds throughout.
func TestEpochShrink(t *testing.T) {
	e0 := NewEpoch(NewOSM(4, 1, 24))
	e1, err := e0.Grow(4) // 4 → 8 nodes
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e1.Shrink(2) // 8 → 6 nodes
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	epochCheck(t, e2)
	balanceCheck(t, e2)
	if e2.Nodes() != 6 || e2.Width() != 8 {
		t.Fatalf("nodes=%d width=%d after shrink; want 6, 8", e2.Nodes(), e2.Width())
	}
	if e2.Active(7) || e2.Active(6) {
		t.Fatal("retired disks still active after shrink")
	}
	// Another step down still has mirror headroom on the surviving
	// grown nodes.
	e3, err := e2.Shrink(1) // 6 → 5
	if err != nil {
		t.Fatalf("second shrink: %v", err)
	}
	epochCheck(t, e3)
	balanceCheck(t, e3)
	// Shrinking all the way back to the base node count is an
	// exact-fit packing with orthogonality constraints; a base array
	// has zero slack, so the allocator may refuse. What matters is
	// that the refusal is typed and the epoch chain is untouched —
	// callers keep a node of headroom or free capacity first.
	if e4, err := e3.Shrink(1); err != nil {
		if !errors.Is(err, ErrNoMirrorSpace) && !errors.Is(err, ErrDataOverflow) {
			t.Fatalf("boundary shrink failed with untyped error: %v", err)
		}
	} else {
		epochCheck(t, e4)
		balanceCheck(t, e4)
	}
}

// TestEpochShrinkRefusals pins the typed errors: a base array with a
// full mirror half cannot shrink (no room for the survivors' extra
// data), and the error says which constraint broke.
func TestEpochShrinkRefusals(t *testing.T) {
	e0 := NewEpoch(NewOSM(4, 1, 24))
	if _, err := e0.Shrink(1); !errors.Is(err, ErrDataOverflow) {
		t.Fatalf("shrink of full base array: err = %v, want ErrDataOverflow", err)
	}
	if _, err := e0.Shrink(3); err == nil {
		t.Fatal("shrink below 2 nodes must fail")
	}
	if _, err := e0.Grow(0); err == nil {
		t.Fatal("grow by 0 must fail")
	}
}

// TestEpochDescRoundTrip replays a descriptor and checks the rebuilt
// epoch places every block identically — the property that lets peers
// exchange step lists instead of override maps.
func TestEpochDescRoundTrip(t *testing.T) {
	e0 := NewEpoch(NewOSM(4, 2, 24))
	e1, err := e0.Grow(3)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e1.Shrink(2)
	if err != nil {
		t.Fatal(err)
	}
	desc := e2.Desc()
	if desc.Gen() != 2 {
		t.Fatalf("desc gen %d, want 2", desc.Gen())
	}
	re, err := EpochFromDesc(desc)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if re.Gen() != e2.Gen() || re.Width() != e2.Width() || re.Nodes() != e2.Nodes() {
		t.Fatalf("replayed shape differs: gen %d/%d width %d/%d", re.Gen(), e2.Gen(), re.Width(), e2.Width())
	}
	for lb := int64(0); lb < e2.DataBlocks(); lb++ {
		if e2.DataLoc(lb) != re.DataLoc(lb) || e2.MirrorLoc(lb) != re.MirrorLoc(lb) {
			t.Fatalf("block %d: replayed placement differs", lb)
		}
	}
}

// TestEpochMovesBetween checks the move accounting used by migration
// progress reporting.
func TestEpochMovesBetween(t *testing.T) {
	e0 := NewEpoch(NewOSM(4, 1, 24))
	e1, err := e0.Grow(8) // 4 → 12
	if err != nil {
		t.Fatal(err)
	}
	data, images := MovesBetween(e0, e1)
	wantData, wantImages := e1.MovedByLastStep()
	if data != wantData || images != wantImages {
		t.Fatalf("MovesBetween = %d,%d; step says %d,%d", data, images, wantData, wantImages)
	}
	// 4→12 with equal initial load moves 2/3 of the data: the k/(N+k)
	// fraction the paper's reconfiguration argument predicts.
	b := e0.DataBlocks()
	if lo, hi := 2*b/3-12, 2*b/3+12; data < lo || data > hi {
		t.Fatalf("4→12 moved %d of %d blocks; want ≈ 2/3", data, b)
	}
}

// TestEpochZeroIsBaseArithmetic pins the generation-0 guarantee the
// engine's one placement path relies on: an epoch with no steps places
// every block exactly where the base OSM arithmetic does.
func TestEpochZeroIsBaseArithmetic(t *testing.T) {
	e := NewEpoch(NewOSM(4, 2, 24))
	if e.Gen() != 0 {
		t.Fatal("fresh epoch not at generation 0")
	}
	osm := e.Base()
	for lb := int64(0); lb < e.DataBlocks(); lb++ {
		if e.DataLoc(lb) != osm.DataLoc(lb) || e.MirrorLoc(lb) != osm.MirrorLoc(lb) {
			t.Fatalf("generation-0 epoch disagrees with OSM at block %d", lb)
		}
	}
	e1, err := e.Grow(1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Gen() != 1 {
		t.Fatal("grown epoch not at generation 1")
	}
	if e.Gen() != 0 {
		t.Fatal("grow mutated its receiver")
	}
}
