package layout

import (
	"errors"
	"fmt"
)

// This file adds online membership to OSM: generation-numbered layout
// epochs. An Epoch is an immutable placement map — the base OSM
// arithmetic plus a sparse set of per-block overrides accumulated by
// grow/shrink steps. Epoch g+1 is derived from epoch g by a minimal-
// movement rebalance: only enough blocks move to restore per-disk
// balance (±1 block), and a block never "moves" to the disk it is
// already on.
//
// Placement invariants maintained across every step:
//
//   - usable capacity is fixed at the base geometry's DataBlocks: a
//     grow adds bandwidth and headroom, not address space (the SIOS
//     size a client mounted at epoch 0 stays valid at every epoch);
//   - the data blocks of each disk always occupy a contiguous prefix
//     of its data half (donors give away their highest offsets,
//     receivers fill upward), so resync and rebuild scans stay
//     sequential;
//   - orthogonality: a block and its image never share a node. On a
//     grow by whole nodes no image ever moves (moved data lands on the
//     new nodes, away from every existing image), which is why grow
//     migration traffic is exactly the data-movement minimum. On a
//     shrink, images on removed disks — and images whose block was
//     rebalanced onto their node — relocate into free mirror-half
//     slots elsewhere.
//
// The override maps answer "where is block b" for the new epoch while
// the previous Epoch value still answers for the old one — the core
// engine holds both during a migration and picks by migration cursor.
// The engine places every operation through an Epoch, generation zero
// included: with no overrides DataLoc / MirrorLoc cost one empty-map
// length check on top of the base arithmetic, and DataSource /
// MirrorSource are the exact inverses its repair loop scans with.

// ErrNoMirrorSpace is returned by a shrink whose relocated images do
// not fit in the surviving disks' free mirror-half slots.
var ErrNoMirrorSpace = errors.New("layout: no mirror-half space for relocated images")

// ErrDataOverflow is returned when a shrink would need more data-half
// space per surviving disk than the geometry has.
var ErrDataOverflow = errors.New("layout: rebalance overflows data half")

// StepSpec describes one membership change. Exactly one field is set.
// Steps are tiny and serializable: peers rebuild the full (and fully
// deterministic) override maps from the base geometry plus the step
// list instead of shipping the maps around.
type StepSpec struct {
	// Add is the number of whole nodes appended (each with the base
	// DisksPerNode disks).
	Add int `json:"add,omitempty"`
	// Remove is the number of nodes retired from the tail.
	Remove int `json:"remove,omitempty"`
}

// EpochDesc is the wire/disk form of an Epoch: base geometry plus the
// step list. Replaying the steps reproduces the epoch exactly.
type EpochDesc struct {
	Nodes        int        `json:"nodes"`
	DisksPerNode int        `json:"disks_per_node"`
	DiskBlocks   int64      `json:"disk_blocks"`
	Steps        []StepSpec `json:"steps,omitempty"`
}

// Gen reports the generation the descriptor describes.
func (d EpochDesc) Gen() uint64 { return uint64(len(d.Steps)) }

// Epoch is one generation of an OSM layout under online membership.
// The zero generation is pure OSM arithmetic; later generations add
// sparse overrides. Epochs are immutable once built — Grow and Shrink
// return new values — so a pointer can be published with the same COW
// snapshot discipline as the engine's device table.
type Epoch struct {
	base  OSM
	steps []StepSpec

	nodes   int    // current node count (active)
	nodeOf  []int  // disk index -> node id (stable across epochs)
	localOf []int  // disk index -> local disk index on its node
	active  []bool // false once a disk's node has been retired

	dataCount []int64   // data blocks per disk (contiguous prefix)
	mirUsed   []int64   // mirror-half blocks in use per disk (load metric)
	mirTop    []int64   // mirror-half append frontier per disk
	mirFree   [][]int64 // vacated mirror slots below the frontier, sorted

	dataOver map[int64]Loc // logical block -> data home, iff off base
	mirOver  map[int64]Loc // logical block -> image home, iff off base
	dataRev  map[Loc]int64 // inverse of dataOver
	mirRev   map[Loc]int64 // inverse of mirOver

	movedData int64 // data blocks moved by the latest step
	movedMir  int64 // images moved by the latest step
}

// NewEpoch wraps a base OSM layout as generation zero.
func NewEpoch(base OSM) *Epoch {
	w := base.TotalDisks()
	e := &Epoch{
		base:      base,
		nodes:     base.Nodes,
		nodeOf:    make([]int, w),
		localOf:   make([]int, w),
		active:    make([]bool, w),
		dataCount: make([]int64, w),
		mirUsed:   make([]int64, w),
		mirTop:    make([]int64, w),
		mirFree:   make([][]int64, w),
		dataOver:  map[int64]Loc{},
		mirOver:   map[int64]Loc{},
		dataRev:   map[Loc]int64{},
		mirRev:    map[Loc]int64{},
	}
	perDisk := base.GroupSlotsPerDisk() * int64(base.GroupSize())
	for d := 0; d < w; d++ {
		e.nodeOf[d] = base.NodeOfDisk(d)
		e.localOf[d] = base.LocalIndexOfDisk(d)
		e.active[d] = true
		e.dataCount[d] = perDisk // data half: blocks b ≡ d (mod w)
		e.mirUsed[d] = perDisk   // mirror half: packed group slots
		e.mirTop[d] = perDisk
	}
	return e
}

// EpochFromDesc replays a descriptor into an Epoch. The reconstruction
// is deterministic: two peers replaying the same descriptor agree on
// every block's location.
func EpochFromDesc(d EpochDesc) (*Epoch, error) {
	e := NewEpoch(NewOSM(d.Nodes, d.DisksPerNode, d.DiskBlocks))
	for i, s := range d.Steps {
		var err error
		switch {
		case s.Add > 0 && s.Remove == 0:
			e, err = e.Grow(s.Add)
		case s.Remove > 0 && s.Add == 0:
			e, err = e.Shrink(s.Remove)
		default:
			err = fmt.Errorf("layout: step %d is neither grow nor shrink", i)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Desc returns the serializable descriptor of this epoch.
func (e *Epoch) Desc() EpochDesc {
	return EpochDesc{
		Nodes:        e.base.Nodes,
		DisksPerNode: e.base.DisksPerNode,
		DiskBlocks:   e.base.DiskBlocks,
		Steps:        append([]StepSpec(nil), e.steps...),
	}
}

// Gen reports the generation number: the count of completed membership
// steps since the base layout.
func (e *Epoch) Gen() uint64 { return uint64(len(e.steps)) }

// Base returns the epoch-zero OSM geometry.
func (e *Epoch) Base() OSM { return e.base }

// Width reports the total number of disk slots (including retired
// ones, which keep their indices so physical locations stay stable).
func (e *Epoch) Width() int { return len(e.nodeOf) }

// Nodes reports the current number of active nodes.
func (e *Epoch) Nodes() int { return e.nodes }

// NodeOf reports which node disk d is attached to.
func (e *Epoch) NodeOf(d int) int { return e.nodeOf[d] }

// LocalOf reports disk d's index among its node's local disks. Together
// with NodeOf it defines the epoch's column order, which is how a
// restarting mount rebuilds its device table: column d is local disk
// LocalOf(d) of node NodeOf(d). (A grown cluster's column order is NOT
// the fresh-mount interleave at the new node count — base columns
// interleave at the base node count and grown columns are appended.)
func (e *Epoch) LocalOf(d int) int { return e.localOf[d] }

// Active reports whether disk d is still a member (false once its node
// has been retired by a shrink).
func (e *Epoch) Active(d int) bool { return d < len(e.active) && e.active[d] }

// GroupSize reports the mirror group size, fixed at the base geometry.
func (e *Epoch) GroupSize() int { return e.base.GroupSize() }

// DataBlocks implements Striper. Capacity is fixed at the base
// geometry across every epoch.
func (e *Epoch) DataBlocks() int64 { return e.base.DataBlocks() }

// DataCounts returns a copy of the per-disk data block counts.
func (e *Epoch) DataCounts() []int64 { return append([]int64(nil), e.dataCount...) }

// MovedByLastStep reports how many data blocks and images the most
// recent membership step relocated.
func (e *Epoch) MovedByLastStep() (data, images int64) { return e.movedData, e.movedMir }

// DataLoc implements Striper for this generation.
func (e *Epoch) DataLoc(b int64) Loc {
	if len(e.dataOver) != 0 {
		if l, ok := e.dataOver[b]; ok {
			return l
		}
	}
	return e.base.DataLoc(b)
}

// MirrorLoc implements Mirrorer for this generation.
func (e *Epoch) MirrorLoc(b int64) Loc {
	if len(e.mirOver) != 0 {
		if l, ok := e.mirOver[b]; ok {
			return l
		}
	}
	return e.base.MirrorLoc(b)
}

// Moved reports whether block b's data or image sits somewhere other
// than its base-arithmetic home in this epoch.
func (e *Epoch) Moved(b int64) (data, image bool) {
	_, data = e.dataOver[b]
	_, image = e.mirOver[b]
	return
}

// DataSource reports which logical block is stored at data location
// (d, pb) in this epoch, if any. It inverts DataLoc.
func (e *Epoch) DataSource(d int, pb int64) (int64, bool) {
	if b, ok := e.dataRev[Loc{Disk: d, Block: pb}]; ok {
		return b, true
	}
	w := int64(e.base.TotalDisks())
	if int64(d) >= w || pb < 0 {
		return 0, false
	}
	b := pb*w + int64(d)
	if b >= e.base.DataBlocks() {
		return 0, false
	}
	if _, moved := e.dataOver[b]; moved {
		return 0, false // vacated by a rebalance
	}
	return b, true
}

// MirrorSource reports which logical block's image is stored at
// location (d, pb) in this epoch, if any. It inverts MirrorLoc.
func (e *Epoch) MirrorSource(d int, pb int64) (int64, bool) {
	if b, ok := e.mirRev[Loc{Disk: d, Block: pb}]; ok {
		return b, true
	}
	w0 := e.base.TotalDisks()
	if d >= w0 {
		return 0, false // new disks hold no base-arithmetic images
	}
	mb := e.base.DiskBlocks / 2
	gs := int64(e.base.GroupSize())
	if pb < mb || pb >= mb+e.base.GroupSlotsPerDisk()*gs {
		return 0, false
	}
	slot := (pb - mb) / gs
	j := (pb - mb) % gs
	// Each disk owns exactly one group out of every w0 consecutive
	// groups; scan the slot's window for the one that lands here.
	for g := slot * int64(w0); g < (slot+1)*int64(w0); g++ {
		if e.base.MirrorDisk(g) != d {
			continue
		}
		b := g*gs + j
		if b >= e.base.DataBlocks() {
			return 0, false
		}
		if _, moved := e.mirOver[b]; moved {
			return 0, false
		}
		return b, true
	}
	return 0, false
}

// clone deep-copies the epoch so a step can mutate freely.
func (e *Epoch) clone() *Epoch {
	n := &Epoch{
		base:      e.base,
		steps:     append([]StepSpec(nil), e.steps...),
		nodes:     e.nodes,
		nodeOf:    append([]int(nil), e.nodeOf...),
		localOf:   append([]int(nil), e.localOf...),
		active:    append([]bool(nil), e.active...),
		dataCount: append([]int64(nil), e.dataCount...),
		mirUsed:   append([]int64(nil), e.mirUsed...),
		mirTop:    append([]int64(nil), e.mirTop...),
		mirFree:   make([][]int64, len(e.mirFree)),
		dataOver:  make(map[int64]Loc, len(e.dataOver)),
		mirOver:   make(map[int64]Loc, len(e.mirOver)),
		dataRev:   make(map[Loc]int64, len(e.dataRev)),
		mirRev:    make(map[Loc]int64, len(e.mirRev)),
	}
	for d, f := range e.mirFree {
		n.mirFree[d] = append([]int64(nil), f...)
	}
	for k, v := range e.dataOver {
		n.dataOver[k] = v
	}
	for k, v := range e.mirOver {
		n.mirOver[k] = v
	}
	for k, v := range e.dataRev {
		n.dataRev[k] = v
	}
	for k, v := range e.mirRev {
		n.mirRev[k] = v
	}
	return n
}

// setData records block b's new data home, keeping the inverse map and
// the "override iff off base" normalization.
func (e *Epoch) setData(b int64, to Loc) {
	if cur, ok := e.dataOver[b]; ok {
		delete(e.dataRev, cur)
	}
	if to == e.base.DataLoc(b) {
		delete(e.dataOver, b)
		return
	}
	e.dataOver[b] = to
	e.dataRev[to] = b
}

// setMirror records block b's new image home. The vacated slot goes on
// its disk's free list so a later relocation can reuse it.
func (e *Epoch) setMirror(b int64, to Loc) {
	cur, overridden := e.mirOver[b]
	if !overridden {
		cur = e.base.MirrorLoc(b)
	} else {
		delete(e.mirRev, cur)
	}
	e.freeMirrorSlot(cur)
	e.mirUsed[to.Disk]++
	if to == e.base.MirrorLoc(b) {
		delete(e.mirOver, b)
		return
	}
	e.mirOver[b] = to
	e.mirRev[to] = b
}

// freeMirrorSlot returns a mirror-half slot to its disk's allocator,
// keeping the free list sorted so allocation is deterministic. Free
// slots are tracked as offsets relative to the mirror base, matching
// allocMirrorSlot.
func (e *Epoch) freeMirrorSlot(l Loc) {
	e.mirUsed[l.Disk]--
	off := l.Block - e.base.DiskBlocks/2
	f := e.mirFree[l.Disk]
	i := 0
	for i < len(f) && f[i] < off {
		i++
	}
	f = append(f, 0)
	copy(f[i+1:], f[i:])
	f[i] = off
	e.mirFree[l.Disk] = f
}

// allocMirrorSlot takes the lowest free mirror-base-relative slot on
// disk d, extending the append frontier when the free list is empty.
// Second result is false when the mirror half is full.
func (e *Epoch) allocMirrorSlot(d int) (int64, bool) {
	if f := e.mirFree[d]; len(f) > 0 {
		off := f[0]
		e.mirFree[d] = f[1:]
		return off, true
	}
	if e.mirTop[d] < e.base.DiskBlocks/2 {
		off := e.mirTop[d]
		e.mirTop[d]++
		return off, true
	}
	return 0, false
}

// Grow returns the next epoch after appending add whole nodes, each
// with the base DisksPerNode disks. New disk indices follow the SIOS
// interleave among the new nodes: appended disk w + l·add + m is local
// disk l of new node (nodes + m).
func (e *Epoch) Grow(add int) (*Epoch, error) {
	if add < 1 {
		return nil, fmt.Errorf("layout: grow by %d nodes", add)
	}
	n := e.clone()
	n.steps = append(n.steps, StepSpec{Add: add})
	k := e.base.DisksPerNode
	for l := 0; l < k; l++ {
		for m := 0; m < add; m++ {
			n.nodeOf = append(n.nodeOf, e.nodes+m)
			n.localOf = append(n.localOf, l)
			n.active = append(n.active, true)
			n.dataCount = append(n.dataCount, 0)
			n.mirUsed = append(n.mirUsed, 0)
			n.mirTop = append(n.mirTop, 0)
			n.mirFree = append(n.mirFree, nil)
		}
	}
	n.nodes += add
	if err := n.rebalance(); err != nil {
		return nil, err
	}
	return n, nil
}

// Shrink returns the next epoch after retiring remove nodes from the
// tail. Their disks keep their indices but become inactive; every
// block and image they held relocates onto the survivors.
func (e *Epoch) Shrink(remove int) (*Epoch, error) {
	if remove < 1 {
		return nil, fmt.Errorf("layout: shrink by %d nodes", remove)
	}
	if e.nodes-remove < 2 {
		return nil, fmt.Errorf("layout: shrink %d→%d nodes: need >= 2", e.nodes, e.nodes-remove)
	}
	n := e.clone()
	n.steps = append(n.steps, StepSpec{Remove: remove})
	cut := e.nodes - remove
	for d := range n.nodeOf {
		if n.nodeOf[d] >= cut {
			n.active[d] = false
		}
	}
	n.nodes = cut
	if err := n.rebalance(); err != nil {
		return nil, err
	}
	return n, nil
}

// rebalance restores ±1 data balance over the active disks with the
// minimum number of moves, then relocates any image stranded on an
// inactive disk or left sharing a node with its (moved) block.
func (n *Epoch) rebalance() error {
	b := n.base.DataBlocks()
	half := n.base.DiskBlocks / 2
	var act []int
	for d, a := range n.active {
		if a {
			act = append(act, d)
		}
	}
	w := int64(len(act))

	// Per-disk targets: B/W each, remainder to the lowest-indexed
	// active disks. Donors give their highest offsets, receivers fill
	// upward, so every disk's data stays a contiguous prefix.
	target := make([]int64, len(n.nodeOf))
	per, rem := b/w, b%w
	for i, d := range act {
		target[d] = per
		if int64(i) < rem {
			target[d]++
		}
		if target[d] > half {
			return fmt.Errorf("%w: disk %d needs %d of %d data blocks", ErrDataOverflow, d, target[d], half)
		}
	}

	type slot struct {
		d   int
		off int64
	}
	var give, take []slot
	for d := range n.nodeOf {
		for off := target[d]; off < n.dataCount[d]; off++ {
			give = append(give, slot{d, off})
		}
	}
	for _, d := range act {
		for off := n.dataCount[d]; off < target[d]; off++ {
			take = append(take, slot{d, off})
		}
	}
	if len(give) != len(take) {
		panic(fmt.Sprintf("layout: rebalance gives %d takes %d", len(give), len(take)))
	}

	moved := make([]int64, 0, len(give))
	for i, g := range give {
		lb, ok := n.DataSource(g.d, g.off)
		if !ok {
			panic(fmt.Sprintf("layout: no block at donated slot D%d:%d", g.d, g.off))
		}
		n.setData(lb, Loc{Disk: take[i].d, Block: take[i].off})
		moved = append(moved, lb)
	}
	for d := range n.nodeOf {
		n.dataCount[d] = target[d]
	}
	n.movedData = int64(len(give))
	n.movedMir = 0

	// Images stranded on retired disks must relocate. A plain grow
	// never enters this loop (nothing is retired) and its moved data
	// all lands on brand-new nodes that hold no images, so grow
	// migration traffic is pure data movement.
	retired := false
	for _, a := range n.active {
		if !a {
			retired = true
			break
		}
	}
	if retired {
		for lb := int64(0); lb < b; lb++ {
			if !n.active[n.MirrorLoc(lb).Disk] {
				if err := n.relocateImage(lb); err != nil {
					return err
				}
			}
		}
	}
	// Rebalanced blocks whose new home shares a node with their image
	// violate orthogonality; move the image, not the block (the block's
	// placement is what balance depends on).
	for _, lb := range moved {
		if n.nodeOf[n.DataLoc(lb).Disk] == n.nodeOf[n.MirrorLoc(lb).Disk] {
			if err := n.relocateImage(lb); err != nil {
				return err
			}
		}
	}
	return nil
}

// relocateImage finds block lb's image a new home: the least-loaded
// active disk (lowest index breaking ties, so the choice is
// deterministic) with a free mirror slot on any node other than the
// block's data node.
func (n *Epoch) relocateImage(lb int64) error {
	half := n.base.DiskBlocks / 2
	dataNode := n.nodeOf[n.DataLoc(lb).Disk]
	best := -1
	for d, a := range n.active {
		if !a || n.nodeOf[d] == dataNode {
			continue
		}
		if len(n.mirFree[d]) == 0 && n.mirTop[d] >= half {
			continue // full
		}
		if best < 0 || n.mirUsed[d] < n.mirUsed[best] {
			best = d
		}
	}
	if best < 0 {
		return fmt.Errorf("%w: block %d", ErrNoMirrorSpace, lb)
	}
	off, ok := n.allocMirrorSlot(best)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrNoMirrorSpace, lb)
	}
	n.setMirror(lb, Loc{Disk: best, Block: half + off})
	n.movedMir++
	return nil
}

// MovesBetween reports how many blocks have a different data home and
// how many a different image home in epoch b than in epoch a. The
// count is exact but costs O(overrides), not O(capacity).
func MovesBetween(a, b *Epoch) (data, images int64) {
	seen := func(m1, m2 map[int64]Loc, get1, get2 func(int64) Loc) int64 {
		counted := make(map[int64]bool, len(m1)+len(m2))
		var n int64
		for lb := range m1 {
			counted[lb] = true
			if get1(lb) != get2(lb) {
				n++
			}
		}
		for lb := range m2 {
			if counted[lb] {
				continue
			}
			if get1(lb) != get2(lb) {
				n++
			}
		}
		return n
	}
	data = seen(a.dataOver, b.dataOver, a.DataLoc, b.DataLoc)
	images = seen(a.mirOver, b.mirOver, a.MirrorLoc, b.MirrorLoc)
	return
}
