package layout

import "fmt"

// OSM is the paper's orthogonal striping and mirroring layout over an
// n-by-k array: n nodes, each with k disks, n·k disks total. Global disk
// j sits on node j mod n (so disk(node m, local l) = m + l·n, the
// arrangement of the paper's Figure 3).
//
// Data placement is RAID-0 style across all n·k disks: block b lives in
// the data half of disk b mod n·k. A *stripe group* is n consecutive
// blocks — one per node — accessed in parallel; consecutive stripe
// groups fall on different local disks of the same nodes and pipeline
// over the node's SCSI bus.
//
// Mirror placement is the OSM rule: *mirror group* g consists of the
// images of the n-1 consecutive blocks g(n-1) … g(n-1)+n-2. Those
// blocks occupy n-1 distinct nodes, leaving exactly one node that holds
// none of them; the whole group is written as one contiguous run in the
// mirror half of one of that node's disks (rotating over the node's k
// disks). Consequences, all property-tested:
//
//   - orthogonality: a block and its image never share a node (hence
//     never a disk);
//   - the images of one stripe group of n blocks occupy exactly two
//     disks;
//   - a mirror group is one contiguous physical run — a single long
//     write;
//   - capacity is exactly half the raw array, like RAID-10.
type OSM struct {
	// Nodes is n, the striping width (degree of parallelism).
	Nodes int
	// DisksPerNode is k, the pipelining depth.
	DisksPerNode int
	// DiskBlocks is the raw capacity of each disk in blocks (must be
	// even: half data, half mirror).
	DiskBlocks int64
}

// NewOSM creates an OSM layout for an n-by-k array.
func NewOSM(nodes, disksPerNode int, diskBlocks int64) OSM {
	if nodes < 2 {
		panic(fmt.Sprintf("layout: OSM needs >= 2 nodes, got %d", nodes))
	}
	if disksPerNode < 1 {
		panic(fmt.Sprintf("layout: OSM needs >= 1 disk per node, got %d", disksPerNode))
	}
	if diskBlocks < 2 || diskBlocks%2 != 0 {
		panic(fmt.Sprintf("layout: OSM disk capacity must be positive and even, got %d", diskBlocks))
	}
	if diskBlocks/2 < int64(nodes-1) {
		panic(fmt.Sprintf("layout: OSM mirror half (%d blocks) smaller than one mirror group (%d)", diskBlocks/2, nodes-1))
	}
	return OSM{Nodes: nodes, DisksPerNode: disksPerNode, DiskBlocks: diskBlocks}
}

// TotalDisks reports n·k.
func (l OSM) TotalDisks() int { return l.Nodes * l.DisksPerNode }

// GroupSize reports the mirror group size, n-1.
func (l OSM) GroupSize() int { return l.Nodes - 1 }

// StripeWidth reports the stripe group size, n.
func (l OSM) StripeWidth() int { return l.Nodes }

// mirrorBase is the first block of each disk's mirror half.
func (l OSM) mirrorBase() int64 { return l.DiskBlocks / 2 }

// GroupSlotsPerDisk reports how many whole mirror groups fit in one
// disk's mirror half. Usable capacity is truncated to whole group
// slots so that mirror groups pack perfectly: each disk receives
// exactly one group out of every n·k consecutive groups, and the mirror
// half never overflows.
func (l OSM) GroupSlotsPerDisk() int64 { return (l.DiskBlocks / 2) / int64(l.GroupSize()) }

// DataBlocks implements Striper: slightly less than half the raw
// capacity (truncated to whole mirror-group slots per disk).
func (l OSM) DataBlocks() int64 {
	return l.GroupSlotsPerDisk() * int64(l.GroupSize()) * int64(l.TotalDisks())
}

// NodeOfDisk reports which node global disk j is attached to.
func (l OSM) NodeOfDisk(j int) int { return j % l.Nodes }

// LocalIndexOfDisk reports disk j's index among its node's k disks.
func (l OSM) LocalIndexOfDisk(j int) int { return j / l.Nodes }

// DiskAt reports the global index of local disk l on node m.
func (l OSM) DiskAt(node, local int) int { return node + local*l.Nodes }

// DataLoc implements Striper.
func (l OSM) DataLoc(b int64) Loc {
	n := int64(l.TotalDisks())
	return Loc{Disk: int(b % n), Block: b / n}
}

// MirrorGroupOf reports the mirror group of logical block b and its
// index within the group.
func (l OSM) MirrorGroupOf(b int64) (g int64, j int) {
	gs := int64(l.GroupSize())
	return b / gs, int(b % gs)
}

// GroupBlocks returns the logical blocks of mirror group g in order.
func (l OSM) GroupBlocks(g int64) []int64 {
	gs := int64(l.GroupSize())
	out := make([]int64, gs)
	for j := range out {
		out[j] = g*gs + int64(j)
	}
	return out
}

// MirrorNode reports which node stores the images of mirror group g:
// the unique node holding none of the group's data blocks.
func (l OSM) MirrorNode(g int64) int {
	n := int64(l.Nodes)
	gs := int64(l.GroupSize())
	return int(((g + 1) * gs) % n)
}

// MirrorDisk reports which global disk stores mirror group g. The
// node's k disks take turns, so consecutive groups destined for the
// same node pipeline over its disks.
func (l OSM) MirrorDisk(g int64) int {
	node := l.MirrorNode(g)
	local := int((g / int64(l.Nodes)) % int64(l.DisksPerNode))
	return l.DiskAt(node, local)
}

// GroupLoc reports where mirror group g begins: the group occupies
// GroupSize consecutive blocks starting at the returned location.
// Each disk receives exactly one group out of every n·k consecutive
// groups, so groups pack densely: group g is the (g / n·k)-th group on
// its disk.
func (l OSM) GroupLoc(g int64) Loc {
	slot := g / int64(l.TotalDisks())
	return Loc{Disk: l.MirrorDisk(g), Block: l.mirrorBase() + slot*int64(l.GroupSize())}
}

// MirrorLoc implements Mirrorer.
func (l OSM) MirrorLoc(b int64) Loc {
	g, j := l.MirrorGroupOf(b)
	start := l.GroupLoc(g)
	return Loc{Disk: start.Disk, Block: start.Block + int64(j)}
}

// StripeGroupBlocks returns the logical blocks of stripe group s (the
// n blocks accessed in parallel, one per node).
func (l OSM) StripeGroupBlocks(s int64) []int64 {
	n := int64(l.Nodes)
	out := make([]int64, n)
	for j := range out {
		out[j] = s*n + int64(j)
	}
	return out
}
