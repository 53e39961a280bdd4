// Package mount is the one path from a list of CDD node addresses to a
// RAID-x engine: connect (tolerating nodes that are down), probe the
// cluster's layout epoch, build the device table in the epoch's column
// order, refuse the mounts that would place I/O wrongly, and recover
// from a stale-epoch rejection by rebuilding the engine and rerunning
// the caller's operation. raidxfs, raidxctl and raidxnode's rebalance
// coordinator all attach through it.
package mount

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/raid"
)

// The refusals. Each is made where an engine is built, never at connect
// or probe time, so commands that only talk to nodes (status, stats,
// fail, replace) keep working in all three situations.
var (
	// ErrMigrating: blocks are moving. The coordinator's engine routes
	// around the copy cursor; any other mount would write below it to
	// homes the migration is about to retire (the nodes reject such I/O
	// anyway — this is the better message).
	ErrMigrating = errors.New("mount: rebalance in flight")
	// ErrNoDescriptor: the nodes enforce a generation above zero but no
	// reachable node serves the layout behind it. Stamping I/O placed
	// with the base map at that generation would make the nodes accept
	// writes to wrong homes.
	ErrNoDescriptor = errors.New("mount: no reachable node serves the layout descriptor")
	// ErrGeometry: the address list cannot carry the layout — fewer
	// addresses than the epoch has nodes, or nodes exporting fewer or
	// smaller disks than it places blocks on.
	ErrGeometry = errors.New("mount: address list does not fit the layout")
)

// Cluster is a set of CDD node connections in address-list order, which
// is node order: Addrs[i] is node i of the layout.
type Cluster struct {
	Addrs []string
	// Clients[i] is nil for a node that did not answer at Connect; Errs[i]
	// then says why. Its columns mount as offline placeholders.
	Clients []*cdd.NodeClient
	Errs    []error
	// PerNode, BlockSize and Blocks are the disk geometry every
	// reachable node exports.
	PerNode   int
	BlockSize int
	Blocks    int64
}

// Connect dials every address. It fails only when no node answers or the
// nodes that do export different disk counts; a node that is down is
// recorded in Errs and mounted degraded.
func Connect(addrs []string) (*Cluster, error) {
	c := &Cluster{
		Addrs:   make([]string, len(addrs)),
		Clients: make([]*cdd.NodeClient, len(addrs)),
		Errs:    make([]error, len(addrs)),
	}
	for i, a := range addrs {
		c.Addrs[i] = strings.TrimSpace(a)
		nc, err := cdd.Connect(c.Addrs[i])
		if err != nil {
			c.Errs[i] = err
			continue
		}
		c.Clients[i] = nc
		if c.PerNode == 0 {
			d := nc.Dev(0)
			c.PerNode, c.BlockSize, c.Blocks = nc.NumDisks(), d.BlockSize(), d.NumBlocks()
		} else if nc.NumDisks() != c.PerNode {
			c.Close()
			return nil, fmt.Errorf("mount: node %s exports %d disk(s), earlier nodes %d", c.Addrs[i], nc.NumDisks(), c.PerNode)
		}
	}
	if c.PerNode == 0 {
		return nil, fmt.Errorf("mount: no CDD node reachable: %w", errors.Join(c.Errs...))
	}
	return c, nil
}

// Close closes every connection.
func (c *Cluster) Close() {
	for _, nc := range c.Clients {
		if nc != nil {
			nc.Close()
		}
	}
}

// View is a cluster's answer to "which layout are you at".
type View struct {
	// LayoutInfo is the most informative OpLayout reply: the rebalance
	// coordinator's (descriptor plus migration progress) when it is
	// reachable, otherwise the highest bare generation any node enforces.
	cdd.LayoutInfo
	// Epoch is the stable placement map at Gen; nil when Probe could not
	// establish one.
	Epoch *layout.Epoch
}

// Probe asks every reachable node for its layout. The error says why no
// placement map could be established (View.Epoch is then nil); the rest
// of the view is still valid, so status displays can render it.
func (c *Cluster) Probe(ctx context.Context) (View, error) {
	var v View
	for _, nc := range c.Clients {
		if nc == nil {
			continue
		}
		li, err := nc.Layout(ctx)
		if err != nil {
			continue
		}
		if li.Desc != nil {
			v.LayoutInfo = li
			break
		}
		if li.Gen > v.Gen {
			v.LayoutInfo = li
		}
	}
	var err error
	switch {
	case v.Desc != nil:
		if v.Epoch, err = layout.EpochFromDesc(*v.Desc); err != nil {
			err = fmt.Errorf("mount: cluster layout descriptor: %w", err)
		}
	case v.Gen > 0:
		err = fmt.Errorf("%w for layout epoch %d (rebalance coordinator down?); refusing to place I/O with the base map", ErrNoDescriptor, v.Gen)
	default:
		// Never rebalanced and no coordinator: the address list itself is
		// the membership, at generation zero.
		v.Epoch, err = c.baseEpoch()
	}
	return v, err
}

// baseEpoch is the generation-zero layout of the connected nodes.
func (c *Cluster) baseEpoch() (*layout.Epoch, error) {
	n, per := len(c.Addrs), c.Blocks-c.Blocks%2
	if n < 2 || per/2 < int64(n-1) {
		return nil, fmt.Errorf("%w: %d node(s) of %d-block disks cannot hold an OSM layout", ErrGeometry, n, c.Blocks)
	}
	return layout.NewEpoch(layout.NewOSM(n, c.PerNode, per)), nil
}

// Table builds the device table of ep: column d is local disk LocalOf(d)
// of node NodeOf(d). At generation zero that is the SIOS interleave;
// grown columns are appended after it, so this one loop serves every
// generation. Nodes that were down at Connect become offline
// placeholders; retired columns whose node is no longer listed stay nil.
func (c *Cluster) Table(ep *layout.Epoch) ([]raid.Dev, error) {
	if ep.Nodes() > len(c.Clients) {
		return nil, fmt.Errorf("%w: epoch %d spans %d nodes, %d address(es) given", ErrGeometry, ep.Gen(), ep.Nodes(), len(c.Clients))
	}
	devs := make([]raid.Dev, ep.Width())
	for d := range devs {
		node, local := ep.NodeOf(d), ep.LocalOf(d)
		switch {
		case node < len(c.Clients) && local < c.PerNode:
			if nc := c.Clients[node]; nc != nil {
				devs[d] = nc.Dev(local)
			} else {
				devs[d] = cdd.Offline(c.Addrs[node], c.BlockSize, c.Blocks)
			}
		case ep.Active(d):
			return nil, fmt.Errorf("%w: epoch column %d is local disk %d of node %d, outside the %d x %d cluster",
				ErrGeometry, d, local, node, len(c.Clients), c.PerNode)
		}
	}
	return devs, nil
}

// Engine probes the layout and builds the engine at the epoch in force,
// or refuses (ErrMigrating, ErrNoDescriptor, ErrGeometry).
func (c *Cluster) Engine(ctx context.Context, opt core.Options) (*core.RAIDx, error) {
	v, err := c.Probe(ctx)
	if v.Migrating {
		return nil, fmt.Errorf("%w (epoch %d -> %d, cursor %d): the coordinator is the only sanctioned writer while blocks move; retry when it completes",
			ErrMigrating, v.Gen, v.TargetGen, v.Cursor)
	}
	if err != nil {
		return nil, err
	}
	return c.engine(v.Epoch, v.Epoch, opt)
}

// EngineAt builds the engine at a known epoch instead of a probed one —
// the rebalance coordinator reopening at its checkpointed source epoch.
// growBy > 0 widens the device table to the target of a grow by that
// many nodes, so an interrupted grow can resume with no new devices.
func (c *Cluster) EngineAt(desc layout.EpochDesc, growBy int, opt core.Options) (*core.RAIDx, error) {
	ep, err := layout.EpochFromDesc(desc)
	if err != nil {
		return nil, err
	}
	table := ep
	if growBy > 0 {
		if table, err = ep.Grow(growBy); err != nil {
			return nil, err
		}
	}
	return c.engine(ep, table, opt)
}

// engine stamps every connection with ep's generation and builds the
// engine over table's columns.
func (c *Cluster) engine(ep, table *layout.Epoch, opt core.Options) (*core.RAIDx, error) {
	devs, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	for _, nc := range c.Clients {
		if nc != nil {
			nc.SetArrayEpoch(ep.Gen())
		}
	}
	return core.NewAtEpoch(devs, ep, opt)
}

// Run builds an engine and runs op against it. A stale-epoch rejection
// from op means the cluster rebalanced underneath the mount: every
// placement that engine computed is suspect, so the only sound recovery
// is to probe again, rebuild the engine, and rerun op from scratch — op
// must tolerate that. One rebuild is allowed; a second rejection
// surfaces.
func (c *Cluster) Run(ctx context.Context, opt core.Options, op func(*core.RAIDx) error) error {
	for attempt := 0; ; attempt++ {
		arr, err := c.Engine(ctx, opt)
		if err != nil {
			return err
		}
		if err = op(arr); attempt > 0 || !cdd.IsStaleEpoch(err) {
			return err
		}
	}
}
