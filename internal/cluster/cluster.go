// Package cluster assembles the simulated Trojans testbed: n nodes,
// each with a CPU, a full-duplex switch port, and k local disks, all
// sharing one virtual clock. It provides per-client *device views* —
// raid.Dev implementations that reach any disk in the single I/O space
// while charging the network, CPU, and disk-arm costs that access
// actually incurs from that client's node. Array engines built over a
// view are therefore location-aware without knowing it, exactly like a
// host using the cooperative disk drivers.
package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/netmodel"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Params describes the simulated cluster hardware and software costs.
type Params struct {
	// Nodes is the number of cluster hosts (the paper's n).
	Nodes int
	// DisksPerNode is k; global disk j lives on node j mod Nodes.
	DisksPerNode int
	// BlockSize in bytes (the paper's experiments use 32 KB accesses).
	BlockSize int
	// DiskBlocks is the per-disk capacity in blocks.
	DiskBlocks int64
	// Disk is the per-disk timing model.
	Disk disk.Model
	// Net is the interconnect model.
	Net netmodel.Params
	// CPUPerRequest is the software-stack overhead charged on the CPU
	// of each endpoint per I/O request (driver, syscall, interrupt,
	// protocol processing). This is the main knob separating the 1999
	// Linux 2.2 stack from raw hardware limits.
	CPUPerRequest time.Duration
	// ReqMsgBytes is the size of a request/ack control message.
	ReqMsgBytes int
}

// DefaultParams returns the calibration used for all paper
// reproductions: 12 nodes, one ~10 MB/s SCSI disk each, switched Fast
// Ethernet, and late-90s software overheads.
func DefaultParams() Params {
	return Params{
		Nodes:         12,
		DisksPerNode:  1,
		BlockSize:     32 << 10,
		DiskBlocks:    2048,
		Disk:          disk.DefaultModel(),
		Net:           netmodel.FastEthernet(),
		CPUPerRequest: 300 * time.Microsecond,
		ReqMsgBytes:   128,
	}
}

// Node is one cluster host.
type Node struct {
	ID    int
	CPU   *vclock.Resource
	Disks []*disk.Disk // local disks, in local order
}

// Cluster is the assembled simulated testbed.
type Cluster struct {
	Sim    *vclock.Sim
	Net    *netmodel.Network
	Params Params
	Nodes  []*Node
	// Disks lists all disks in SIOS (global) order: disk j on node
	// j mod Nodes, local index j / Nodes.
	Disks []*disk.Disk
}

// New builds a cluster on a fresh simulator.
func New(p Params) *Cluster {
	if p.Nodes < 1 || p.DisksPerNode < 1 {
		panic(fmt.Sprintf("cluster: bad geometry %dx%d", p.Nodes, p.DisksPerNode))
	}
	s := vclock.New()
	c := &Cluster{
		Sim:    s,
		Net:    netmodel.New(s, p.Nodes, p.Net),
		Params: p,
	}
	for i := 0; i < p.Nodes; i++ {
		c.Nodes = append(c.Nodes, &Node{
			ID:  i,
			CPU: vclock.NewResource(s, fmt.Sprintf("cpu%d", i), 1),
		})
	}
	total := p.Nodes * p.DisksPerNode
	for j := 0; j < total; j++ {
		node := j % p.Nodes
		d := disk.New(s, fmt.Sprintf("n%dd%d", node, j/p.Nodes),
			store.NewMem(p.BlockSize, p.DiskBlocks), p.Disk)
		c.Disks = append(c.Disks, d)
		c.Nodes[node].Disks = append(c.Nodes[node].Disks, d)
	}
	return c
}

// NodeOfDisk reports which node hosts global disk j.
func (c *Cluster) NodeOfDisk(j int) int { return j % c.Params.Nodes }

// DevView returns raid.Dev handles for every disk in SIOS order, as
// seen from clientNode: local disks are direct, remote disks charge
// network and CPU time per access.
func (c *Cluster) DevView(clientNode int) []raid.Dev {
	devs := make([]raid.Dev, len(c.Disks))
	for j, d := range c.Disks {
		devs[j] = &simDev{c: c, client: clientNode, server: c.NodeOfDisk(j), d: d}
	}
	return devs
}

// LocalDevs returns dev handles for one node's local disks only (used
// by the NFS baseline's server and by local checkpoint mirrors).
func (c *Cluster) LocalDevs(node int) []raid.Dev {
	out := make([]raid.Dev, len(c.Nodes[node].Disks))
	for i, d := range c.Nodes[node].Disks {
		out[i] = &simDev{c: c, client: node, server: node, d: d}
	}
	return out
}

// simDev is the simulated counterpart of cdd.RemoteDev: raid.Dev over
// the cluster fabric, charging message and CPU costs.
type simDev struct {
	c      *Cluster
	client int
	server int
	d      *disk.Disk
}

var _ raid.Dev = (*simDev)(nil)

func (v *simDev) BlockSize() int   { return v.d.BlockSize() }
func (v *simDev) NumBlocks() int64 { return v.d.NumBlocks() }
func (v *simDev) Healthy() bool    { return v.d.Healthy() }

// Disk exposes the underlying physical disk (stats, fault injection).
func (v *simDev) Disk() *disk.Disk { return v.d }

// QueueBacklog implements raid.QueueReporter by forwarding the physical
// disk's pending foreground work.
func (v *simDev) QueueBacklog() time.Duration { return v.d.QueueBacklog() }

// BgQueueBacklog implements raid.BgQueueReporter by forwarding the
// physical disk's deferred-write lane backlog.
func (v *simDev) BgQueueBacklog() time.Duration { return v.d.BgQueueBacklog() }

func (v *simDev) cpu(ctx context.Context, node int) {
	if p, ok := vclock.From(ctx); ok {
		v.c.Nodes[node].CPU.Use(p, v.c.Params.CPUPerRequest)
	}
}

// ReadBlocks: request message to the manager, disk read, data response.
func (v *simDev) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	v.cpu(ctx, v.client)
	if v.client != v.server {
		if err := v.c.Net.Send(ctx, v.client, v.server, v.c.Params.ReqMsgBytes); err != nil {
			return err
		}
		v.cpu(ctx, v.server)
	}
	if err := v.d.ReadBlocks(ctx, b, buf); err != nil {
		return err
	}
	if v.client != v.server {
		if err := v.c.Net.Send(ctx, v.server, v.client, len(buf)); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks: data message to the manager, disk write, ack.
func (v *simDev) WriteBlocks(ctx context.Context, b int64, data []byte) error {
	v.cpu(ctx, v.client)
	if v.client != v.server {
		if err := v.c.Net.Send(ctx, v.client, v.server, len(data)); err != nil {
			return err
		}
		v.cpu(ctx, v.server)
	}
	if err := v.d.WriteBlocks(ctx, b, data); err != nil {
		return err
	}
	if v.client != v.server {
		if err := v.c.Net.Send(ctx, v.server, v.client, v.c.Params.ReqMsgBytes); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocksBackground: the client pays only its local enqueue cost;
// the transfer and the disk time ride the low-priority background
// lanes (Flush on the disk accounts for the deferred work).
func (v *simDev) WriteBlocksBackground(ctx context.Context, b int64, data []byte) error {
	v.cpu(ctx, v.client)
	if v.client != v.server {
		if _, err := v.c.Net.SendBackground(ctx, v.client, v.server, len(data)); err != nil {
			return err
		}
	}
	return v.d.WriteBlocksBackground(ctx, b, data)
}

// Flush: control round trip plus a drain of the disk's reserved work.
func (v *simDev) Flush(ctx context.Context) error {
	v.cpu(ctx, v.client)
	if v.client != v.server {
		if err := v.c.Net.Send(ctx, v.client, v.server, v.c.Params.ReqMsgBytes); err != nil {
			return err
		}
	}
	if err := v.d.Flush(ctx); err != nil {
		return err
	}
	if v.client != v.server {
		if err := v.c.Net.Send(ctx, v.server, v.client, v.c.Params.ReqMsgBytes); err != nil {
			return err
		}
	}
	return nil
}
