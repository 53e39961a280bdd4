// Package bench is the experiment harness: it assembles simulated
// clusters, runs the paper's workloads against each I/O subsystem, and
// returns the measurements behind every table and figure of the
// evaluation section (Figure 5 bandwidth curves, Table 3 improvement
// factors, the Andrew benchmark of Figure 6 via internal/andrew, and
// the checkpointing experiment of Figure 7 via internal/chkpt).
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nfssim"
	"repro/internal/raid"
	"repro/internal/vclock"
)

// System names one of the I/O subsystem architectures under test.
type System string

// The four subsystems of the paper's experiments, plus two extras
// (plain striping and chained declustering) used by Table 2 and the
// extended comparisons.
const (
	NFS     System = "nfs"
	RAID0   System = "raid0"
	RAID5   System = "raid5"
	RAID10  System = "raid10"
	Chained System = "chained"
	RAIDx   System = "raidx"
	// AFRAID is Savage & Wilkes' lazily-redundant RAID-5 variant, which
	// the paper cites as an influence — the design-space point between
	// RAID-5 and RAID-x.
	AFRAID System = "afraid"
)

// PaperSystems lists the four subsystems of Figures 5 and 6.
func PaperSystems() []System { return []System{NFS, RAID5, RAID10, RAIDx} }

// AllSystems lists every implemented architecture.
func AllSystems() []System {
	return []System{NFS, RAID0, RAID5, AFRAID, RAID10, Chained, RAIDx}
}

// Rig is one assembled experiment: a cluster plus a per-client array
// view for the chosen architecture.
type Rig struct {
	C        *cluster.Cluster
	System   System
	Arrays   []raid.Array // indexed by client
	Nodes    []int        // client -> node placement
	RAIDxOpt core.Options
}

// NewRig builds a cluster and per-client arrays. Clients are placed
// round-robin over the nodes, as on the Trojans testbed where every
// host runs both a client and a CDD.
func NewRig(p cluster.Params, sys System, clients int, opt core.Options) (*Rig, error) {
	if clients < 1 {
		return nil, fmt.Errorf("bench: %d clients", clients)
	}
	c := cluster.New(p)
	r := &Rig{C: c, System: sys, RAIDxOpt: opt}
	var nfsSrv *nfssim.Server
	if sys == NFS {
		var err error
		nfsSrv, err = nfssim.NewServer(c, 0)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < clients; i++ {
		node := i % p.Nodes
		r.Nodes = append(r.Nodes, node)
		var (
			arr raid.Array
			err error
		)
		switch sys {
		case NFS:
			arr = nfsSrv.ClientArray(node)
		case RAID0:
			arr, err = raid.NewRAID0(c.DevView(node))
		case RAID5:
			arr, err = raid.NewRAID5(c.DevView(node))
		case AFRAID:
			arr, err = raid.NewAFRAID(c.DevView(node))
		case RAID10:
			arr, err = raid.NewRAID10(c.DevView(node))
		case Chained:
			arr, err = raid.NewChained(c.DevView(node))
		case RAIDx:
			arr, err = core.New(c.DevView(node), p.Nodes, p.DisksPerNode, opt)
		default:
			err = fmt.Errorf("bench: unknown system %q", sys)
		}
		if err != nil {
			return nil, err
		}
		r.Arrays = append(r.Arrays, arr)
	}
	return r, nil
}

// Prefill writes pattern data over the first n logical blocks without
// charging any virtual time (administrative access), so read benchmarks
// start from populated, redundant storage.
func (r *Rig) Prefill(blocks int64) error {
	if blocks > r.Arrays[0].Blocks() {
		return fmt.Errorf("bench: prefill %d blocks exceeds capacity %d", blocks, r.Arrays[0].Blocks())
	}
	bs := r.Arrays[0].BlockSize()
	buf := prefillPattern(bs)
	ctx := context.Background()
	for b := int64(0); b < blocks; b += prefillChunk {
		n := int64(prefillChunk)
		if b+n > blocks {
			n = blocks - b
		}
		if err := r.Arrays[0].WriteBlocks(ctx, b, buf[:n*int64(bs)]); err != nil {
			return err
		}
	}
	return r.Arrays[0].Flush(ctx)
}

// prefillChunk is how many blocks one Prefill write covers: logical
// block b holds block b%prefillChunk of prefillPattern.
const prefillChunk = 512

// prefillPattern is the data of one Prefill write of blocks of bs bytes.
func prefillPattern(bs int) []byte {
	buf := make([]byte, prefillChunk*bs)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	return buf
}

// ClientWork is a workload body run by each simulated client.
type ClientWork func(ctx context.Context, client int, arr raid.Array) error

// RunClients spawns one process per client, synchronizes them on a
// barrier (the paper's MPI_Barrier), runs the workload, and returns the
// makespan — the time from release to the last client's completion.
func (r *Rig) RunClients(work ClientWork) (time.Duration, error) {
	s := r.C.Sim
	barrier := vclock.NewBarrier(s, "start", len(r.Arrays))
	var makespan time.Duration
	errs := make([]error, len(r.Arrays))
	for i := range r.Arrays {
		i := i
		s.Spawn(fmt.Sprintf("client%d", i), func(p *vclock.Proc) {
			barrier.Wait(p)
			start := p.Now()
			ctx := vclock.With(context.Background(), p)
			errs[i] = work(ctx, i, r.Arrays[i])
			if d := p.Now() - start; d > makespan {
				makespan = d
			}
		})
	}
	if err := s.Run(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return makespan, nil
}
