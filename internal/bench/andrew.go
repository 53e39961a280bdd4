package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/andrew"
	"repro/internal/cdd"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/vclock"
)

// AndrewResult is one cell of Figure 6: per-phase elapsed time (max
// over clients) for one architecture at one client count.
type AndrewResult struct {
	System  System
	Clients int
	Phase   map[string]time.Duration
	Total   time.Duration
}

// AndrewOpts tune the file system under the benchmark (the lock- and
// cache-granularity ablations).
type AndrewOpts struct {
	// FSGroups is the number of FS allocation groups (lock-group
	// granularity): 1 serializes all allocation on one lock; higher
	// values let clients allocate concurrently. 0 means the default 16.
	FSGroups int
	// CacheBlocks sizes each client's block cache (0: default,
	// negative: disabled).
	CacheBlocks int
}

// RunAndrew runs one (system, clients) Andrew cell on a fresh cluster
// with default file-system options. Every client runs the five phases
// in a private subtree of one shared file system built on the
// architecture under test; consistency comes from a shared CDD
// lock-group table whose coordinator lives on node 0 (lock traffic is
// charged on the network).
func RunAndrew(p cluster.Params, sys System, clients int, cfg andrew.Config) (AndrewResult, error) {
	return RunAndrewOpts(p, sys, clients, cfg, AndrewOpts{})
}

// RunAndrewOpts is RunAndrew with file-system tuning.
func RunAndrewOpts(p cluster.Params, sys System, clients int, cfg andrew.Config, opts AndrewOpts) (AndrewResult, error) {
	// The NFS baseline keeps capacity parity with the arrays (its lone
	// spindle is sized like the whole array) so the comparison isolates
	// performance, not disk space.
	if sys == NFS {
		p.DiskBlocks *= int64(p.Nodes * p.DisksPerNode)
	}
	rig, err := NewRig(p, sys, clients, core.Options{})
	if err != nil {
		return AndrewResult{}, err
	}
	table := cdd.NewTable()

	// Format and populate the shared source tree, untimed.
	groups := opts.FSGroups
	if groups <= 0 {
		groups = 16
	}
	setupCtx := context.Background()
	mkfsLock := fsim.NewTableLocker(table)
	rootFS, err := fsim.Mkfs(setupCtx, rig.Arrays[0], mkfsLock, "mkfs", fsim.Options{
		MaxInodes:   16384,
		Groups:      groups,
		CacheBlocks: opts.CacheBlocks,
	})
	if err != nil {
		return AndrewResult{}, err
	}
	if err := andrew.PopulateSource(setupCtx, rootFS, "/src", cfg); err != nil {
		return AndrewResult{}, err
	}

	// Mount one FS per client through that client's array view, with a
	// locker that pays two control messages to the coordinator per
	// lock/unlock operation.
	mounts := make([]*fsim.FS, clients)
	for i := 0; i < clients; i++ {
		node := rig.Nodes[i]
		lk := fsim.NewTableLocker(table)
		lk.Charge = func(ctx context.Context) {
			_ = rig.C.Net.Send(ctx, node, 0, p.ReqMsgBytes)
			_ = rig.C.Net.Send(ctx, 0, node, p.ReqMsgBytes)
		}
		fs, err := fsim.MountOptions(setupCtx, rig.Arrays[i], lk, fmt.Sprintf("client%d", i),
			fsim.Options{CacheBlocks: opts.CacheBlocks})
		if err != nil {
			return AndrewResult{}, err
		}
		mounts[i] = fs
	}

	phases := make([]andrew.PhaseTimes, clients)
	errs := make([]error, clients)
	s := rig.C.Sim
	barrier := vclock.NewBarrier(s, "andrew", clients)
	for i := 0; i < clients; i++ {
		i := i
		s.Spawn(fmt.Sprintf("andrew%d", i), func(proc *vclock.Proc) {
			barrier.Wait(proc)
			ctx := vclock.With(context.Background(), proc)
			cpu := rig.C.Nodes[rig.Nodes[i]].CPU
			phases[i], errs[i] = andrew.Run(ctx, mounts[i], cpu, fmt.Sprintf("/cl%02d", i), "/src", cfg)
		})
	}
	if err := s.Run(); err != nil {
		return AndrewResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return AndrewResult{}, err
		}
	}

	res := AndrewResult{System: sys, Clients: clients, Phase: map[string]time.Duration{}}
	for _, name := range andrew.Phases() {
		var max time.Duration
		for i := range phases {
			if d := phases[i].ByName(name); d > max {
				max = d
			}
		}
		res.Phase[name] = max
	}
	for i := range phases {
		if t := phases[i].Total(); t > res.Total {
			res.Total = t
		}
	}
	return res, nil
}
