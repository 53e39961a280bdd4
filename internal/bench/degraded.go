package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/raid"
	"repro/internal/vclock"
)

// ArrayState names the operating condition under test.
type ArrayState string

// The three states of the degraded-performance experiment.
const (
	StateNormal     ArrayState = "normal"
	StateDegraded   ArrayState = "degraded"
	StateRebuilding ArrayState = "rebuilding"
)

// DegradedResult reports foreground bandwidth in one state.
type DegradedResult struct {
	System      System
	State       ArrayState
	MBps        float64
	RebuildTime time.Duration // only for StateRebuilding
}

// DegradedSweep measures large-read bandwidth for `clients` clients in
// the normal, degraded (disk 1 failed), and rebuilding states — the
// classic question of how much a failure and its repair steal from
// foreground service. Only redundant architectures are meaningful here.
func DegradedSweep(p cluster.Params, sys System, clients int, cfg Config) ([]DegradedResult, error) {
	return degradedSweep(p, sys, clients, cfg, nil)
}

// readCheck, when non-nil, is handed what each client read: the logical
// block the read started at and the bytes it returned.
type readCheck func(state ArrayState, lb int64, got []byte)

func degradedSweep(p cluster.Params, sys System, clients int, cfg Config, check readCheck) ([]DegradedResult, error) {
	var out []DegradedResult
	for _, state := range []ArrayState{StateNormal, StateDegraded, StateRebuilding} {
		r, err := runDegraded(p, sys, clients, cfg, state, check)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", sys, state, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runDegraded(p cluster.Params, sys System, clients int, cfg Config, state ArrayState, check readCheck) (DegradedResult, error) {
	rig, err := NewRig(p, sys, clients, core.Options{})
	if err != nil {
		return DegradedResult{}, err
	}
	bs := rig.Arrays[0].BlockSize()
	region := int64((cfg.LargeBytes + bs - 1) / bs)
	need := region * int64(clients)
	if need > rig.Arrays[0].Blocks() {
		return DegradedResult{}, fmt.Errorf("workload needs %d blocks, array has %d", need, rig.Arrays[0].Blocks())
	}
	if err := rig.Prefill(need); err != nil {
		return DegradedResult{}, err
	}
	if err := rig.Arrays[0].Flush(context.Background()); err != nil {
		return DegradedResult{}, err
	}

	const victim = 1
	switch state {
	case StateDegraded:
		rig.C.Disks[victim].Fail()
	case StateRebuilding:
		rig.C.Disks[victim].Fail()
		if err := rig.C.Disks[victim].Replace(); err != nil {
			return DegradedResult{}, err
		}
		// Every client's engine keeps its own member table: each must be
		// told the member is blank, or its reads would use the emptied
		// disk before the rebuild reaches the blocks they want.
		for _, arr := range rig.Arrays {
			sw, ok := arr.(interface {
				raid.Restorer
				raid.DevSwapper
			})
			if !ok {
				return DegradedResult{}, fmt.Errorf("%s cannot swap a member", sys)
			}
			if _, err := sw.SwapDev(victim, sw.Members().Load().Devs[victim]); err != nil {
				return DegradedResult{}, err
			}
		}
	}

	var rebuildTook time.Duration
	if state == StateRebuilding {
		rb, ok := rig.Arrays[0].(raid.Rebuilder)
		if !ok {
			return DegradedResult{}, fmt.Errorf("%s cannot rebuild", sys)
		}
		rig.C.Sim.Spawn("rebuilder", func(proc *vclock.Proc) {
			ctx := vclock.With(context.Background(), proc)
			start := proc.Now()
			if err := rb.Rebuild(ctx, victim); err != nil {
				rebuildTook = -1
				return
			}
			rebuildTook = proc.Now() - start
		})
	}

	work := func(ctx context.Context, client int, arr raid.Array) error {
		buf := make([]byte, region*int64(bs))
		if err := arr.ReadBlocks(ctx, int64(client)*region, buf); err != nil {
			return err
		}
		if check != nil {
			check(state, int64(client)*region, buf)
		}
		return nil
	}
	makespan, err := rig.RunClients(work)
	if err != nil {
		return DegradedResult{}, err
	}
	if rebuildTook < 0 {
		return DegradedResult{}, fmt.Errorf("rebuild failed")
	}
	total := need * int64(bs)
	return DegradedResult{
		System:      sys,
		State:       state,
		MBps:        float64(total) / 1e6 / makespan.Seconds(),
		RebuildTime: rebuildTook,
	}, nil
}
