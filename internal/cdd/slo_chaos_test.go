package cdd_test

// SLO feedback chaos drill (DESIGN.md section 14): a background
// maintenance storm — bulk rebuild-style reads paced by the QoS
// background pacer, exactly how repair.Config.Pace wires the
// supervisor — saturates the shared node connections and inflates
// foreground latency past the SLO objective. The burn-rate tracker
// must notice on both windows and step the background rate down through
// the real qos.Scheduler actuator while the storm runs, with zero
// foreground errors. The test takes every sample itself, after each
// batch of foreground reads, so nothing waits on a ticker. What depends
// on the host's latency — the p99 coming back under the objective, the
// rate returning to baseline — is pinned step for step on a plant in
// internal/qos (TestSLOPlantStepSequence). Runs under -race in the
// obscheck CI shard.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
)

func TestSLOChaosStormFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real TCP under a background storm")
	}
	const blocks = 2048 // 2 MiB per device at 1 KiB blocks
	devs, _, _, reg := faultCluster(t, 4, 1, blocks, nil)
	a, err := core.New(devs, 4, 1, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Client-observed foreground instruments: the SLO's inputs.
	fgLat := reg.Histogram("fg.latency")
	fgOps := reg.Counter("fg.ops")
	fgErrs := reg.Counter("fg.errors")

	bs := a.BlockSize()
	if err := a.WriteBlocks(ctx, 0, make([]byte, int(a.Blocks())*bs)); err != nil {
		t.Fatal(err)
	}

	// foreground runs n small random reads on each of two readers, each
	// timed into the SLO's instruments, and returns the batch's p50.
	seed := int64(90)
	foreground := func(n int) time.Duration {
		mark := fgLat.Snapshot()
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			rng := rand.New(rand.NewSource(seed))
			seed++
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 8*bs)
				for i := 0; i < n; i++ {
					off := int64(rng.Intn(int(a.Blocks()) - 8))
					start := time.Now()
					if err := a.ReadBlocks(ctx, off, buf); err != nil {
						t.Errorf("foreground read at %d: %v", off, err)
						fgErrs.Inc()
						return
					}
					fgLat.Observe(time.Since(start))
					fgOps.Inc()
				}
			}()
		}
		wg.Wait()
		return fgLat.Snapshot().Sub(mark).Percentile(50)
	}

	// Calibrate: 3x the uncontended foreground p50 is the SLO objective.
	objective := max(3*foreground(100), time.Millisecond)

	// Storm capacity: time a fixed amount of unpaced bulk reads, so the
	// initial background rate provably saturates (2x capacity) on any
	// machine.
	const chunk, stormers = 1 << 20, 12
	stormRead := func(ctx context.Context, g int, buf []byte) error {
		return devs[g%len(devs)].ReadBlocks(ctx, 0, buf)
	}
	start := time.Now()
	var calWG sync.WaitGroup
	for g := 0; g < stormers; g++ {
		calWG.Add(1)
		go func() {
			defer calWG.Done()
			buf := make([]byte, chunk)
			for i := 0; i < 2; i++ {
				if err := stormRead(ctx, g, buf); err != nil {
					t.Errorf("unpaced storm read: %v", err)
					return
				}
			}
		}()
	}
	calWG.Wait()
	capacity := int64(float64(stormers*2*chunk) / time.Since(start).Seconds()) // bytes/sec
	initialBG := 2 * capacity
	floorBG := max(capacity/200, 1)

	sched := qos.New(qos.Config{
		BackgroundBytesPerSec: initialBG,
		BurstWindow:           20 * time.Millisecond,
		Obs:                   reg,
	})
	// Never started: the fast and slow windows span 2 and 4 samples.
	tr := obs.NewSLOTracker(reg, obs.SLOConfig{
		Name:              "fg",
		Interval:          50 * time.Millisecond,
		Windows:           []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
		LatencyHist:       "fg.latency",
		LatencyObjective:  objective,
		ErrorCounter:      "fg.errors",
		OpsCounter:        "fg.ops",
		ErrorBudget:       0.05,
		BurnThreshold:     2,
		Actuator:          sched,
		MinBackgroundRate: floorBG,
		RecoverEvals:      2,
	})
	tr.SampleNow() // the reference the storm's windows burn against

	// The storm proper: bulk reads admitted through the background
	// pacer, the same hook repair.Config.Pace uses.
	stormCtx, stopStorm := context.WithCancel(ctx)
	defer stopStorm()
	var stormWG sync.WaitGroup
	for g := 0; g < stormers; g++ {
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			buf := make([]byte, chunk)
			for sched.Wait(stormCtx, chunk) == nil && stormRead(stormCtx, g, buf) == nil {
			}
		}()
	}

	// The tracker must detect the burn and step the rate down (at least
	// two halvings below the saturating initial rate) while the storm
	// runs.
	for i := 0; sched.BackgroundRate() > initialBG/4; i++ {
		if i == 40 {
			t.Fatalf("no burn feedback after %d samples: rate %d of %d, objective %v, status %+v",
				i, sched.BackgroundRate(), initialBG, objective, tr.Status())
		}
		foreground(25)
		tr.SampleNow()
	}
	stopStorm()
	stormWG.Wait()

	if fgErrs.Value() != 0 {
		t.Fatalf("%d foreground errors during the storm, want 0", fgErrs.Value())
	}
	if rate := sched.BackgroundRate(); rate < floorBG {
		t.Errorf("rate %d below the floor %d", rate, floorBG)
	}
	if reg.Snapshot().Counters["qos.bg_bytes"] == 0 {
		t.Error("the storm was not admitted through the background bucket")
	}
	if countEvents(reg, obs.EventSLOBurn, "fg") == 0 {
		t.Error("no slo-burn event logged")
	}
	if countEvents(reg, obs.EventQoSStep, "fg") < 2 {
		t.Error("expected at least two down-step qos-step events")
	}
}
