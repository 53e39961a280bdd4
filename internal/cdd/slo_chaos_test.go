package cdd_test

// SLO feedback chaos drill (DESIGN.md section 14): a background
// maintenance storm — bulk rebuild-style reads paced by the QoS
// background pacer, exactly how repair.Config.Pace wires the
// supervisor — saturates the shared node connections and inflates
// foreground latency past the SLO objective. The burn-rate tracker
// must notice on both windows, step the background rate down through
// the real qos.Scheduler actuator until the foreground p99 returns
// under the objective WHILE the storm keeps running, and step the rate
// back to baseline once the storm ends. Zero foreground errors
// throughout. Runs under -race in the obscheck CI shard.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
)

func TestSLOChaosStormFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based control-loop drill")
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

	// Foreground readers: small random reads, individually timed.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(90 + r)))
			buf := make([]byte, 8*bs)
			for {
				select {
				case <-done:
					return
				default:
				}
				off := int64(rng.Intn(int(a.Blocks()) - 8))
				start := time.Now()
				err := a.ReadBlocks(ctx, off, buf)
				d := time.Since(start)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					t.Errorf("foreground read at %d: %v", off, err)
					fgErrs.Inc()
					return
				}
				fgLat.Observe(d)
				fgOps.Inc()
			}
		}()
	}

	// windowP99 reports the p99 of the observations since prev.
	windowP99 := func(prev obs.HistogramSnapshot) (time.Duration, int64) {
		delta := fgLat.Snapshot().Sub(prev)
		return delta.Percentile(0.99), delta.Count
	}

	// Calibrate: uncontended foreground p99 sets the SLO objective.
	calStart := fgLat.Snapshot()
	time.Sleep(500 * time.Millisecond)
	baseP99, calOps := windowP99(calStart)
	if calOps == 0 {
		t.Fatal("no foreground ops during calibration")
	}
	objective := 3 * baseP99
	if objective < time.Millisecond {
		objective = time.Millisecond
	}

	// Storm capacity: run the bulk readers unpaced briefly, so the
	// initial background rate provably saturates (2x capacity) on any
	// machine, and the floor provably does not (capacity/50).
	const chunk = 1 << 20
	stormRead := func(g int, buf []byte) error {
		return devs[g%len(devs)].ReadBlocks(ctx, 0, buf)
	}
	var calBytes atomic.Int64
	calStop := make(chan struct{})
	var calWG sync.WaitGroup
	for g := 0; g < 12; g++ {
		g := g
		calWG.Add(1)
		go func() {
			defer calWG.Done()
			buf := make([]byte, chunk)
			for {
				select {
				case <-calStop:
					return
				default:
				}
				if err := stormRead(g, buf); err != nil {
					return
				}
				calBytes.Add(chunk)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(calStop)
	calWG.Wait()
	capacity := calBytes.Load() * 1000 / 300 // bytes/sec
	if capacity < 4*chunk {
		t.Fatalf("implausible storm capacity %d B/s", capacity)
	}
	initialBG := 2 * capacity
	// The floor must leave storm collisions rarer than 1 in 100
	// foreground ops, or the p99 never clears the objective.
	floorBG := capacity / 200
	if floorBG < 1 {
		floorBG = 1
	}

	sched := qos.New(qos.Config{
		BackgroundBytesPerSec: initialBG,
		BurstWindow:           20 * time.Millisecond,
		Obs:                   reg,
	})
	// The SLO burns over the sampler's 250ms (fast) and 1s (slow)
	// windows, evaluated after every 50ms sample.
	sampler := obs.NewSampler(reg, obs.SamplerConfig{
		Interval: 50 * time.Millisecond,
		Capacity: 64,
		Windows:  []time.Duration{250 * time.Millisecond, time.Second},
	})
	tr := obs.NewSLOTracker(sampler, obs.SLOConfig{
		Name:              "fg",
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
	sampler.Start()
	defer sampler.Stop()

	// The storm proper: bulk reads admitted through the background
	// pacer, the same hook repair.Config.Pace uses.
	stormStop := make(chan struct{})
	var stormWG sync.WaitGroup
	for g := 0; g < 12; g++ {
		g := g
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			buf := make([]byte, chunk)
			for {
				select {
				case <-stormStop:
					return
				default:
				}
				if sched.Wait(ctx, chunk) != nil {
					return
				}
				if err := stormRead(g, buf); err != nil {
					return
				}
			}
		}()
	}

	// Phase 1: the tracker must detect the burn and step the rate down
	// (at least two halvings below the saturating initial rate).
	deadline := time.Now().Add(30 * time.Second)
	for sched.BackgroundRate() > initialBG/4 {
		if time.Now().After(deadline) {
			st := tr.Status()
			t.Fatalf("no burn feedback: rate %d of %d, status %+v", sched.BackgroundRate(), initialBG, st)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 2: with the storm STILL RUNNING at the stepped-down rate,
	// the foreground p99 must come back under the objective.
	deadline = time.Now().Add(30 * time.Second)
	for {
		mark := fgLat.Snapshot()
		time.Sleep(500 * time.Millisecond)
		p99, n := windowP99(mark)
		if n >= 100 && p99 <= objective {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fg p99 %v never returned under objective %v (rate %d, window %d ops)",
				p99, objective, sched.BackgroundRate(), n)
		}
	}

	// Phase 3: storm over — the budget recovers and the feedback
	// restores the background rate all the way to baseline.
	close(stormStop)
	stormWG.Wait()
	deadline = time.Now().Add(45 * time.Second)
	for sched.BackgroundRate() < initialBG || tr.Status().Burning {
		if time.Now().After(deadline) {
			t.Fatalf("rate never recovered: %d of %d, status %+v", sched.BackgroundRate(), initialBG, tr.Status())
		}
		time.Sleep(50 * time.Millisecond)
	}

	close(done)
	wg.Wait()
	if fgErrs.Value() != 0 {
		t.Fatalf("%d foreground errors during the storm, want 0", fgErrs.Value())
	}
	if countEvents(reg, obs.EventSLOBurn, "fg") == 0 {
		t.Error("no slo-burn event logged")
	}
	if countEvents(reg, obs.EventSLORecover, "fg") == 0 {
		t.Error("no slo-recover event logged")
	}
	if countEvents(reg, obs.EventQoSStep, "fg") < 2 {
		t.Error("expected at least a down-step and an up-step qos-step event")
	}
	// The live gauges told the story too: bg rate is back at baseline.
	if g := reg.Snapshot().Gauges["qos.bg_rate_bps"]; g != initialBG {
		t.Errorf("qos.bg_rate_bps gauge = %d, want restored baseline %d", g, initialBG)
	}
}
