package qos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSLOPlantStepSequence closes the SLO feedback loop over a plant with
// no wall clock: the test takes every sample itself, and the foreground
// latency each sample sees is a fixed function of the scheduler's live
// background rate. While a background storm runs, a rate above what the
// wire absorbs queues every foreground op behind storm chunks (10 ms);
// at or below it, and once the storm ends, ops take 100 µs. The loop
// must halve the rate while burning, stop at MinBackgroundRate even
// though one more halving was due, bring the p99 back under the
// objective with the storm still running, and double back to the
// baseline after RecoverEvals healthy evaluations once it ends — step
// for step, with slo-burn, qos-step and slo-recover events in order.
func TestSLOPlantStepSequence(t *testing.T) {
	const (
		baseline  = 64 << 20
		floor     = 6 << 20 // the 8 MiB/s -> 4 MiB/s halving clamps here
		absorbed  = 6 << 20 // storm rate the wire carries without queueing
		objective = time.Millisecond
	)
	reg := obs.NewRegistry()
	lat := reg.Histogram("fg.latency")
	ops := reg.Counter("fg.ops")
	reg.Counter("fg.errors")
	sched := New(Config{BackgroundBytesPerSec: baseline, Obs: reg})
	// Never started: windows are counted in samples, 2 (fast) and 4 (slow).
	tr := obs.NewSLOTracker(reg, obs.SLOConfig{
		Name:              "fg",
		Interval:          time.Millisecond,
		Windows:           []time.Duration{2 * time.Millisecond, 4 * time.Millisecond},
		LatencyHist:       "fg.latency",
		LatencyObjective:  objective,
		ErrorCounter:      "fg.errors",
		OpsCounter:        "fg.ops",
		ErrorBudget:       0.05,
		BurnThreshold:     2,
		Actuator:          sched,
		MinBackgroundRate: floor,
		RecoverEvals:      2,
	})

	var rates []int64
	var window obs.HistogramSnapshot // the foreground ops of the last sample
	sample := func(storm bool) {
		d := 100 * time.Microsecond
		if storm && sched.BackgroundRate() > absorbed {
			d = 10 * time.Millisecond
		}
		mark := lat.Snapshot()
		for i := 0; i < 100; i++ {
			lat.Observe(d)
			ops.Inc()
		}
		window = lat.Snapshot().Sub(mark)
		tr.SampleNow()
		rates = append(rates, sched.BackgroundRate())
	}

	sample(false) // the reference sample
	for i := 0; i < 9; i++ {
		sample(true)
	}
	if st := tr.Status(); st.Burning || window.Percentile(99) > objective {
		t.Fatalf("storm still running at %d B/s: burning %v, p99 %v, want healthy under %v",
			sched.BackgroundRate(), st.Burning, window.Percentile(99), objective)
	}
	for sched.BackgroundRate() < baseline && len(rates) < 64 {
		sample(false)
	}

	const M = 1 << 20
	want := []int64{
		64 * M,                         // reference
		32 * M, 32 * M, 16 * M, 16 * M, // storm: halve once per fast window
		8 * M, 8 * M, 6 * M, // 8 -> 4 would cross the floor
		6 * M, 6 * M, // the slow window still burns, then both clear
		12 * M, 12 * M, 12 * M, 12 * M, // storm over: RecoverEvals healthy, double
		24 * M, 24 * M, 24 * M, 24 * M, // then once per slow window
		48 * M, 48 * M, 48 * M, 48 * M,
		64 * M, // capped at the baseline
	}
	if !reflect.DeepEqual(rates, want) {
		t.Fatalf("rate after each sample (MiB/s):\n got %v\nwant %v", mib(rates), mib(want))
	}
	if g := reg.Snapshot().Gauges["qos.bg_rate_bps"]; g != baseline {
		t.Errorf("qos.bg_rate_bps = %d, want the restored baseline %d", g, baseline)
	}

	var kinds []obs.EventKind
	for _, e := range reg.Events().Events() {
		if e.Subject == "fg" {
			kinds = append(kinds, e.Kind)
		}
	}
	burn, step, recov := obs.EventSLOBurn, obs.EventQoSStep, obs.EventSLORecover
	wantKinds := []obs.EventKind{burn, step, step, step, step, recov, step, step, step, step}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("events %v, want %v", kinds, wantKinds)
	}
}

func mib(rates []int64) []int64 {
	out := make([]int64, len(rates))
	for i, r := range rates {
		out[i] = r >> 20
	}
	return out
}
