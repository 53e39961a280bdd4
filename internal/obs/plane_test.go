package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestMergeSnapshotsHistogramProperty is the shard-split property:
// scatter one stream of observations across k node registries at
// random, merge the snapshots, and the cluster histogram must carry
// exactly the union's _count and _sum, with every percentile inside
// the bucket-resolution bounds of the single-registry reference.
func TestMergeSnapshotsHistogramProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(5)
		regs := make([]*Registry, k)
		for i := range regs {
			regs[i] = NewRegistry()
		}
		ref := NewRegistry() // everything, unsharded

		n := 50 + rng.Intn(500)
		var sum time.Duration
		for i := 0; i < n; i++ {
			// Spread over ~6 decades so many buckets fill.
			d := time.Duration(1+rng.Int63n(int64(10*time.Second))) / time.Duration(1+rng.Intn(1000))
			if d <= 0 {
				d = time.Microsecond
			}
			sum += d
			regs[rng.Intn(k)].Histogram("mgr.fg_latency").Observe(d)
			ref.Histogram("mgr.fg_latency").Observe(d)
		}

		snaps := make([]Snapshot, k)
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		merged := MergeSnapshots(snaps...)
		got, ok := merged.Histograms["mgr.fg_latency"]
		if !ok {
			t.Fatalf("trial %d: merged snapshot lost the histogram", trial)
		}
		want := ref.Snapshot().Histograms["mgr.fg_latency"]

		if got.Count != int64(n) {
			t.Fatalf("trial %d: merged count = %d, want %d", trial, got.Count, n)
		}
		if got.Sum != sum {
			t.Fatalf("trial %d: merged sum = %v, want %v", trial, got.Sum, sum)
		}
		// With shared bucket edges the merge is exact: identical
		// summaries to the unsharded reference.
		if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 || got.Max != want.Max {
			t.Fatalf("trial %d: merged percentiles %v/%v/%v/%v, want %v/%v/%v/%v",
				trial, got.P50, got.P95, got.P99, got.Max, want.P50, want.P95, want.P99, want.Max)
		}
		gs, gok := got.Snapshot()
		ws, wok := want.Snapshot()
		if !gok || !wok {
			t.Fatalf("trial %d: raw buckets missing after merge (merged=%v ref=%v)", trial, gok, wok)
		}
		if gs != ws {
			t.Fatalf("trial %d: merged buckets differ from reference", trial)
		}
	}
}

// TestMergeSnapshotsScalarsAndFallback covers the non-histogram merge
// semantics: counters and gauges (labeled or not) sum by full key,
// events interleave in sequence order, and histograms without raw
// buckets degrade conservatively (counts add, percentiles take the
// worse input) instead of being dropped.
func TestMergeSnapshotsScalarsAndFallback(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("mgr.fg_ops").Add(3)
	b.Counter("mgr.fg_ops").Add(4)
	a.CounterVec("qos.tenant_bytes_in", "tenant").With("alice").Add(10)
	b.CounterVec("qos.tenant_bytes_in", "tenant").With("alice").Add(5)
	b.CounterVec("qos.tenant_bytes_in", "tenant").With("bob").Add(7)
	a.RegisterGauge("sess.cache_bytes", func() int64 { return 100 })
	b.RegisterGauge("sess.cache_bytes", func() int64 { return 11 })
	a.Event(EventRetry, "d0", "")
	b.Event(EventSwap, "d1", "")

	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if got := m.Counters["mgr.fg_ops"]; got != 7 {
		t.Errorf("fg_ops = %d, want 7", got)
	}
	if got := m.Counters[LabelName("qos.tenant_bytes_in", "tenant", "alice")]; got != 15 {
		t.Errorf("alice bytes = %d, want 15", got)
	}
	if got := m.Counters[LabelName("qos.tenant_bytes_in", "tenant", "bob")]; got != 7 {
		t.Errorf("bob bytes = %d, want 7", got)
	}
	if got := m.Gauges["sess.cache_bytes"]; got != 111 {
		t.Errorf("cache_bytes = %d, want 111", got)
	}
	if len(m.Events) != 2 {
		t.Fatalf("merged %d events, want 2", len(m.Events))
	}
	if m.Events[0].Seq >= m.Events[1].Seq {
		t.Errorf("events not in sequence order: %d then %d", m.Events[0].Seq, m.Events[1].Seq)
	}

	// Old-format snapshots (no raw buckets, e.g. an older node) still
	// merge, conservatively.
	old := Snapshot{Histograms: map[string]HistogramStats{
		"mgr.fg_latency": {Count: 10, Sum: 10 * time.Millisecond, Mean: time.Millisecond, P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 2 * time.Millisecond, Max: 2 * time.Millisecond},
	}}
	c := NewRegistry()
	c.Histogram("mgr.fg_latency").Observe(8 * time.Millisecond)
	m2 := MergeSnapshots(old, c.Snapshot())
	st := m2.Histograms["mgr.fg_latency"]
	if st.Count != 11 {
		t.Errorf("fallback count = %d, want 11", st.Count)
	}
	if st.Sum != 18*time.Millisecond {
		t.Errorf("fallback sum = %v, want 18ms", st.Sum)
	}
	if st.P99 < 8*time.Millisecond {
		t.Errorf("fallback p99 = %v, want >= the worse input's", st.P99)
	}
}

// TestLabelsRoundTrip pins the canonical labeled-name encoding: With()
// and LabelName agree, SplitLabeled undoes them, and Labels/LabelValue
// recover the original (unescaped) values.
func TestLabelsRoundTrip(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("qos.tenant_bytes_in", "tenant")
	for _, tenant := range []string{"alice", "with space", `q"uote`, `back\slash`, "comma,brace}"} {
		cv.With(tenant).Inc()
		name := LabelName("qos.tenant_bytes_in", "tenant", tenant)
		snap := r.Snapshot()
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("tenant %q: LabelName %q not in snapshot", tenant, name)
		}
		base, labels := SplitLabeled(name)
		if base != "qos.tenant_bytes_in" {
			t.Errorf("tenant %q: base = %q", tenant, base)
		}
		if labels == "" {
			t.Fatalf("tenant %q: no labels split from %q", tenant, name)
		}
		if got := LabelValue(name, "tenant"); got != tenant {
			t.Errorf("LabelValue(%q) = %q, want %q", name, got, tenant)
		}
		pairs := Labels(labels)
		if len(pairs) != 1 || pairs[0][0] != "tenant" || pairs[0][1] != tenant {
			t.Errorf("Labels(%q) = %v, want [[tenant %s]]", labels, pairs, tenant)
		}
	}
	// Multi-key vec: keys render in declaration order, values parse
	// back sorted by key.
	hv := r.HistogramVec("mgr.op_latency", "op", "dev")
	hv.With("read", "d0").Observe(time.Millisecond)
	name := LabelName("mgr.op_latency", "op", "read", "dev", "d0")
	if _, ok := r.Snapshot().Histograms[name]; !ok {
		t.Fatalf("two-key histogram name %q not in snapshot", name)
	}
	if LabelValue(name, "op") != "read" || LabelValue(name, "dev") != "d0" {
		t.Errorf("two-key LabelValue mismatch on %q", name)
	}
	// Unlabeled names split cleanly.
	if base, labels := SplitLabeled("mgr.fg_ops"); base != "mgr.fg_ops" || labels != "" {
		t.Errorf("SplitLabeled(plain) = %q, %q", base, labels)
	}
	// Same vec requested twice returns the same children.
	if r.CounterVec("qos.tenant_bytes_in", "tenant").With("alice") != cv.With("alice") {
		t.Error("vec children not shared across CounterVec calls")
	}
}

// TestSLOTrackerLive runs the tracker's background sampling, with a
// fake actuator, against a concurrent workload — counters, labeled vecs,
// and histograms hammered from several goroutines while registry
// snapshots (which read the tracker's slo.* gauges) and tracker status
// are read and samples are also taken by hand — primarily as the -race
// and lock-order subject (make obscheck).
func TestSLOTrackerLive(t *testing.T) {
	r := NewRegistry()
	act := &fakeActuator{rate: 64 << 20}
	s := NewSLOTracker(r, SLOConfig{Name: "fg", Interval: time.Millisecond,
		Windows:     []time.Duration{2 * time.Millisecond, 8 * time.Millisecond},
		LatencyHist: "mgr.fg_latency", LatencyObjective: 50 * time.Microsecond,
		OpsCounter: "mgr.fg_ops", Actuator: act, RecoverEvals: 1})
	s.Start()
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("mgr.fg_ops")
			lat := r.Histogram("mgr.fg_latency")
			hv := r.HistogramVec("mgr.op_latency", "op")
			ops := []string{"read", "write"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				lat.Observe(time.Duration(i%100) * time.Microsecond)
				hv.With(ops[i%2]).ObserveTraced(time.Duration(i%100)*time.Microsecond, uint64(i))
				r.GaugeVec("qos.tenant_share_bps", "tenant").With("t0").Set(int64(i))
			}
		}(w)
	}
	deadline := time.After(60 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			_ = r.Snapshot()
			_ = s.Status()
			s.SampleNow()
		}
	}
	close(stop)
	wg.Wait()
	s.Stop()

	if r.Counter("mgr.fg_ops").Value() == 0 {
		t.Fatal("workload counted no ops")
	}
	// Half the observations are over the objective: the loop's first
	// step halved the rate. Samples that saw no ops read healthy, so by
	// now it may have doubled back; the final rate proves nothing.
	act.mu.Lock()
	defer act.mu.Unlock()
	if len(act.steps) == 0 || act.steps[0] != 32<<20 {
		t.Errorf("steps %v: the SLO never halved the rate", act.steps)
	}
}

// fakeActuator is an in-memory QoS stand-in recording every step.
type fakeActuator struct {
	mu    sync.Mutex
	rate  int64
	steps []int64
}

func (f *fakeActuator) BackgroundRate() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rate
}

func (f *fakeActuator) SetBackgroundRate(bps int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rate = bps
	f.steps = append(f.steps, bps)
}

// TestSLOBurnFeedback closes the loop against a fake actuator, driven
// sample by sample: a burst of over-objective latency trips both burn
// windows and halves the background rate (once per fast window, to the
// floor, never below); a sustained healthy period steps it back to the
// baseline.
func TestSLOBurnFeedback(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mgr.fg_latency")
	r.Counter("mgr.fg_errors")
	ops := r.Counter("mgr.fg_ops")
	act := &fakeActuator{rate: 64 << 20}
	// Windows of 5 and 20 samples: the burn horizons and the step spacing.
	tr := NewSLOTracker(r, SLOConfig{
		Name:              "fg",
		Interval:          time.Millisecond,
		Windows:           []time.Duration{5 * time.Millisecond, 20 * time.Millisecond},
		LatencyHist:       "mgr.fg_latency",
		LatencyObjective:  time.Millisecond,
		ErrorCounter:      "mgr.fg_errors",
		OpsCounter:        "mgr.fg_ops",
		ErrorBudget:       0.01,
		BurnThreshold:     2,
		Actuator:          act,
		MinBackgroundRate: 4 << 20,
		RecoverEvals:      2,
	})
	if st := tr.Status(); st.Baseline != 64<<20 || st.BGRate != 64<<20 {
		t.Fatalf("baseline/rate = %d/%d, want both 64MiB", st.Baseline, st.BGRate)
	}
	// sample observes n ops of latency lat, then takes one sample.
	sample := func(n int, lat time.Duration) SLOStatus {
		for j := 0; j < n; j++ {
			h.Observe(lat)
			ops.Inc()
		}
		tr.SampleNow()
		return tr.Status()
	}

	// Seed one healthy sample so burn windows have a reference.
	sample(50, 100*time.Microsecond)

	// Latency storm: everything over the objective.
	st := sample(200, 10*time.Millisecond)
	if !st.Burning {
		t.Fatalf("not burning after storm: %+v", st)
	}
	if st.BGRate != 32<<20 {
		t.Fatalf("first down-step rate = %d, want %d", st.BGRate, 32<<20)
	}

	// Keep burning: rate halves at most once per fast window, and
	// never below the floor.
	for i := 1; i < 5; i++ {
		if st = sample(50, 10*time.Millisecond); st.BGRate != 32<<20 {
			t.Fatalf("rate %d %d samples after the first step, want %d until a fast window has passed", st.BGRate, i, 32<<20)
		}
	}
	for i := 0; i < 6*5; i++ {
		st = sample(50, 10*time.Millisecond)
	}
	if got := act.BackgroundRate(); got != 4<<20 {
		t.Fatalf("rate after sustained burn = %d, want floor %d", got, 4<<20)
	}

	// Recovery: healthy traffic only until both windows clear, then
	// doubling back to baseline (at most once per slow window).
	for i := 0; act.BackgroundRate() < 64<<20; i++ {
		if i == 1000 {
			t.Fatalf("rate never recovered: %d", act.BackgroundRate())
		}
		st = sample(50, 100*time.Microsecond)
	}
	if st.Burning {
		t.Errorf("still burning after recovery: %+v", st)
	}
	if act.BackgroundRate() != 64<<20 {
		t.Errorf("recovered rate = %d, want baseline", act.BackgroundRate())
	}

	// Every step was a halving or doubling within [floor, baseline].
	act.mu.Lock()
	defer act.mu.Unlock()
	for _, s := range act.steps {
		if s < 4<<20 || s > 64<<20 {
			t.Errorf("step outside [floor, baseline]: %d", s)
		}
	}

	// The registry saw the transitions.
	var burn, recover, qstep bool
	for _, e := range r.Events().Events() {
		switch e.Kind {
		case EventSLOBurn:
			burn = true
		case EventSLORecover:
			recover = true
		case EventQoSStep:
			qstep = true
		}
	}
	if !burn || !recover || !qstep {
		t.Errorf("events burn=%v recover=%v qos-step=%v, want all", burn, recover, qstep)
	}
}

// TestSLOErrorBurn exercises the error-rate objective without a
// latency histogram, and the observe-only mode (no actuator).
func TestSLOErrorBurn(t *testing.T) {
	r := NewRegistry()
	errs := r.Counter("mgr.fg_errors")
	ops := r.Counter("mgr.fg_ops")
	tr := NewSLOTracker(r, SLOConfig{
		Name:          "fg",
		Interval:      time.Millisecond,
		Windows:       []time.Duration{5 * time.Millisecond, 10 * time.Millisecond},
		ErrorCounter:  "mgr.fg_errors",
		OpsCounter:    "mgr.fg_ops",
		ErrorBudget:   0.01,
		BurnThreshold: 2,
	})
	ops.Add(100)
	tr.SampleNow()
	ops.Add(100)
	errs.Add(10) // 10% errors against a 1% budget: burn 10x
	tr.SampleNow()
	st := tr.Status()
	if !st.Burning {
		t.Fatalf("error burn not detected: %+v", st)
	}
	if st.FastBurn < 2 || st.SlowBurn < 2 {
		t.Errorf("burns = %v/%v, want >= threshold", st.FastBurn, st.SlowBurn)
	}
	if st.BGRate != 0 {
		t.Errorf("observe-only tracker reports BGRate %d", st.BGRate)
	}

	// slo.* gauges exist and reflect the burn.
	snap := r.Snapshot()
	if snap.Gauges["slo.fg.burning"] != 1 {
		t.Errorf("slo.fg.burning gauge = %d, want 1", snap.Gauges["slo.fg.burning"])
	}
	if snap.Gauges["slo.fg.fast_burn_milli"] < 2000 {
		t.Errorf("fast_burn_milli = %d, want >= 2000", snap.Gauges["slo.fg.fast_burn_milli"])
	}

	// A nil tracker is inert, and a nil registry yields one.
	var nilT *SLOTracker
	if st := nilT.Status(); st.Burning {
		t.Error("nil tracker burning")
	}
	if NewSLOTracker(nil, SLOConfig{}) != nil {
		t.Error("tracker over a nil registry")
	}
}
