package obs

import (
	"fmt"
	"sync"
	"time"
)

// Actuator is the control surface an SLO tracker drives when its
// objective burns. The QoS scheduler implements it (qos imports obs, so
// the interface lives here to keep the dependency one-way): stepping the
// background rate down slows repair/rebuild traffic, giving the
// foreground back its latency budget; stepping it back up restores
// repair bandwidth once the budget recovers.
type Actuator interface {
	// BackgroundRate reports the current background rate in
	// bytes/sec.
	BackgroundRate() int64
	// SetBackgroundRate retunes the background rate.
	SetBackgroundRate(bps int64)
}

// SLO tracker defaults: one sample per second, burning over a 10s
// (fast) and a 1m (slow) window.
const (
	DefaultSLOInterval      = time.Second
	DefaultSLOBurnThreshold = 2.0
	DefaultSLOErrorBudget   = 0.01
	DefaultSLORecoverEvals  = 3
)

// DefaultSLOWindows are the fast and slow burn windows when the config
// leaves Windows nil.
var DefaultSLOWindows = []time.Duration{10 * time.Second, time.Minute}

// SLOConfig describes one service-level objective and the feedback it
// drives. Its inputs are named instruments of the tracker's registry.
type SLOConfig struct {
	// Name tags the slo.* gauges and events ("fg-latency").
	Name string

	// Interval between background samples (Start).
	Interval time.Duration
	// Windows are the burn lookbacks: the first is the fast window, the
	// last the slow one. A window spans window/Interval samples; the
	// ring keeps just enough samples for the slow window.
	Windows []time.Duration

	// LatencyHist + LatencyObjective: observations of the named
	// histogram above the objective count against the budget.
	// CountAbove rounds whole buckets up, the conservative direction.
	// Optional (error-only SLO without it).
	LatencyHist      string
	LatencyObjective time.Duration

	// ErrorCounter / OpsCounter name the error-rate objective's
	// counters — errors per op count against the budget. Optional
	// (latency-only SLO).
	ErrorCounter string
	OpsCounter   string

	// ErrorBudget is the allowed bad fraction (default 1%). Burn rate is
	// badFraction/ErrorBudget: 1.0 means consuming budget exactly as
	// fast as allowed.
	ErrorBudget float64

	// BurnThreshold trips the SLO when the burn over BOTH windows
	// reaches it: the fast window makes feedback prompt, the slow one
	// keeps one latency spike from thrashing the actuator.
	BurnThreshold float64

	// Actuator, when set, closes the loop. Down-steps halve the
	// Background rate (at most once per fast window) to the
	// MinBackgroundRate floor; after RecoverEvals consecutive healthy
	// evaluations the rate doubles back (at most once per slow window)
	// toward the baseline captured at construction.
	Actuator          Actuator
	MinBackgroundRate int64
	RecoverEvals      int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Name == "" {
		c.Name = "slo"
	}
	if c.Interval <= 0 {
		c.Interval = DefaultSLOInterval
	}
	if len(c.Windows) == 0 {
		c.Windows = DefaultSLOWindows
	}
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = DefaultSLOErrorBudget
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = DefaultSLOBurnThreshold
	}
	if c.RecoverEvals <= 0 {
		c.RecoverEvals = DefaultSLORecoverEvals
	}
	return c
}

// SLOStatus is a point-in-time view of a tracker, for dashboards and
// tests.
type SLOStatus struct {
	Name     string  `json:"name"`
	Burning  bool    `json:"burning"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BGRate is the actuator's current Background rate (0 without one).
	BGRate int64 `json:"bg_rate_bps,omitempty"`
	// Baseline is the rate feedback restores toward.
	Baseline int64 `json:"baseline_bps,omitempty"`
}

// SLOTracker evaluates one SLO with multi-window burn rates and
// optionally actuates the QoS plane. It samples its own three inputs —
// the latency histogram and the ops and error counters — into a ring
// sized for the slow window, and evaluates after every sample. A nil
// tracker is inert.
type SLOTracker struct {
	cfg        SLOConfig
	reg        *Registry
	lat        *Histogram // nil without LatencyHist
	ops, errs  *Counter   // nil without OpsCounter / ErrorCounter
	fast, slow time.Duration

	mu         sync.Mutex
	ring       []sloSample
	head       int    // next slot to write
	n          int    // slots filled, capped at len(ring)
	seq        uint64 // samples taken
	burning    bool
	fastBurn   float64
	slowBurn   float64
	healthyRun int
	baseline   int64
	lastDown   uint64 // sample of the last down-step; 0: none yet
	lastUp     uint64

	stop chan struct{}
	done chan struct{}
}

// sloSample is one ring slot: the tracker's inputs at one instant.
type sloSample struct {
	at        int64 // unix-nano
	lat       HistogramSnapshot
	ops, errs int64
}

// NewSLOTracker builds a tracker over reg's named instruments (created
// if absent). Call Start to sample in the background, or SampleNow from
// a test clock. The actuator's current rate (if any) is captured as the
// restore baseline. slo.* gauges are registered on reg:
//
//	slo.<name>.fast_burn_milli, slo.<name>.slow_burn_milli,
//	slo.<name>.burning
//
// A nil registry yields a nil tracker.
func NewSLOTracker(reg *Registry, cfg SLOConfig) *SLOTracker {
	if reg == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	w := cfg.Windows
	t := &SLOTracker{cfg: cfg, reg: reg, fast: w[0], slow: w[len(w)-1]}
	if cfg.LatencyHist != "" {
		t.lat = reg.Histogram(cfg.LatencyHist)
	}
	if cfg.OpsCounter != "" {
		t.ops = reg.Counter(cfg.OpsCounter)
	}
	if cfg.ErrorCounter != "" {
		t.errs = reg.Counter(cfg.ErrorCounter)
	}
	t.ring = make([]sloSample, t.samples(t.slow)+1)
	if cfg.Actuator != nil {
		t.baseline = cfg.Actuator.BackgroundRate()
		if t.cfg.MinBackgroundRate <= 0 {
			t.cfg.MinBackgroundRate = max(t.baseline/16, 1)
		}
	}
	pre := "slo." + cfg.Name + "."
	reg.RegisterGauge(pre+"fast_burn_milli", func() int64 { return int64(t.Status().FastBurn * 1000) })
	reg.RegisterGauge(pre+"slow_burn_milli", func() int64 { return int64(t.Status().SlowBurn * 1000) })
	reg.RegisterGauge(pre+"burning", func() int64 {
		if t.Status().Burning {
			return 1
		}
		return 0
	})
	return t
}

// Start launches the background sampling goroutine, one sample per
// Interval. Starting a started tracker is a no-op.
func (t *SLOTracker) Start() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.stop != nil {
		t.mu.Unlock()
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	stop, done := t.stop, t.done
	t.mu.Unlock()
	go func() {
		defer close(done)
		tk := time.NewTicker(t.cfg.Interval)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				t.SampleNow()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts background sampling and waits for the goroutine to exit.
func (t *SLOTracker) Stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Status reports the tracker's current burn state.
func (t *SLOTracker) Status() SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	t.mu.Lock()
	st := SLOStatus{
		Name:     t.cfg.Name,
		Burning:  t.burning,
		FastBurn: t.fastBurn,
		SlowBurn: t.slowBurn,
		Baseline: t.baseline,
	}
	t.mu.Unlock()
	if t.cfg.Actuator != nil {
		st.BGRate = t.cfg.Actuator.BackgroundRate()
	}
	return st
}

// SampleNow takes one sample of the three inputs, recomputes both
// windows' burn rates and — when an actuator is configured — steps the
// Background rate.
func (t *SLOTracker) SampleNow() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.ring[t.head] = sloSample{at: time.Now().UnixNano(), lat: t.lat.Snapshot(), ops: t.ops.Value(), errs: t.errs.Value()}
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}

	seq := t.seq
	fast, slow := t.burnLocked(t.fast), t.burnLocked(t.slow)
	t.fastBurn, t.slowBurn = fast, slow
	burning := fast >= t.cfg.BurnThreshold && slow >= t.cfg.BurnThreshold
	wasBurning := t.burning
	t.burning = burning

	reg, name := t.reg, t.cfg.Name
	if burning && !wasBurning {
		reg.Event(EventSLOBurn, name, fmt.Sprintf("burn fast=%.2f slow=%.2f threshold=%.2f", fast, slow, t.cfg.BurnThreshold))
	}
	if !burning && wasBurning {
		reg.Event(EventSLORecover, name, fmt.Sprintf("burn fast=%.2f slow=%.2f", fast, slow))
	}

	act := t.cfg.Actuator
	if act == nil {
		return
	}
	// Steps are spaced in samples, like the windows they are paced by.
	if burning {
		t.healthyRun = 0
		if cur := act.BackgroundRate(); cur > t.cfg.MinBackgroundRate &&
			(t.lastDown == 0 || seq-t.lastDown >= uint64(t.samples(t.fast))) {
			nw := max(cur/2, t.cfg.MinBackgroundRate)
			t.lastDown = seq
			act.SetBackgroundRate(nw)
			reg.Event(EventQoSStep, name, fmt.Sprintf("bg rate %d -> %d bps (slo burning)", cur, nw))
		}
		return
	}
	t.healthyRun++
	if cur := act.BackgroundRate(); cur < t.baseline && t.healthyRun >= t.cfg.RecoverEvals &&
		(t.lastUp == 0 || seq-t.lastUp >= uint64(t.samples(t.slow))) {
		nw := min(cur*2, t.baseline)
		t.lastUp = seq
		t.healthyRun = 0
		act.SetBackgroundRate(nw)
		reg.Event(EventQoSStep, name, fmt.Sprintf("bg rate %d -> %d bps (budget recovered)", cur, nw))
	}
}

// samples is the number of sampling intervals a window spans (at least 1).
func (t *SLOTracker) samples(window time.Duration) int {
	return max(int(window/t.cfg.Interval), 1)
}

// burnLocked computes the burn rate over the trailing window: the worse
// of the latency and error objectives, as a multiple of the error
// budget. It is 0 without two comparable samples: the latest and the
// one window/Interval samples earlier, clamped to the ring.
func (t *SLOTracker) burnLocked(window time.Duration) float64 {
	if t.n < 2 {
		return 0
	}
	k := min(t.samples(window), t.n-1)
	size := len(t.ring)
	last := &t.ring[(t.head-1+size)%size]
	past := &t.ring[(t.head-1-k+2*size)%size]
	if last.at <= past.at {
		return 0
	}
	var burn float64
	if d := last.lat.Sub(past.lat); d.Count > 0 {
		burn = d.FractionAbove(t.cfg.LatencyObjective) / t.cfg.ErrorBudget
	}
	if ops := last.ops - past.ops; ops > 0 {
		errs := max(last.errs-past.errs, 0)
		burn = max(burn, float64(errs)/float64(ops)/t.cfg.ErrorBudget)
	}
	return burn
}
