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

// SLO tracker defaults.
const (
	DefaultSLOBurnThreshold = 2.0
	DefaultSLOErrorBudget   = 0.01
	DefaultSLORecoverEvals  = 3
)

// SLOConfig describes one service-level objective and the feedback it
// drives. Its inputs are named instruments of the sampler's registry.
type SLOConfig struct {
	// Name tags the slo.* gauges and events ("fg-latency").
	Name string

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

	// BurnThreshold trips the SLO when the burn over BOTH of the
	// sampler's windows reaches it: the first (fast) window makes
	// feedback prompt, the last (slow) one keeps one latency spike from
	// thrashing the actuator.
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

// SLOTracker evaluates one SLO with multi-window burn rates over a
// sampler's rings, after every sample the sampler takes, and optionally
// actuates the QoS plane. A nil tracker is inert.
type SLOTracker struct {
	cfg        SLOConfig
	s          *Sampler
	fast, slow time.Duration // the sampler's first and last windows

	mu         sync.Mutex
	seq        uint64 // the sample last evaluated
	burning    bool
	fastBurn   float64
	slowBurn   float64
	healthyRun int
	baseline   int64
	lastDown   uint64 // sample of the last down-step; 0: none yet
	lastUp     uint64
}

// NewSLOTracker attaches an SLO to s: from then on every SampleNow
// evaluates it. The actuator's current rate (if any) is captured as the
// restore baseline. slo.* gauges are registered on the sampler's
// registry:
//
//	slo.<name>.fast_burn_milli, slo.<name>.slow_burn_milli,
//	slo.<name>.burning, slo.<name>.bg_rate_bps
//
// A nil sampler yields a nil tracker.
func NewSLOTracker(s *Sampler, cfg SLOConfig) *SLOTracker {
	if s == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	w := s.cfg.Windows
	t := &SLOTracker{cfg: cfg, s: s, fast: w[0], slow: w[len(w)-1]}
	if cfg.Actuator != nil {
		t.baseline = cfg.Actuator.BackgroundRate()
		if t.cfg.MinBackgroundRate <= 0 {
			t.cfg.MinBackgroundRate = max(t.baseline/16, 1)
		}
	}
	r, pre := s.reg, "slo."+cfg.Name+"."
	r.RegisterGauge(pre+"fast_burn_milli", func() int64 { return int64(t.Status().FastBurn * 1000) })
	r.RegisterGauge(pre+"slow_burn_milli", func() int64 { return int64(t.Status().SlowBurn * 1000) })
	r.RegisterGauge(pre+"burning", func() int64 {
		if t.Status().Burning {
			return 1
		}
		return 0
	})
	if cfg.Actuator != nil {
		r.RegisterGauge(pre+"bg_rate_bps", cfg.Actuator.BackgroundRate)
	}
	s.mu.Lock()
	s.slos = append(s.slos, t)
	s.mu.Unlock()
	return t
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

// eval recomputes both windows' burn rates from the sampler's rings and
// — when an actuator is configured — steps the Background rate. The
// sampler calls it after each sample, outside its lock: the slo.* gauges
// it samples take t.mu, so the rings are read first and t.mu is taken
// only after the sampler's lock is released.
func (t *SLOTracker) eval() {
	s := t.s
	s.mu.Lock()
	seq := s.seq
	fast := s.burnLocked(&t.cfg, t.fast)
	slow := s.burnLocked(&t.cfg, t.slow)
	s.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.seq {
		return // a concurrent SampleNow already evaluated a newer sample
	}
	t.seq = seq
	t.fastBurn, t.slowBurn = fast, slow
	burning := fast >= t.cfg.BurnThreshold && slow >= t.cfg.BurnThreshold
	wasBurning := t.burning
	t.burning = burning

	reg, name := s.reg, t.cfg.Name
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
			(t.lastDown == 0 || seq-t.lastDown >= uint64(s.samples(t.fast))) {
			nw := max(cur/2, t.cfg.MinBackgroundRate)
			t.lastDown = seq
			act.SetBackgroundRate(nw)
			reg.Event(EventQoSStep, name, fmt.Sprintf("bg rate %d -> %d bps (slo burning)", cur, nw))
		}
		return
	}
	t.healthyRun++
	if cur := act.BackgroundRate(); cur < t.baseline && t.healthyRun >= t.cfg.RecoverEvals &&
		(t.lastUp == 0 || seq-t.lastUp >= uint64(s.samples(t.slow))) {
		nw := min(cur*2, t.baseline)
		t.lastUp = seq
		t.healthyRun = 0
		act.SetBackgroundRate(nw)
		reg.Event(EventQoSStep, name, fmt.Sprintf("bg rate %d -> %d bps (budget recovered)", cur, nw))
	}
}

// burnLocked computes c's burn rate over the trailing window: the worse
// of the latency and error objectives, as a multiple of the error
// budget. An instrument without two samples in the ring contributes 0.
func (s *Sampler) burnLocked(c *SLOConfig, window time.Duration) float64 {
	var burn float64
	if rg := s.hists[c.LatencyHist]; rg != nil {
		if last, past, _, ok := s.lookbackLocked(rg.valid, window); ok {
			if d := rg.vals[last].Sub(rg.vals[past]); d.Count > 0 {
				burn = d.FractionAbove(c.LatencyObjective) / c.ErrorBudget
			}
		}
	}
	if ops := s.counterDeltaLocked(c.OpsCounter, window); ops > 0 {
		errs := max(s.counterDeltaLocked(c.ErrorCounter, window), 0)
		burn = max(burn, float64(errs)/float64(ops)/c.ErrorBudget)
	}
	return burn
}

// counterDeltaLocked is the named counter's increase over the trailing
// window (0 without two samples).
func (s *Sampler) counterDeltaLocked(name string, window time.Duration) int64 {
	rg := s.counters[name]
	if rg == nil {
		return 0
	}
	last, past, _, ok := s.lookbackLocked(rg.valid, window)
	if !ok {
		return 0
	}
	return rg.vals[last] - rg.vals[past]
}
