package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Sampler defaults: one sample per second, two minutes of history, with
// rates (and SLO burns) derived over 10s and 60s windows.
const (
	DefaultSampleInterval = time.Second
	DefaultSampleCapacity = 120
)

// DefaultWindows are the lookback windows Series derives rates and
// windowed percentiles over when the config leaves Windows nil; the first
// and last are also an attached SLO's fast and slow burn windows.
var DefaultWindows = []time.Duration{10 * time.Second, time.Minute}

// SamplerConfig tunes a Sampler. Zero values take the defaults above.
type SamplerConfig struct {
	// Interval between background samples.
	Interval time.Duration
	// Capacity is the ring length: how many samples are retained.
	Capacity int
	// Windows are the lookbacks Series reports rates over. An attached
	// SLO burns over the first (fast) and the last (slow). A window
	// spans window/Interval samples, clamped to the retained ring.
	Windows []time.Duration
}

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultSampleInterval
	}
	if c.Capacity < 2 {
		c.Capacity = DefaultSampleCapacity
	}
	if len(c.Windows) == 0 {
		c.Windows = DefaultWindows
	}
	return c
}

// scalarRing holds one counter's or gauge's sampled values, slot-aligned
// with the sampler's shared time ring.
type scalarRing struct {
	vals  []int64
	last  uint64 // sample sequence of the most recent write
	valid int    // slots written so far, capped at capacity
}

// histRing holds one histogram's sampled snapshots.
type histRing struct {
	vals  []HistogramSnapshot
	last  uint64
	valid int
}

// Sampler periodically snapshots a Registry into fixed-size rings and
// derives windowed rates from them: ops/s and MB/s from counters,
// windowed percentiles from histogram deltas. All ring storage is
// allocated when an instrument is first seen; steady-state sampling is
// ring writes plus atomic loads, with no per-tick allocation (beyond a
// reused scratch slice for gauge callbacks). The SLOs attached with
// NewSLOTracker are evaluated after every sample. A nil *Sampler is inert.
type Sampler struct {
	reg *Registry
	cfg SamplerConfig

	mu       sync.Mutex
	times    []int64 // unix-nano per slot
	head     int     // next slot to write
	n        int     // slots filled, capped at capacity
	seq      uint64  // total samples taken
	counters map[string]*scalarRing
	gauges   map[string]*scalarRing
	hists    map[string]*histRing

	gaugeScratch []gaugeSample
	slos         []*SLOTracker

	stop chan struct{}
	done chan struct{}
}

type gaugeSample struct {
	name string
	g    Gauge
}

// NewSampler builds a sampler over reg. Call Start to begin background
// sampling, or SampleNow from a test clock.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if reg == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Sampler{
		reg:      reg,
		cfg:      cfg,
		times:    make([]int64, cfg.Capacity),
		counters: map[string]*scalarRing{},
		gauges:   map[string]*scalarRing{},
		hists:    map[string]*histRing{},
	}
}

// Start launches the background sampling goroutine. Starting a started
// sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SampleNow()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts background sampling and waits for the goroutine to exit.
// The rings stay readable.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SampleNow takes one sample immediately: every registry instrument is
// read into its ring slot. Instruments created since the last sample get
// rings lazily; instruments removed (unregistered gauges) simply stop
// updating and age out of Series. Then every attached SLO evaluates.
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.seq++
	slot := s.head
	s.times[slot] = time.Now().UnixNano()

	r := s.reg
	r.mu.RLock()
	for name, c := range r.counters {
		s.scalarLocked(s.counters, name).write(slot, c.Value(), s.seq)
	}
	for name, h := range r.hists {
		rg := s.hists[name]
		if rg == nil {
			rg = &histRing{vals: make([]HistogramSnapshot, s.cfg.Capacity)}
			s.hists[name] = rg
		}
		rg.vals[slot] = h.Snapshot()
		rg.last = s.seq
		if rg.valid < s.cfg.Capacity {
			rg.valid++
		}
	}
	s.gaugeScratch = s.gaugeScratch[:0]
	for name, g := range r.gauges {
		s.gaugeScratch = append(s.gaugeScratch, gaugeSample{name, g})
	}
	r.mu.RUnlock()
	// Gauge callbacks run outside the registry lock (they may take
	// component locks of their own).
	for _, gs := range s.gaugeScratch {
		s.scalarLocked(s.gauges, gs.name).write(slot, gs.g(), s.seq)
	}

	s.head = (s.head + 1) % s.cfg.Capacity
	if s.n < s.cfg.Capacity {
		s.n++
	}
	slos := s.slos
	s.mu.Unlock()
	// Outside the lock: a tracker re-reads the rings, and its slo.*
	// gauges, sampled above, take its own lock.
	for _, t := range slos {
		t.eval()
	}
}

func (s *Sampler) scalarLocked(m map[string]*scalarRing, name string) *scalarRing {
	rg := m[name]
	if rg == nil {
		rg = &scalarRing{vals: make([]int64, s.cfg.Capacity)}
		m[name] = rg
	}
	return rg
}

func (rg *scalarRing) write(slot int, v int64, seq uint64) {
	rg.vals[slot] = v
	rg.last = seq
	if rg.valid < len(rg.vals) {
		rg.valid++
	}
}

// samples is the number of sampling intervals a window spans (at least 1).
func (s *Sampler) samples(window time.Duration) int {
	return max(int(window/s.cfg.Interval), 1)
}

// lookbackLocked translates a window into a slot pair: the latest slot
// and the slot window/Interval samples earlier (clamped to available
// history). ok is false with fewer than two comparable samples.
func (s *Sampler) lookbackLocked(valid int, window time.Duration) (last, past int, elapsed time.Duration, ok bool) {
	avail := min(s.n, valid)
	if avail < 2 {
		return 0, 0, 0, false
	}
	k := min(s.samples(window), avail-1)
	cap := s.cfg.Capacity
	last = (s.head - 1 + cap) % cap
	past = (last - k + 2*cap) % cap
	elapsed = time.Duration(s.times[last] - s.times[past])
	if elapsed <= 0 {
		return 0, 0, 0, false
	}
	return last, past, elapsed, true
}

// CounterSeries is one counter's derived view: current value plus its
// per-second rates over the configured windows.
type CounterSeries struct {
	Value int64     `json:"value"`
	Rates []float64 `json:"rates_per_s"`
}

// GaugeSeries is one gauge's derived view over the retained ring.
type GaugeSeries struct {
	Value int64 `json:"value"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// HistSeries is one histogram's derived view: cumulative stats plus
// windowed stats (percentiles over just the window's observations),
// aligned with Series.Windows.
type HistSeries struct {
	Cum      HistogramStats   `json:"cum"`
	Windowed []HistogramStats `json:"windowed"`
}

// Series is the document served at /stats/series: windowed derived
// rates for every live instrument.
type Series struct {
	Time       time.Time                `json:"time"`
	Interval   time.Duration            `json:"interval_ns"`
	Samples    int                      `json:"samples"`
	Windows    []time.Duration          `json:"windows_ns"`
	Counters   map[string]CounterSeries `json:"counters,omitempty"`
	Gauges     map[string]GaugeSeries   `json:"gauges,omitempty"`
	Histograms map[string]HistSeries    `json:"histograms,omitempty"`
}

// Series derives the windowed view from the rings. Instruments that
// stopped updating (unregistered gauges) are dropped.
func (s *Sampler) Series() Series {
	out := Series{Time: time.Now()}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Interval = s.cfg.Interval
	out.Samples = s.n
	out.Windows = append([]time.Duration(nil), s.cfg.Windows...)
	cap := s.cfg.Capacity
	lastSlot := (s.head - 1 + cap) % cap

	out.Counters = make(map[string]CounterSeries, len(s.counters))
	for name, rg := range s.counters {
		if rg.last != s.seq {
			continue
		}
		cs := CounterSeries{Value: rg.vals[lastSlot], Rates: make([]float64, len(s.cfg.Windows))}
		for i, w := range s.cfg.Windows {
			if last, past, elapsed, ok := s.lookbackLocked(rg.valid, w); ok {
				cs.Rates[i] = float64(rg.vals[last]-rg.vals[past]) / elapsed.Seconds()
			}
		}
		out.Counters[name] = cs
	}
	out.Gauges = make(map[string]GaugeSeries, len(s.gauges))
	for name, rg := range s.gauges {
		if rg.last != s.seq {
			continue
		}
		gs := GaugeSeries{Value: rg.vals[lastSlot], Min: rg.vals[lastSlot], Max: rg.vals[lastSlot]}
		avail := s.n
		if rg.valid < avail {
			avail = rg.valid
		}
		for k := 0; k < avail; k++ {
			v := rg.vals[(lastSlot-k+2*cap)%cap]
			if v < gs.Min {
				gs.Min = v
			}
			if v > gs.Max {
				gs.Max = v
			}
		}
		out.Gauges[name] = gs
	}
	out.Histograms = make(map[string]HistSeries, len(s.hists))
	for name, rg := range s.hists {
		if rg.last != s.seq {
			continue
		}
		hs := HistSeries{Cum: rg.vals[lastSlot].Summary(), Windowed: make([]HistogramStats, len(s.cfg.Windows))}
		for i, w := range s.cfg.Windows {
			if last, past, _, ok := s.lookbackLocked(rg.valid, w); ok {
				hs.Windowed[i] = rg.vals[last].Sub(rg.vals[past]).Summary()
			}
		}
		out.Histograms[name] = hs
	}
	return out
}

// WriteJSON writes the derived series to w (the /stats/series body).
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Series())
}
