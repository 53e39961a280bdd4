// Package workload generates synthetic mixed I/O workloads — the
// "secure E-commerce and data mining" class of applications the paper's
// Section 7 targets. A workload is a stream of block-level transactions
// with a configurable read/write mix, a Zipf-skewed hot set over the
// working set, and per-transaction sizes; the transactions experiment
// (bench.Transactions) measures the throughput and latency distribution
// each architecture delivers.
//
// Randomness is deterministic (seeded xorshift + a Zipf sampler), so
// every run is reproducible.
package workload

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Op is one generated block operation.
type Op struct {
	// Read selects the direction.
	Read bool
	// Block is the starting logical block.
	Block int64
	// Blocks is the transfer length.
	Blocks int64
}

// Config shapes the stream.
type Config struct {
	// ReadFraction in [0,1]: fraction of operations that read.
	ReadFraction float64
	// WorkingSetBlocks is the address space the workload touches.
	WorkingSetBlocks int64
	// HotSkew is the Zipf exponent over the working set (0 = uniform,
	// ~1 = classic web/OLTP skew).
	HotSkew float64
	// MaxOpBlocks bounds a single transfer (1 = pure small I/O).
	MaxOpBlocks int64
	// Ops is the number of operations per client.
	Ops int
}

// OLTP returns an e-commerce-like mix: 70% reads, strong skew, small
// transfers.
func OLTP(workingSet int64) Config {
	return Config{ReadFraction: 0.7, WorkingSetBlocks: workingSet, HotSkew: 0.9, MaxOpBlocks: 1, Ops: 64}
}

// Mining returns a data-mining-like mix: 90% reads, mild skew, larger
// scans.
func Mining(workingSet int64) Config {
	return Config{ReadFraction: 0.9, WorkingSetBlocks: workingSet, HotSkew: 0.2, MaxOpBlocks: 8, Ops: 32}
}

// Gen is a deterministic operation generator.
type Gen struct {
	cfg   Config
	state uint64
	zipf  *zipf
}

// NewGen creates a generator; distinct seeds give distinct streams.
func NewGen(cfg Config, seed uint64) *Gen {
	if cfg.WorkingSetBlocks < 1 {
		panic("workload: empty working set")
	}
	if cfg.MaxOpBlocks < 1 {
		cfg.MaxOpBlocks = 1
	}
	g := &Gen{cfg: cfg, state: seed*2654435761 + 1}
	if cfg.HotSkew > 0 {
		g.zipf = newZipf(cfg.HotSkew, cfg.WorkingSetBlocks)
	}
	return g
}

// next is xorshift64*.
func (g *Gen) next() uint64 {
	g.state ^= g.state >> 12
	g.state ^= g.state << 25
	g.state ^= g.state >> 27
	return g.state * 2685821657736338717
}

// float64 in [0,1).
func (g *Gen) f64() float64 {
	return float64(g.next()>>11) / (1 << 53)
}

// Op produces the next operation.
func (g *Gen) Op() Op {
	var blk int64
	if g.zipf != nil {
		blk = g.zipf.sample(g.f64())
	} else {
		blk = int64(g.next() % uint64(g.cfg.WorkingSetBlocks))
	}
	n := int64(1)
	if g.cfg.MaxOpBlocks > 1 {
		n = 1 + int64(g.next()%uint64(g.cfg.MaxOpBlocks))
	}
	if blk+n > g.cfg.WorkingSetBlocks {
		n = g.cfg.WorkingSetBlocks - blk
	}
	return Op{
		Read:   g.f64() < g.cfg.ReadFraction,
		Block:  blk,
		Blocks: n,
	}
}

// zipf is an inverse-CDF Zipf sampler over [0, n) with exponent s,
// using the standard harmonic approximation so construction is O(1)
// even for large n.
type zipf struct {
	s, hn float64
	n     int64
}

func newZipf(s float64, n int64) *zipf {
	return &zipf{s: s, n: n, hn: harmonicApprox(float64(n), s)}
}

// harmonicApprox ~ sum_{k=1..n} k^-s via the Euler–Maclaurin leading
// terms.
func harmonicApprox(n, s float64) float64 {
	if s == 1 {
		return math.Log(n) + 0.5772156649 + 1/(2*n)
	}
	return (math.Pow(n, 1-s)-1)/(1-s) + 0.5 + math.Pow(n, -s)/2 + s/12
}

// sample maps a uniform u in [0,1) to a rank via the inverse of the
// approximate CDF, then to a block (rank r maps to a pseudo-shuffled
// position so hot blocks spread over the address space).
func (z *zipf) sample(u float64) int64 {
	target := u * z.hn
	// Invert the continuous approximation, then clamp.
	var r float64
	if z.s == 1 {
		r = math.Exp(target - 0.5772156649)
	} else {
		r = math.Pow(target*(1-z.s)+1, 1/(1-z.s))
	}
	rank := int64(r)
	if rank < 1 {
		rank = 1
	}
	if rank > z.n {
		rank = z.n
	}
	// Spread ranks over the space with a multiplicative hash so the hot
	// set is not one contiguous run.
	return (rank * 2654435761) % z.n
}

// Latencies aggregates per-operation latencies.
type Latencies struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latencies) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Merge folds another set in.
func (l *Latencies) Merge(o *Latencies) {
	l.samples = append(l.samples, o.samples...)
	l.sorted = false
}

// N reports the sample count.
func (l *Latencies) N() int { return len(l.samples) }

// Percentile reports the p-th percentile (0 < p <= 100).
func (l *Latencies) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	idx := int(math.Ceil(p/100*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Mean reports the average latency.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

func (l *Latencies) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v",
		l.N(), l.Mean().Round(time.Microsecond),
		l.Percentile(50).Round(time.Microsecond),
		l.Percentile(95).Round(time.Microsecond),
		l.Percentile(99).Round(time.Microsecond))
}
