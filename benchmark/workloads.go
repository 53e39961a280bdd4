package main

import (
	"context"
	"fmt"
	"time"

	raidx "repro"
)

// env is what one run of one workload is given.
type env struct {
	seed    uint64
	clients int
	// tr is nil with tracing off. With tracing on, engines are built
	// over tracedDevs, workloads call a tracedArray, and the session
	// workload attaches obs to its connections and sessions.
	tr  *tracer
	obs *raidx.MetricsRegistry
	acc account
}

// windowResult is what one timed window of a workload produced.
type windowResult struct {
	// rounds[i] holds the i-th slice of every phase.
	rounds [][]seg
	// extra holds samples that are not derived from segments
	// (rebuild_mbps, fs_cycle_s, the fs phase times).
	extra samples
	// before and after bracket the I/O phases of the window (not a
	// rebuild or a verify that follows them).
	before, after counters
	ioEnd         time.Time // when after was read
	// sessBefore and sessAfter are the session registry's counters, on
	// the session workload's traced run only.
	sessBefore, sessAfter map[string]int64
}

// instance is one workload, set up and ready for timed windows.
type instance interface {
	// window runs n slices of about sliceLen for every phase. lite asks
	// for the I/O phases only: no fault injection, no rebuild.
	window(n int, sliceLen time.Duration, lite bool) windowResult
	// verify is the untimed read-back of everything the workload wrote.
	verify()
	close()
}

type workloadDef struct {
	name string
	why  string
	// phases is how many phases share the timed window; its seconds
	// are divided among them.
	phases int
	// headline is the metric tracing overhead is judged on.
	headline string
	// engine names the module behind the workload's Array, "" if the
	// workload has none to wrap.
	engine string
	setup  func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{name: "mirror_large", phases: 2 /* writes, reads */, headline: "write_mbps", engine: "core", setup: setupMirrorLarge,
		why: "sequential 64 KiB writes then reads on the OSM mirror: core fan-out and bulk transport/cdd, no parity, no cache, no fsim"},
	{name: "mirror_small", phases: 1, headline: "ops_per_s", engine: "core", setup: setupMirrorSmall,
		why: "4 KiB Zipf ops, 70% reads, straight on the mirror engine: one round trip per op, the cache-bypass twin of session_cache"},
	{name: "rs_degraded", phases: 3 /* writes, healthy reads, degraded reads; rebuilds are extra */, headline: "write_mbps", engine: "raid", setup: setupRSDegraded,
		why: "rs(8,2) volume: full-stripe writes, healthy reads, reads with 2 of 10 members failed, rebuild: the only path through parity, raid/vol and repair"},
	{name: "session_cache", phases: 1, headline: "ops_per_s", setup: setupSessionCache,
		why: "4 KiB Zipf ops through a coherent session whose region is 4x its cache: grant-guarded hits, misses and group-commit write-back"},
	{name: "fs_andrew", phases: 1, headline: "ops_per_s", engine: "core", setup: setupFSAndrew,
		why: "Andrew-style MakeDir/Copy/ScanDir/ReadAll/Remove cycle on fsim over the mirror array: the only path through the file system"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fullCheckEvery is how often a read verifies the whole payload rather
// than the stamps alone.
const fullCheckEvery = 64

// ---------------------------------------------------------------- mirror

const (
	mirrorNodes      = 4
	mirrorNodeBlocks = 16384 // 4 × 16384 × 4 KiB = 256 MiB raw, 128 MiB user
)

// mirrorRig is the OSM mirror array both mirror workloads and fs_andrew
// run on.
type mirrorRig struct {
	*rig
	engine *raidx.RAIDx
	arr    raidx.Array // engine, behind tracedArray when tracing
}

// newMirrorRig builds the array over nodeBlocks blocks per node.
func newMirrorRig(tr *tracer, nodeBlocks int64) (*mirrorRig, error) {
	r, err := newRig(mirrorNodes, nodeBlocks, tr)
	if err != nil {
		return nil, err
	}
	eng, err := raidx.NewRAIDx(r.devs, mirrorNodes, 1, raidx.Options{})
	if err != nil {
		r.close()
		return nil, err
	}
	m := &mirrorRig{rig: r, engine: eng, arr: eng}
	if tr != nil {
		m.arr = &tracedArray{inner: eng, tr: tr}
	}
	return m, nil
}

// newBlockMirror is the set-up of both mirror block workloads: the
// full-size array, prefilled, with clients issuing ioBytes per op.
func newBlockMirror(e *env, ioBytes int) (*mirrorRig, *blockIO, error) {
	r, err := newMirrorRig(e.tr, mirrorNodeBlocks)
	if err != nil {
		return nil, nil, err
	}
	m := newModel(e.seed, r.engine.Blocks())
	if err := prefill(context.Background(), r.engine, m); err != nil {
		r.close()
		return nil, nil, err
	}
	return r, newBlockIO(e, r.arr, m, e.clients, ioBytes), nil
}

// blockIO is the common shape of the block workloads: clients on
// disjoint regions of one array, a model of what every block holds.
type blockIO struct {
	e      *env
	arr    raidx.Array
	m      *model
	region int64 // blocks per client
	bufs   [][]byte
	reads  []padded[int64] // per-client read counter, for the 1-in-64 full check
}

func newBlockIO(e *env, arr raidx.Array, m *model, clients int, ioBytes int) *blockIO {
	b := &blockIO{e: e, arr: arr, m: m, region: arr.Blocks() / int64(clients), reads: make([]padded[int64], clients)}
	for c := 0; c < clients; c++ {
		b.bufs = append(b.bufs, make([]byte, ioBytes))
	}
	return b
}

// write stamps the client's buffer with the blocks' next versions and
// writes it at lb.
func (b *blockIO) write(c int, t *tally, lb int64) time.Time {
	buf := b.bufs[c]
	b.m.fillNext(lb, buf, blockSize)
	ctx, id := b.e.tr.start(context.Background(), "op.write", int64(len(buf)))
	t0 := time.Now()
	err := b.arr.WriteBlocks(ctx, lb, buf)
	t1 := time.Now()
	b.e.tr.end(id)
	t.done(kWrite, int64(len(buf)), t0, t1, 0, err)
	return t1
}

// read reads at lb into the client's buffer and verifies it.
func (b *blockIO) read(c int, t *tally, lb int64) time.Time {
	buf := b.bufs[c]
	ctx, id := b.e.tr.start(context.Background(), "op.read", int64(len(buf)))
	t0 := time.Now()
	err := b.arr.ReadBlocks(ctx, lb, buf)
	t1 := time.Now()
	b.e.tr.end(id)
	bad := 0
	if err == nil {
		b.reads[c].v++
		bad = b.m.check(lb, buf, blockSize, b.reads[c].v%fullCheckEvery == 0)
	}
	t.done(kRead, int64(len(buf)), t0, t1, bad, err)
	return t1
}

func (b *blockIO) flush() error { return b.arr.Flush(context.Background()) }

// seqCursor walks a client's region in steps of n blocks, wrapping.
type seqCursor struct{ base, size, n, pos int64 }

func (s *seqCursor) next() int64 {
	lb := s.base + s.pos
	s.pos += s.n
	if s.pos+s.n > s.size {
		s.pos = 0
	}
	return lb
}

// cursors returns one sequential cursor per client, over its region.
func (b *blockIO) cursors() []padded[seqCursor] {
	cur := make([]padded[seqCursor], len(b.bufs))
	for c := range cur {
		cur[c].v = seqCursor{base: int64(c) * b.region, size: b.region, n: int64(len(b.bufs[c]) / blockSize)}
	}
	return cur
}

type mirrorLarge struct {
	*mirrorRig
	io   *blockIO
	wcur []padded[seqCursor]
	rcur []padded[seqCursor]
}

func setupMirrorLarge(e *env) (instance, error) {
	r, io, err := newBlockMirror(e, bigIO)
	if err != nil {
		return nil, err
	}
	return &mirrorLarge{mirrorRig: r, io: io, wcur: io.cursors(), rcur: io.cursors()}, nil
}

// window alternates write and read slices, so a stretch in which the
// host is slow costs both phases the same share of their slices and not
// one of them most of its.
func (w *mirrorLarge) window(n int, sliceLen time.Duration, lite bool) windowResult {
	res := windowResult{before: w.counters()}
	for i := 0; i < n; i++ {
		wr := runSeg(sliceLen, w.io.e.clients, func(c int, t *tally) time.Time {
			return w.io.write(c, t, w.wcur[c].v.next())
		}, w.io.flush, &w.io.e.acc)
		rd := runSeg(sliceLen, w.io.e.clients, func(c int, t *tally) time.Time {
			return w.io.read(c, t, w.rcur[c].v.next())
		}, nil, &w.io.e.acc)
		res.rounds = append(res.rounds, []seg{wr, rd})
	}
	res.after, res.ioEnd = w.counters(), time.Now()
	return res
}

func (w *mirrorLarge) verify() { readBack(w.engine.ReadBlocks, w.io.m, &w.io.e.acc) }

// mixedIO is the small-op generator shared by mirror_small and
// session_cache: 70% reads, Zipf 0.9 over the client's own region.
type mixedIO struct {
	rngs []padded[rng]
	zipf []*zipf
}

const (
	readShare = 0.7
	zipfS     = 0.9
)

func newMixedIO(seed uint64, clients int, region int64) *mixedIO {
	g := &mixedIO{rngs: make([]padded[rng], clients)}
	for c := 0; c < clients; c++ {
		g.rngs[c].v = newRNG(seed, uint64(c))
		g.zipf = append(g.zipf, newZipf(int(region), zipfS, seed+uint64(c)))
	}
	return g
}

// next draws client c's next operation: a block offset in its region
// and whether it is a read.
func (g *mixedIO) next(c int) (off int64, isRead bool) {
	r := &g.rngs[c].v
	isRead = r.float() < readShare
	return int64(g.zipf[c].draw(r)), isRead
}

// rounds runs n mixed slices on io: each is a round of its own.
func (g *mixedIO) rounds(io *blockIO, n int, sliceLen time.Duration) [][]seg {
	out := make([][]seg, n)
	for i := range out {
		out[i] = []seg{runSeg(sliceLen, len(io.bufs), func(c int, t *tally) time.Time {
			off, isRead := g.next(c)
			lb := int64(c)*io.region + off
			if isRead {
				return io.read(c, t, lb)
			}
			return io.write(c, t, lb)
		}, io.flush, &io.e.acc)}
	}
	return out
}

type mirrorSmall struct {
	*mirrorRig
	io  *blockIO
	gen *mixedIO
}

func setupMirrorSmall(e *env) (instance, error) {
	r, io, err := newBlockMirror(e, blockSize)
	if err != nil {
		return nil, err
	}
	return &mirrorSmall{mirrorRig: r, io: io, gen: newMixedIO(e.seed, e.clients, io.region)}, nil
}

func (w *mirrorSmall) window(n int, sliceLen time.Duration, lite bool) windowResult {
	res := windowResult{before: w.counters()}
	res.rounds = w.gen.rounds(w.io, n, sliceLen)
	res.after, res.ioEnd = w.counters(), time.Now()
	return res
}

func (w *mirrorSmall) verify() { readBack(w.engine.ReadBlocks, w.io.m, &w.io.e.acc) }

// ----------------------------------------------------------- rs_degraded

const (
	rsNodes      = 10
	rsNodeBlocks = 4096 // one 16 MiB column per member, 128 MiB user
	rsPolicy     = "rs(8,2)"
)

// rsFailed are the members failed for the degraded phase.
var rsFailed = [2]int{2, 5}

// rsRepairCycles is how many times a window fails and rebuilds the two
// members. A rebuild is one 0.7 s call that cannot be sliced, so the only
// defence against a disturbed one is another sample.
const rsRepairCycles = 2

type rsDegraded struct {
	*rig
	e    *env
	vol  *raidx.Volume
	io   *blockIO
	wcur seqCursor
	rcur seqCursor
}

// newVolume builds nodes loopback nodes of nodeBlocks blocks and one
// pool volume with the given policy across all of them.
func newVolume(nodes int, nodeBlocks int64, policy string, tr *tracer) (*rig, *raidx.Volume, error) {
	r, err := newRig(nodes, nodeBlocks, tr)
	if err != nil {
		return nil, nil, err
	}
	pool, err := raidx.NewVolumePool(r.devs, nil)
	if err == nil {
		var pol raidx.VolumePolicy
		if pol, err = raidx.ParseVolumePolicy(policy); err == nil {
			var vol *raidx.Volume
			if vol, err = pool.Create("bench", pol, nodeBlocks); err == nil {
				return r, vol, nil
			}
		}
	}
	r.close()
	return nil, nil, err
}

// newRSVolume builds the rs(8,2) volume the workload and the ladder use.
func newRSVolume(tr *tracer) (*rig, *raidx.Volume, error) {
	return newVolume(rsNodes, rsNodeBlocks, rsPolicy, tr)
}

func setupRSDegraded(e *env) (instance, error) {
	r, vol, err := newRSVolume(e.tr)
	if err != nil {
		return nil, err
	}
	m := newModel(e.seed, vol.Blocks())
	if err := prefill(context.Background(), vol, m); err != nil {
		r.close()
		return nil, err
	}
	var arr raidx.Array = vol
	if e.tr != nil {
		arr = &tracedArray{inner: vol, tr: e.tr}
	}
	w := &rsDegraded{rig: r, e: e, vol: vol, io: newBlockIO(e, arr, m, 1, bigIO)}
	w.wcur, w.rcur = w.io.cursors()[0].v, w.io.cursors()[0].v
	return w, nil
}

// setFailed fails (or replaces with a blank disk) member i and makes
// the engine's own handle forget its cached health, which is otherwise
// served up to 100 ms stale.
func (w *rsDegraded) setFailed(i int, fail bool) error {
	var err error
	if fail {
		err = w.clients[i].FailDisk(0)
	} else {
		err = w.clients[i].ReplaceDisk(0)
	}
	w.remotes[i].InvalidateHealth()
	return err
}

// window alternates write and healthy-read slices (see mirrorLarge),
// then fails two members and reads degraded, then repairs.
func (w *rsDegraded) window(n int, sliceLen time.Duration, lite bool) windowResult {
	res := windowResult{before: w.counters(), extra: samples{}}
	acc := &w.e.acc
	write := func(c int, t *tally) time.Time { return w.io.write(c, t, w.wcur.next()) }
	read := func(c int, t *tally) time.Time { return w.io.read(c, t, w.rcur.next()) }
	for i := 0; i < n; i++ {
		res.rounds = append(res.rounds, []seg{
			runSeg(sliceLen, 1, write, w.io.flush, acc),
			runSeg(sliceLen, 1, read, nil, acc),
		})
	}
	fail := func() {
		for _, i := range rsFailed {
			acc.attempted++
			if err := w.setFailed(i, true); err != nil {
				acc.failed++
			}
		}
	}
	if !lite {
		fail()
		for i := 0; i < n; i++ {
			g := runSeg(sliceLen, 1, read, nil, acc)
			g.degraded = true
			res.rounds[i] = append(res.rounds[i], g)
		}
	}
	res.after, res.ioEnd = w.counters(), time.Now()
	if !lite {
		for cycle := 0; cycle < rsRepairCycles; cycle++ {
			if cycle > 0 {
				fail()
			}
			w.repair(&res)
		}
		acc.attempted++
		if v, ok := w.vol.Array.(raidx.Verifier); !ok || v.Verify(context.Background()) != nil {
			acc.failed++
		}
	}
	return res
}

// repair brings the failed members back one at a time — a blank
// replacement must be rebuilt before the next one is swapped in, or the
// second rebuild would decode from zeros — with one rebuild_mbps sample
// per column. The caller checks the volume's redundancy afterwards.
func (w *rsDegraded) repair(res *windowResult) {
	ctx := context.Background()
	acc := &w.e.acc
	rb, _ := w.vol.Array.(raidx.Rebuilder)
	const columnMB = float64(rsNodeBlocks*blockSize) / 1e6
	for _, i := range rsFailed {
		acc.attempted++
		if rb == nil || w.setFailed(i, false) != nil {
			acc.failed++
			continue
		}
		t0 := time.Now()
		if err := rb.Rebuild(ctx, i); err != nil {
			acc.failed++
			continue
		}
		res.extra.add("rebuild_mbps", columnMB/time.Since(t0).Seconds())
	}
}

func (w *rsDegraded) verify() { readBack(w.vol.ReadBlocks, w.io.m, &w.e.acc) }

// --------------------------------------------------------- session_cache

// sessionRegion is each client's private region: 16 MiB, four times the
// session's default 4 MiB cache, so the median op is a hit and the p99
// a miss.
const sessionRegion = 4096

type sessionCache struct {
	*rig
	e     *env
	m     *model
	gen   *mixedIO
	conns []*raidx.NodeClient
	sess  []*raidx.Session
	io    *blockIO
}

// devArray presents a set of devices of one node's disk as the one
// "array" the shared block code drives: block lb belongs to device
// lb/region, and is addressed on it as lb. With the clients' CachedDevs
// each client's region goes through its own session; with the one plain
// RemoteDev and the whole disk as its region it is the uncached path.
type devArray struct {
	devs   []raidx.Dev
	region int64
}

func (a *devArray) Name() string   { return "devs" }
func (a *devArray) BlockSize() int { return blockSize }
func (a *devArray) Blocks() int64  { return a.region * int64(len(a.devs)) }
func (a *devArray) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	return a.devs[b/a.region].ReadBlocks(ctx, b, p)
}
func (a *devArray) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	return a.devs[b/a.region].WriteBlocks(ctx, b, p)
}
func (a *devArray) Flush(ctx context.Context) error {
	for _, d := range a.devs {
		if err := d.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// openSession connects one more client to the node and opens a session
// with the shipped defaults holding an exclusive grant over
// [base, base+blocks).
func openSession(addr, owner string, base, blocks int64, reg *raidx.MetricsRegistry) (*raidx.NodeClient, *raidx.Session, error) {
	ctx := context.Background()
	conn, err := raidx.ConnectWith(ctx, addr, raidx.ConnectOptions{Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	s := raidx.NewSession(conn, owner, raidx.SessionConfig{Obs: reg})
	if err := s.AcquireBlocks(ctx, raidx.LockExclusive, 0, base, blocks); err != nil {
		s.Close()
		conn.Close()
		return nil, nil, fmt.Errorf("grant for %s: %w", owner, err)
	}
	return conn, s, nil
}

func setupSessionCache(e *env) (instance, error) {
	total := int64(e.clients) * sessionRegion
	r, err := newRig(1, total, nil)
	if err != nil {
		return nil, err
	}
	w := &sessionCache{rig: r, e: e, m: newModel(e.seed, total)}
	// Prefill through the plain uncached connection.
	plain := &devArray{devs: []raidx.Dev{r.remotes[0]}, region: total}
	if err := prefill(context.Background(), plain, w.m); err != nil {
		r.close()
		return nil, err
	}
	cached := &devArray{region: sessionRegion}
	for c := 0; c < e.clients; c++ {
		conn, s, err := openSession(r.nodes[0].Addr(), fmt.Sprintf("bench-%d", c), int64(c)*sessionRegion, sessionRegion, e.obs)
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, conn)
		w.sess = append(w.sess, s)
		cached.devs = append(cached.devs, s.Dev(0))
	}
	w.io = newBlockIO(e, cached, w.m, e.clients, blockSize)
	w.gen = newMixedIO(e.seed, e.clients, sessionRegion)
	return w, nil
}

// sessCounters reads the registry the traced run attached to the
// sessions and their connections: the sess.* counters, plus the summed
// client-side latency of remote reads and writes as "<histogram>.sum_ns".
func (w *sessionCache) sessCounters() map[string]int64 {
	if w.e.obs == nil {
		return nil
	}
	snap := w.e.obs.Snapshot()
	out := snap.Counters
	for _, name := range []string{"cdd.read_latency", "cdd.write_latency"} {
		if h, ok := snap.Histograms[name]; ok {
			out[name+".sum_ns"] = int64(h.Sum)
		}
	}
	return out
}

func (w *sessionCache) window(n int, sliceLen time.Duration, lite bool) windowResult {
	res := windowResult{before: w.counters(), sessBefore: w.sessCounters()}
	res.rounds = w.gen.rounds(w.io, n, sliceLen)
	res.after, res.sessAfter, res.ioEnd = w.counters(), w.sessCounters(), time.Now()
	return res
}

// verify flushes the sessions, then reads every block over a fresh
// uncached connection: what the node holds must equal the model.
func (w *sessionCache) verify() {
	ctx := context.Background()
	acc := &w.e.acc
	for _, s := range w.sess {
		acc.attempted++
		if err := s.Flush(ctx); err != nil {
			acc.failed++
		}
	}
	conn, err := raidx.Connect(w.nodes[0].Addr())
	acc.attempted++
	if err != nil {
		acc.failed++
		return
	}
	defer conn.Close()
	readBack(conn.Dev(0).ReadBlocks, w.m, acc)
}

func (w *sessionCache) close() {
	for _, s := range w.sess {
		s.Close()
	}
	for _, c := range w.conns {
		c.Close()
	}
	w.rig.close()
}
