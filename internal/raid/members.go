package raid

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/trace"
)

// MemberView is one immutable snapshot of an array's member table. An
// operation loads it once at entry and makes every copy choice against
// it, so a hot-swap or a finishing rebuild never changes the table under
// an operation in flight.
type MemberView struct {
	// Devs is the table itself: treat it as read-only. Columns an engine
	// retired may be nil.
	Devs []Dev
	m    *Members // whose intent log says which members are blank
	// names are the members' span subjects ("d3"), formatted once so that
	// recording a span formats nothing.
	names []string
}

// unreadable is why member i serves no read.
func (v *MemberView) unreadable(i int) error { return fmt.Errorf("member %s not readable", v.names[i]) }

// subjects returns the span subjects of n members.
func subjects(n int) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = fmt.Sprintf("d%d", i)
	}
	return s
}

// Readable reports whether member i may serve reads — foreground reads,
// read-modify-write pre-reads and repair sources alike: the device must
// answer and must not be blank (intent.Log.Blank; a member that merely
// missed writes serves the blocks it did not miss, see Members.fresh).
// Writes land on a blank member too.
func (v *MemberView) Readable(i int) bool {
	return v.Devs[i] != nil && v.Devs[i].Healthy() && !v.m.il.Blank(i)
}

// Members is the copy-on-write member table every engine keeps its
// devices in. The run issuers (plan.go) move a request's blocks through
// it, and the repair loop (restore.go) finds there what it needs besides
// the engine's Reconstruct: the write-intent log, the event log, the
// tracer and the progress gauges.
type Members struct {
	name   string
	bs     int
	blocks int64 // physical blocks of a member the array uses

	view atomic.Pointer[MemberView]
	mu   sync.Mutex // serializes edits of the table
	win  Window     // over (member, physical block) spans

	il     *intent.Log
	events *obs.EventLog
	tracer *trace.Tracer
	// done/total are the <name>.rebuild_*_blocks gauges: progress of the
	// member under rebuild, in physical blocks.
	done, total atomic.Int64
	// The run issuers' span names: <name>.col-read and so on.
	spanRead, spanWrite, spanMirror, spanFailover, spanDegraded string
	// failovers counts the runs whose read erred and failed over to the
	// blocks' other copy; degraded, and notify when set, the blocks a read
	// served through redundancy because their member was unreadable.
	failovers, degraded *obs.Counter
	notify              func(blocks int)
}

// NewMembers builds the member table of the array called name over devs,
// each of which must offer blocks blocks of bs bytes. It keeps a private
// write-intent log until Attach hands it the one the supervisor persists:
// both track every block alike.
func NewMembers(name string, devs []Dev, bs int, blocks int64) *Members {
	m := &Members{name: name, bs: bs, blocks: blocks, spanRead: name + ".col-read", spanWrite: name + ".col-write",
		spanMirror: name + ".mirror-write", spanFailover: name + ".failover", spanDegraded: name + ".degraded-read",
		il: intent.NewLog(len(devs), blocks, 0)}
	m.view.Store(&MemberView{Devs: append([]Dev(nil), devs...), m: m, names: subjects(len(devs))})
	return m
}

// Attach hands the table the array's services, any of which may be nil:
// the write-intent log the supervisor persists (nil keeps the private
// one), the registry that
// receives the failover, swap, rebuild and resync events, the read
// counters and the rebuild gauges, and the tracer for repair spans. Call
// it before the array takes I/O.
func (m *Members) Attach(il *intent.Log, reg *obs.Registry, tr *trace.Tracer) {
	if il != nil {
		m.il = il
	}
	m.events, m.tracer = reg.Events(), tr
	m.il.Grow(len(m.Load().Devs))
	m.failovers, m.degraded = reg.Counter(m.name+".failover_reads"), reg.Counter(m.name+".degraded_reads")
	reg.RegisterGauge(m.name+".rebuild_done_blocks", m.done.Load)
	reg.RegisterGauge(m.name+".rebuild_total_blocks", m.total.Load)
}

// SetDegradedNotify is the engines' DegradedNotifier: fn hears of the
// blocks a read served through redundancy because their member was
// unreadable. Set it before the array takes I/O; fn must be safe for
// concurrent calls.
func (m *Members) SetDegradedNotify(fn func(blocks int)) { m.notify = fn }

// Load returns the current snapshot of the table.
func (m *Members) Load() *MemberView { return m.view.Load() }

// Intent returns the array's write-intent log, in which engines mark the
// member blocks whose copy missed a write (skipped, failed, blank), so
// that reads and repairs route around them and a delta resync replays
// them when the device returns.
func (m *Members) Intent() *intent.Log { return m.il }

// fresh reports whether member d may serve physical blocks [phys,
// phys+n) ahead of any other copy: it is readable and missed no write
// there. On a member with no missed block it takes no lock.
func (m *Members) fresh(v *MemberView, d int, phys, n int64) bool {
	return v.Readable(d) && !m.il.Missed(d, phys, n)
}

// Window returns the members' physical window (see Window).
func (m *Members) Window() *Window { return &m.win }

// edit publishes a copy of the table changed by fn. Callers hold m.mu.
func (m *Members) edit(fn func(*MemberView)) {
	cur := m.Load()
	next := &MemberView{Devs: append([]Dev(nil), cur.Devs...), m: m, names: cur.names}
	fn(next)
	m.view.Store(next)
}

func (m *Members) fits(dev Dev) error {
	if dev.BlockSize() != m.bs || dev.NumBlocks() < m.blocks {
		return fmt.Errorf("%s: device geometry %dx%d does not match %dx%d",
			m.name, dev.BlockSize(), dev.NumBlocks(), m.bs, m.blocks)
	}
	return nil
}

// Swap replaces member idx (typically a failed disk) with a hot spare of
// matching geometry and returns the previous device; it is every engine's
// SwapDev. The spare is published already blank in the intent log, so
// no reader may ever see it as a valid source before a rebuild commits
// it. dev may be the
// member's own device, emptied in place (a Disk.Replace): that is how an
// in-process caller tells the engine its member went blank. Concurrent
// swaps serialize.
func (m *Members) Swap(idx int, dev Dev) (Dev, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.Load().Devs
	if idx < 0 || idx >= len(cur) {
		return nil, fmt.Errorf("%s: swap of device %d out of range", m.name, idx)
	}
	if err := m.fits(dev); err != nil {
		return nil, err
	}
	m.il.MarkBlank(idx)
	m.edit(func(v *MemberView) { v.Devs[idx] = dev })
	detail := "hot spare installed"
	if cur[idx] == dev {
		detail = "device emptied in place"
	}
	m.events.Append(obs.EventSwap, fmt.Sprintf("%s/d%d", m.name, idx), detail)
	return cur[idx], nil
}

// Append widens the table, and the intent log with it, by devs (an
// online grow). New members miss nothing: nothing maps to them until
// the engine's migration copies blocks over.
func (m *Members) Append(devs []Dev) error {
	for _, d := range devs {
		if err := m.fits(d); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.edit(func(v *MemberView) {
		v.Devs = append(v.Devs, devs...)
		v.names = subjects(len(v.Devs))
	})
	m.il.Grow(len(m.Load().Devs))
	return nil
}
