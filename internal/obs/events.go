package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultEventCap is the ring capacity of a registry's event log: deep
// enough to hold the interesting transitions of a chaotic episode,
// bounded so a flapping device cannot grow memory.
const DefaultEventCap = 512

// EventKind classifies a state transition in the event log.
type EventKind string

// The transitions the array records. Subjects are device identifiers
// ("addr/d0" for remote disks, disk ids server-side, "raidx" for
// array-level events).
const (
	// EventSuspect: a transport-level failure marked a device suspect;
	// the heartbeat probe is running.
	EventSuspect EventKind = "suspect"
	// EventReadmit: a probe answered and the device left the suspect
	// state (detail says whether it came back healthy).
	EventReadmit EventKind = "readmit"
	// EventDiskFailed: the peer answered with a disk-failed error; the
	// disk is down but the node is reachable.
	EventDiskFailed EventKind = "disk-failed"
	// EventRetry: an idempotent operation is being re-sent after a
	// transport failure.
	EventRetry EventKind = "retry"
	// EventFailover: a read was redirected to mirror images after the
	// primary copy failed mid-operation.
	EventFailover EventKind = "failover-read"
	// EventDegradedMount: an array was assembled with unavailable
	// members.
	EventDegradedMount EventKind = "degraded-mount"
	// EventRebuildStart / EventRebuildEnd bracket a disk rebuild.
	EventRebuildStart EventKind = "rebuild-start"
	EventRebuildEnd   EventKind = "rebuild-end"
	// EventSwap: a member device was hot-swapped.
	EventSwap EventKind = "swap"
	// EventResyncStart / EventResyncEnd bracket a delta resync: dirty
	// regions replayed to a readmitted stale mirror (detail carries the
	// region and byte counts — the evidence that a blip cost a delta,
	// not a whole-disk rebuild).
	EventResyncStart EventKind = "resync-start"
	EventResyncEnd   EventKind = "resync-end"
	// EventRepairState: the repair supervisor moved a device through its
	// state machine (detail is "from -> to" plus the trigger).
	EventRepairState EventKind = "repair-state"
	// EventSLOBurn: an SLO's burn rate crossed its threshold in both the
	// fast and slow windows (detail carries the windows and burn rates).
	EventSLOBurn EventKind = "slo-burn"
	// EventSLORecover: a burning SLO returned below threshold.
	EventSLORecover EventKind = "slo-recover"
	// EventQoSStep: SLO feedback retuned the background QoS rate
	// (detail is "old -> new bps" plus the direction and reason).
	EventQoSStep EventKind = "qos-step"
	// EventRebalanceStart / EventRebalanceEnd bracket an online
	// membership change: a layout-epoch migration moving the minimal
	// block set to the new geometry.
	EventRebalanceStart EventKind = "rebalance-start"
	EventRebalanceEnd   EventKind = "rebalance-end"
)

// eventSeq is the process-wide event sequence: one atomic counter
// shared by every EventLog, so events recorded by different components
// (engine, cdd client, manager) carry comparable sequence numbers and a
// merged view (raidxctl stats over several registries) can be put in
// true append order. Seq starts at 1.
var eventSeq atomic.Uint64

// Event is one logged state transition.
type Event struct {
	// Seq is the process-wide append sequence number (monotonic across
	// all logs, never recycled), so events from different logs merge
	// into one total order.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind EventKind `json:"kind"`
	// Subject identifies the device or array the event concerns.
	Subject string `json:"subject"`
	// Detail is a free-form explanation (the triggering error, the
	// probe outcome).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a fixed-capacity ring of Events. Appends are O(1) and
// never grow memory; once full, the oldest events are overwritten. A
// nil *EventLog discards appends and reports no events.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // total events ever appended
	drop atomic.Int64
}

// NewEventLog creates a log holding the last capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, 0, capacity)}
}

// Append records one event.
func (l *EventLog) Append(kind EventKind, subject, detail string) {
	if l == nil {
		return
	}
	e := Event{Seq: eventSeq.Add(1), Time: time.Now(), Kind: kind, Subject: subject, Detail: detail}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next%uint64(cap(l.ring))] = e
		l.drop.Add(1)
	}
	l.next++
	l.mu.Unlock()
}

// Events returns the retained events, oldest first (sorted by Seq:
// concurrent appenders may land in the ring slightly out of sequence
// order, since the sequence number is taken before the ring slot).
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		out = append(out, l.ring...)
	} else {
		start := l.next % uint64(cap(l.ring))
		out = append(out, l.ring[start:]...)
		out = append(out, l.ring[:start]...)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Total reports how many events were ever appended (including ones the
// ring has since overwritten).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Dropped reports how many events have been overwritten.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.drop.Load()
}
