package cdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// Opcodes of the CDD wire protocol. There is one block-I/O family:
// OpRead and OpWrite address their blocks with an extent table and
// carry, inside the I/O header, the layout generation the sender's
// placement map was built from (0 = the base layout); a node that has
// adopted a newer generation answers CodeStaleEpoch instead of serving a
// placement computed from a retired layout (epoch.go). Flush and every
// control op stay open.
const (
	// OpInfo returns node metadata: disk count, block size, per-disk
	// capacity.
	OpInfo uint8 = iota + 1
	// OpRead reads the extents of one disk's table (see ioHeader).
	OpRead
	// OpWrite writes the extents of one disk's table, each foreground or
	// background (Extent.BG). One without a foreground extent goes as a
	// notification: the deferred mirror push.
	OpWrite
	_ // unassigned; the opcodes below keep their numbers
	// OpFlush drains background work on one disk.
	OpFlush
	// OpHealth reports whether a disk is serving requests.
	OpHealth
	// OpFail injects a disk failure (testing / fault drills).
	OpFail
	// OpReplace swaps in a blank replacement disk.
	OpReplace
	// OpLock atomically try-acquires a range group.
	OpLock
	// OpUnlock releases a range group.
	OpUnlock
	// OpUnlockAll releases everything held by an owner.
	OpUnlockAll
	_ // unassigned; the opcodes below keep their numbers
	// OpLockReplica carries a table snapshot to a peer (notification).
	OpLockReplica
	// OpStats returns one disk's cumulative operation counters.
	OpStats
	// OpObsSnapshot returns the node's observability registry as JSON:
	// counters, gauges, latency histograms, and the degraded-event log.
	OpObsSnapshot
	// OpTraceSpans returns the node's recent trace spans as JSON, so a
	// client can merge the server-side legs into its own traces
	// (raidxctl trace waterfalls).
	OpTraceSpans
	// OpIntentPut stores a write-intent snapshot under a key. The repair
	// host replicates its dirty map to every node, so a host that
	// crashes recovers the map from any survivor instead of forgetting
	// which regions were stale.
	OpIntentPut
	// OpIntentGet returns the snapshot stored under a key (empty
	// response when the node holds none).
	OpIntentGet
	// OpRepairStatus returns the node's repair-supervisor status as
	// JSON; answered with an error when no supervisor runs here.
	OpRepairStatus
	// OpRepairCtl pauses or resumes the node's repair supervisor
	// (payload: one byte, 0 = pause, 1 = resume).
	OpRepairCtl
	// OpCoherence is the client-cache heartbeat: it renews the owner's
	// lease on the lock service, acks processed invalidations, and
	// carries pending invalidation events back — the piggybacked
	// coherence channel of DESIGN.md §13.
	OpCoherence
	// OpLayout returns the node's layout view as JSON (LayoutInfo): the
	// epoch generation it enforces and, when a rebalance coordinator
	// runs here, the full epoch descriptor plus migration progress —
	// what a stale client fetches to rebuild its placement map.
	OpLayout
	// OpEpochSet installs a new array-epoch generation (8-byte payload).
	// The node adopts it only if higher than its current one and answers
	// with the generation now in force — idempotent, so the rebalance
	// coordinator broadcasts it with retries.
	OpEpochSet
	// OpRebalanceCtl asks the node's rebalance coordinator to start a
	// membership change (JSON rebalanceReq payload). Answered with an
	// error when no coordinator runs here.
	OpRebalanceCtl

	// opEnd is one past the last opcode; per-opcode tables are sized by
	// it, so a new opcode without a span name or a retry class fails
	// TestRetryableOpMatrix.
	opEnd
)

// repairCtl payload bytes.
const (
	repairCtlPause  = 0
	repairCtlResume = 1
)

// encodeKeyed frames a string key followed by an opaque body — the
// OpIntentPut/OpIntentGet payload.
func encodeKeyed(key string, body []byte) []byte {
	b := make([]byte, 0, 4+len(key)+len(body))
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = append(b, body...)
	return b
}

func decodeKeyed(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("cdd: short keyed message: %w", errBadRequest)
	}
	klen := binary.BigEndian.Uint32(b[0:4])
	b = b[4:]
	if uint32(len(b)) < klen {
		return "", nil, fmt.Errorf("cdd: truncated key: %w", errBadRequest)
	}
	return string(b[:klen]), b[klen:], nil
}

// errBadRequest marks protocol decode failures so the server can answer
// with transport.CodeBadRequest instead of a generic error.
var errBadRequest = errors.New("bad request")

// statsResp is the OpStats response.
type statsResp struct {
	Reads, Writes, BytesRead, BytesWritten int64
	Healthy                                bool
}

func encodeStats(r statsResp) []byte {
	b := make([]byte, 33)
	binary.BigEndian.PutUint64(b[0:8], uint64(r.Reads))
	binary.BigEndian.PutUint64(b[8:16], uint64(r.Writes))
	binary.BigEndian.PutUint64(b[16:24], uint64(r.BytesRead))
	binary.BigEndian.PutUint64(b[24:32], uint64(r.BytesWritten))
	if r.Healthy {
		b[32] = 1
	}
	return b
}

func decodeStats(b []byte) (statsResp, error) {
	if len(b) != 33 {
		return statsResp{}, fmt.Errorf("cdd: bad stats response length %d", len(b))
	}
	return statsResp{
		Reads:        int64(binary.BigEndian.Uint64(b[0:8])),
		Writes:       int64(binary.BigEndian.Uint64(b[8:16])),
		BytesRead:    int64(binary.BigEndian.Uint64(b[16:24])),
		BytesWritten: int64(binary.BigEndian.Uint64(b[24:32])),
		Healthy:      b[32] == 1,
	}, nil
}

// infoResp is the OpInfo response.
type infoResp struct {
	Disks     uint32
	BlockSize uint32
	Blocks    int64
}

func encodeInfo(i infoResp) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint32(b[0:4], i.Disks)
	binary.BigEndian.PutUint32(b[4:8], i.BlockSize)
	binary.BigEndian.PutUint64(b[8:16], uint64(i.Blocks))
	return b
}

func decodeInfo(b []byte) (infoResp, error) {
	if len(b) != 16 {
		return infoResp{}, fmt.Errorf("cdd: bad info response length %d", len(b))
	}
	return infoResp{
		Disks:     binary.BigEndian.Uint32(b[0:4]),
		BlockSize: binary.BigEndian.Uint32(b[4:8]),
		Blocks:    int64(binary.BigEndian.Uint64(b[8:16])),
	}, nil
}

// ioHeader prefixes OpRead/OpWrite payloads, and addresses
// the disk of the per-disk control ops (flush, health, stats, fail,
// replace), which leave Count and Gen zero and are never checked
// against them.
//
// A block op's payload starts with an extent table of Count >= 1
// descriptors. A write's data follows the table, the extents' blocks
// back to back; a read carries nothing after it, and its response is the
// extents' blocks in table order.
type ioHeader struct {
	Disk  uint32
	Count uint32
	Gen   uint64 // layout generation the sender placed this I/O with
}

const ioHeaderLen = 16

// Extent is a run of consecutive blocks on one disk; its wire form is
// block int64, blocks uint32, big-endian like the header, with BG as the
// count's top bit. A background extent — a deferred mirror image — is
// written with the disk's WriteBlocksBackground.
type Extent struct {
	Block  int64
	Blocks uint32
	BG     bool
}

const (
	extentLen = 12
	extentBG  = 1 << 31
)

func appendExtent(tab []byte, e Extent) []byte {
	tab = binary.BigEndian.AppendUint64(tab, uint64(e.Block))
	if e.BG {
		e.Blocks |= extentBG
	}
	return binary.BigEndian.AppendUint32(tab, e.Blocks)
}

func extentAt(tab []byte, i int) Extent {
	b := tab[i*extentLen:]
	n := binary.BigEndian.Uint32(b[8:12])
	return Extent{Block: int64(binary.BigEndian.Uint64(b[0:8])), Blocks: n &^ extentBG, BG: n&extentBG != 0}
}

// bgExtents counts the background extents among the first k of tab, as
// far as tab holds them.
func bgExtents(tab []byte, k uint32) int {
	n := 0
	for i := 0; i < int(min(k, uint32(len(tab)/extentLen))); i++ {
		if extentAt(tab, i).BG {
			n++
		}
	}
	return n
}

// splitExtents validates a block op's k-extent payload against a disk of
// numBlocks blocks of bs bytes and splits it into table and data; n is
// the bytes the extents span. The whole table is checked before any block
// moves: at least one extent, every extent non-empty and inside the disk,
// extents ascending without overlap. A write's data is exactly as long as
// the table says; a read has no background extent, carries no data and
// spans at most one frame.
func splitExtents(payload []byte, k uint32, bs int, numBlocks int64, read bool) (tab, data []byte, n int, err error) {
	tl := int64(k) * extentLen
	if k == 0 || tl > int64(len(payload)) {
		return nil, nil, 0, fmt.Errorf("cdd: %d-extent table in a %d-byte payload: %w", k, len(payload), errBadRequest)
	}
	tab, data = payload[:tl], payload[tl:]
	var end, total int64 // end of the previous extent; blocks so far (<= numBlocks)
	for i := 0; i < int(k); i++ {
		e := extentAt(tab, i)
		if e.Blocks == 0 || e.Block < end || e.Block > numBlocks-int64(e.Blocks) {
			return nil, nil, 0, fmt.Errorf("cdd: extent %d (%d+%d) empty, out of order or outside %d blocks: %w", i, e.Block, e.Blocks, numBlocks, errBadRequest)
		}
		if read && e.BG {
			return nil, nil, 0, fmt.Errorf("cdd: read of background extent %d: %w", i, errBadRequest)
		}
		end = e.Block + int64(e.Blocks)
		total += int64(e.Blocks)
	}
	size := total * int64(bs)
	switch {
	case read && size > transport.MaxPayload:
		return nil, nil, 0, fmt.Errorf("cdd: read of %d bytes exceeds frame limit: %w", size, errBadRequest)
	case read && len(data) != 0:
		return nil, nil, 0, fmt.Errorf("cdd: read table followed by %d data bytes: %w", len(data), errBadRequest)
	case !read && size != int64(len(data)):
		return nil, nil, 0, fmt.Errorf("cdd: extent table covers %d blocks, payload carries %d bytes: %w", total, len(data), errBadRequest)
	}
	return tab, data, int(size), nil
}

// appendIOHeader appends h's wire form to b — on the hot path into the
// pooled request scratch, ahead of the extent table.
func appendIOHeader(b []byte, h ioHeader) []byte {
	b = binary.BigEndian.AppendUint32(b, h.Disk)
	b = binary.BigEndian.AppendUint32(b, h.Count)
	return binary.BigEndian.AppendUint64(b, h.Gen)
}

func encodeIOHeader(h ioHeader, payload []byte) []byte {
	return append(appendIOHeader(make([]byte, 0, ioHeaderLen+len(payload)), h), payload...)
}

func decodeIOHeader(b []byte) (ioHeader, []byte, error) {
	if len(b) < ioHeaderLen {
		return ioHeader{}, nil, fmt.Errorf("cdd: short I/O header (%d bytes): %w", len(b), errBadRequest)
	}
	return ioHeader{
		Disk:  binary.BigEndian.Uint32(b[0:4]),
		Count: binary.BigEndian.Uint32(b[4:8]),
		Gen:   binary.BigEndian.Uint64(b[8:16]),
	}, b[ioHeaderLen:], nil
}

// lockMsg carries an owner, a grant mode, and a range group.
type lockMsg struct {
	Owner  string
	Mode   Mode
	Ranges []Range
}

func encodeLockMsg(m lockMsg) []byte {
	b := make([]byte, 0, 4+len(m.Owner)+1+4+16*len(m.Ranges))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Owner)))
	b = append(b, m.Owner...)
	b = append(b, byte(m.Mode))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Ranges)))
	for _, r := range m.Ranges {
		b = binary.BigEndian.AppendUint64(b, r.Start)
		b = binary.BigEndian.AppendUint64(b, r.End)
	}
	return b
}

func decodeLockMsg(b []byte) (lockMsg, error) {
	var m lockMsg
	if len(b) < 4 {
		return m, fmt.Errorf("cdd: short lock message: %w", errBadRequest)
	}
	olen := binary.BigEndian.Uint32(b[0:4])
	b = b[4:]
	if uint32(len(b)) < olen+5 {
		return m, fmt.Errorf("cdd: truncated lock owner: %w", errBadRequest)
	}
	m.Owner = string(b[:olen])
	b = b[olen:]
	if b[0] > byte(Exclusive) {
		return m, fmt.Errorf("cdd: unknown lock mode %d: %w", b[0], errBadRequest)
	}
	m.Mode = Mode(b[0])
	b = b[1:]
	n := binary.BigEndian.Uint32(b[0:4])
	b = b[4:]
	if uint32(len(b)) != 16*n {
		return m, fmt.Errorf("cdd: truncated lock ranges: %w", errBadRequest)
	}
	m.Ranges = make([]Range, n)
	for i := range m.Ranges {
		m.Ranges[i].Start = binary.BigEndian.Uint64(b[0:8])
		m.Ranges[i].End = binary.BigEndian.Uint64(b[8:16])
		b = b[16:]
	}
	return m, nil
}

// beatMsg is the OpCoherence request: the owner's identity plus its
// invalidation ack cursor (the newest event sequence it has processed).
type beatMsg struct {
	Owner   string
	LastSeq uint64
}

func encodeBeat(m beatMsg) []byte {
	b := make([]byte, 0, 4+len(m.Owner)+8)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Owner)))
	b = append(b, m.Owner...)
	b = binary.BigEndian.AppendUint64(b, m.LastSeq)
	return b
}

func decodeBeat(b []byte) (beatMsg, error) {
	var m beatMsg
	if len(b) < 4 {
		return m, fmt.Errorf("cdd: short beat message: %w", errBadRequest)
	}
	olen := binary.BigEndian.Uint32(b[0:4])
	b = b[4:]
	if uint32(len(b)) != olen+8 {
		return m, fmt.Errorf("cdd: truncated beat message: %w", errBadRequest)
	}
	m.Owner = string(b[:olen])
	m.LastSeq = binary.BigEndian.Uint64(b[olen:])
	return m, nil
}

// OpCoherence response flag bits.
const (
	beatFlagKnown = 1 << 0
	beatFlagReset = 1 << 1
)

func encodeBeatResult(br BeatResult) []byte {
	b := make([]byte, 0, 1+4+8+4)
	var flags byte
	if br.Known {
		flags |= beatFlagKnown
	}
	if br.Reset {
		flags |= beatFlagReset
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint32(b, uint32(br.TTL/time.Millisecond))
	b = binary.BigEndian.AppendUint64(b, br.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(br.Events)))
	for _, ev := range br.Events {
		b = binary.BigEndian.AppendUint64(b, ev.Seq)
		b = binary.BigEndian.AppendUint32(b, uint32(len(ev.Owner)))
		b = append(b, ev.Owner...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(ev.Ranges)))
		for _, r := range ev.Ranges {
			b = binary.BigEndian.AppendUint64(b, r.Start)
			b = binary.BigEndian.AppendUint64(b, r.End)
		}
	}
	return b
}

func decodeBeatResult(b []byte) (BeatResult, error) {
	var br BeatResult
	if len(b) < 17 {
		return br, fmt.Errorf("cdd: short beat response: %w", errBadRequest)
	}
	br.Known = b[0]&beatFlagKnown != 0
	br.Reset = b[0]&beatFlagReset != 0
	br.TTL = time.Duration(binary.BigEndian.Uint32(b[1:5])) * time.Millisecond
	br.Seq = binary.BigEndian.Uint64(b[5:13])
	n := binary.BigEndian.Uint32(b[13:17])
	b = b[17:]
	for i := uint32(0); i < n; i++ {
		if len(b) < 12 {
			return br, fmt.Errorf("cdd: truncated beat events: %w", errBadRequest)
		}
		var ev Invalidation
		ev.Seq = binary.BigEndian.Uint64(b[0:8])
		olen := binary.BigEndian.Uint32(b[8:12])
		b = b[12:]
		if uint32(len(b)) < olen+4 {
			return br, fmt.Errorf("cdd: truncated beat event owner: %w", errBadRequest)
		}
		ev.Owner = string(b[:olen])
		b = b[olen:]
		rn := binary.BigEndian.Uint32(b[0:4])
		b = b[4:]
		if uint32(len(b)) < 16*rn {
			return br, fmt.Errorf("cdd: truncated beat event ranges: %w", errBadRequest)
		}
		ev.Ranges = make([]Range, rn)
		for j := range ev.Ranges {
			ev.Ranges[j].Start = binary.BigEndian.Uint64(b[0:8])
			ev.Ranges[j].End = binary.BigEndian.Uint64(b[8:16])
			b = b[16:]
		}
		br.Events = append(br.Events, ev)
	}
	if len(b) != 0 {
		return br, fmt.Errorf("cdd: trailing beat response bytes: %w", errBadRequest)
	}
	return br, nil
}

// encodeSnapshot serializes a table version plus records.
func encodeSnapshot(version uint64, recs []Record) []byte {
	b := binary.BigEndian.AppendUint64(nil, version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(recs)))
	for _, rec := range recs {
		sub := encodeLockMsg(lockMsg{Owner: rec.Owner, Mode: rec.Mode, Ranges: rec.Ranges})
		b = binary.BigEndian.AppendUint32(b, uint32(len(sub)))
		b = append(b, sub...)
	}
	return b
}

func decodeSnapshot(b []byte) (version uint64, recs []Record, err error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("cdd: short snapshot: %w", errBadRequest)
	}
	version = binary.BigEndian.Uint64(b[0:8])
	n := binary.BigEndian.Uint32(b[8:12])
	b = b[12:]
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			return 0, nil, fmt.Errorf("cdd: truncated snapshot: %w", errBadRequest)
		}
		sz := binary.BigEndian.Uint32(b[0:4])
		b = b[4:]
		if uint32(len(b)) < sz {
			return 0, nil, fmt.Errorf("cdd: truncated snapshot record: %w", errBadRequest)
		}
		m, err := decodeLockMsg(b[:sz])
		if err != nil {
			return 0, nil, err
		}
		recs = append(recs, Record{Owner: m.Owner, Mode: m.Mode, Ranges: m.Ranges})
		b = b[sz:]
	}
	return version, recs, nil
}
