package cdd

// The layout-generation fence and membership control over the CDD wire.
// One invariant: every block read, write and background write carries
// the generation of the layout its (disk, block) was computed from
// (0 = the base layout), and a node serves it only if that generation is
// at least the one the node has adopted. A rebalance moves blocks to
// homes computed from the next generation; the coordinator broadcasts
// that generation to every member when the copy STARTS, so from the
// first moved block any mount still placing I/O with an older map —
// including one that never heard of epochs — bounces with
// CodeStaleEpoch. The adopted generation is durable in the node's
// superblocks, so a restart cannot reopen the window. The rejection
// surfaces typed to internal/mount, which refetches the layout, rebuilds
// its device table and placement map, and reruns the operation with
// recomputed homes. The retry can never happen below that layer: a newer
// generation implies moved homes, so resending the same physical (disk,
// block) stamped with a fresher generation would corrupt, not recover.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/layout"
	"repro/internal/transport"
)

// ErrStaleEpoch is the client-side classification of a CodeStaleEpoch
// rejection: the node enforces a newer array epoch than this client's
// placement map. Recovery is a rebuild — refetch the layout (OpLayout
// against the rebalance coordinator), rebuild the device table and
// placement map, and re-issue with recomputed homes.
var ErrStaleEpoch = errors.New("cdd: stale array epoch")

// errStaleEpoch marks server-side rejections so errCode maps them to
// the wire code.
var errStaleEpoch = ErrStaleEpoch

// IsStaleEpoch reports whether err is a stale-epoch rejection — either
// the local sentinel or the remote error code.
func IsStaleEpoch(err error) bool {
	if errors.Is(err, ErrStaleEpoch) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Code == transport.CodeStaleEpoch
}

// epochGenLen is the length of an OpEpochSet payload and response: one
// big-endian generation.
const epochGenLen = 8

// LayoutInfo is the OpLayout response: the epoch generation a node
// enforces and, when answered by the rebalance coordinator, the full
// layout descriptor plus migration progress.
type LayoutInfo struct {
	Gen       uint64            `json:"gen"`
	Desc      *layout.EpochDesc `json:"desc,omitempty"`
	Migrating bool              `json:"migrating,omitempty"`
	Cursor    int64             `json:"cursor,omitempty"`
	TargetGen uint64            `json:"target_gen,omitempty"`
}

// rebalanceReq is the OpRebalanceCtl payload.
type rebalanceReq struct {
	// Action is "grow" or "shrink".
	Action string `json:"action"`
	// Nodes is how many nodes join (grow) or leave (shrink).
	Nodes int `json:"nodes"`
	// Addrs are the joining nodes' CDD addresses, in node order (grow
	// only).
	Addrs []string `json:"addrs,omitempty"`
}

// RebalanceController is the slice of a rebalance coordinator the
// manager can drive remotely (raidxctl grow|shrink|rebalance status).
// Declared as an interface so cdd stays below repair in the dependency
// order; internal/node implements it over its repair supervisor.
type RebalanceController interface {
	// LayoutJSON returns the coordinator's LayoutInfo as JSON.
	LayoutJSON() ([]byte, error)
	// Rebalance starts a membership change: "grow" dials addrs and adds
	// nodes new nodes, "shrink" retires the nodes tail nodes.
	Rebalance(action string, nodes int, addrs []string) error
}

// SetRebalance attaches the node's rebalance coordinator, enabling
// OpRebalanceCtl and the full OpLayout answer.
func (m *Manager) SetRebalance(rc RebalanceController) {
	m.mu.Lock()
	m.rebalance = rc
	m.mu.Unlock()
}

// EpochGen reports the array-epoch generation this node enforces on
// block I/O.
func (m *Manager) EpochGen() uint64 { return m.epochGen.Load() }

// AdoptEpoch raises the node's enforced array epoch to gen; lower or
// equal generations are ignored (broadcasts are idempotent and may
// arrive out of order). Returns the generation now in force.
func (m *Manager) AdoptEpoch(gen uint64) uint64 {
	for {
		cur := m.epochGen.Load()
		if gen <= cur {
			return cur
		}
		if m.epochGen.CompareAndSwap(cur, gen) {
			m.mu.Lock()
			f := m.onEpoch
			m.mu.Unlock()
			if f != nil {
				f(gen)
			}
			return gen
		}
	}
}

// SetEpochNotify installs a hook called whenever AdoptEpoch raises the
// enforced generation. raidxnode uses it to persist the adopted epoch
// into its disk images' superblocks, so a restarted node re-enforces
// the fence before any broadcast reaches it. Epoch raises are rare
// (one per membership change), so a hook that syncs to disk is fine.
func (m *Manager) SetEpochNotify(f func(gen uint64)) {
	m.mu.Lock()
	m.onEpoch = f
	m.mu.Unlock()
}

// checkEpoch gates one block I/O request: a generation behind the node's
// is rejected typed; one ahead of it is adopted — the client learned of
// a newer epoch before this node's broadcast landed, and either way the
// node must stop honoring the older map.
func (m *Manager) checkEpoch(gen uint64) error {
	if cur := m.AdoptEpoch(gen); gen < cur {
		return fmt.Errorf("cdd: request epoch %d behind node epoch %d: %w", gen, cur, errStaleEpoch)
	}
	return nil
}

// handleEpoch serves the epoch/membership opcodes (dispatched from
// handle).
func (m *Manager) handleEpoch(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	switch op {
	case OpEpochSet:
		if len(payload) != epochGenLen {
			return nil, fmt.Errorf("cdd: epoch-set payload of %d bytes, want %d: %w", len(payload), epochGenLen, errBadRequest)
		}
		return binary.BigEndian.AppendUint64(nil, m.AdoptEpoch(binary.BigEndian.Uint64(payload))), nil

	case OpLayout:
		m.mu.Lock()
		rc := m.rebalance
		m.mu.Unlock()
		if rc != nil {
			return rc.LayoutJSON()
		}
		return json.Marshal(LayoutInfo{Gen: m.epochGen.Load()})

	case OpRebalanceCtl:
		m.mu.Lock()
		rc := m.rebalance
		m.mu.Unlock()
		if rc == nil {
			return nil, errors.New("cdd: no rebalance coordinator on this node")
		}
		var req rebalanceReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("cdd: bad rebalance request: %v: %w", err, errBadRequest)
		}
		return nil, rc.Rebalance(req.Action, req.Nodes, req.Addrs)
	}
	return nil, fmt.Errorf("cdd: op %d: %w", op, errUnknownOp)
}

// ArrayEpoch reports the layout generation this client stamps on block
// I/O (0: the base layout).
func (n *NodeClient) ArrayEpoch() uint64 { return n.arrayEpoch.Load() }

// SetArrayEpoch raises the layout generation the client stamps on block
// I/O. Lower generations are ignored — an epoch never rolls back.
func (n *NodeClient) SetArrayEpoch(gen uint64) {
	for {
		cur := n.arrayEpoch.Load()
		if gen <= cur || n.arrayEpoch.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Layout fetches the node's layout view: its enforced epoch generation
// and, from a rebalance coordinator, the full epoch descriptor and
// migration progress.
func (n *NodeClient) Layout(ctx context.Context) (LayoutInfo, error) {
	raw, err := n.call(ctx, OpLayout, nil)
	if err != nil {
		return LayoutInfo{}, err
	}
	var li LayoutInfo
	if err := json.Unmarshal(raw, &li); err != nil {
		return LayoutInfo{}, fmt.Errorf("cdd: bad layout from %s: %w", n.addr, err)
	}
	return li, nil
}

// EpochSet broadcasts an array-epoch generation to the node; the node
// adopts it if higher and answers with the generation now in force. The
// rebalance coordinator sends the TARGET generation when a migration
// starts: from then on the node rejects block I/O placed with any older
// map, and only the coordinator — stamping the target generation —
// writes while blocks move.
func (n *NodeClient) EpochSet(ctx context.Context, gen uint64) (uint64, error) {
	raw, err := n.call(ctx, OpEpochSet, binary.BigEndian.AppendUint64(nil, gen))
	if err != nil {
		return 0, err
	}
	if len(raw) != epochGenLen {
		return 0, fmt.Errorf("cdd: bad epoch-set response length %d", len(raw))
	}
	return binary.BigEndian.Uint64(raw), nil
}

// RebalanceCtl asks the node's rebalance coordinator to start a
// membership change. Not blindly retried: a lost response would
// double-start and bounce off ErrRebalanceActive.
func (n *NodeClient) RebalanceCtl(ctx context.Context, action string, nodes int, addrs []string) error {
	raw, err := json.Marshal(rebalanceReq{Action: action, Nodes: nodes, Addrs: addrs})
	if err != nil {
		return err
	}
	_, err = n.call(ctx, OpRebalanceCtl, raw)
	return err
}
