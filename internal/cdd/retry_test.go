package cdd

// White-box pin of the retry matrix: which opcodes may be blindly
// re-sent and which errors are worth a retry. The table is the
// contract — a change here must be a deliberate protocol decision, not
// a drive-by edit (a misclassified error either hammers a peer that
// answered correctly or gives up on a recoverable blip; a
// misclassified op double-applies a non-idempotent request).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/transport"
)

func TestRetryableOpMatrix(t *testing.T) {
	cases := []struct {
		name string
		op   uint8
		want bool
	}{
		{"info", OpInfo, true},
		{"read", OpRead, true},
		{"write", OpWrite, true}, // whole-block rewrite is idempotent
		{"flush", OpFlush, true},
		{"health", OpHealth, true},
		{"stats", OpStats, true},
		{"unlock", OpUnlock, true},
		{"unlock-all", OpUnlockAll, true},
		{"fail", OpFail, true},
		{"replace", OpReplace, true},
		{"obs-snapshot", OpObsSnapshot, true},
		{"trace-spans", OpTraceSpans, true},
		{"intent-put", OpIntentPut, true},
		{"intent-get", OpIntentGet, true},
		{"repair-status", OpRepairStatus, true},
		{"repair-ctl", OpRepairCtl, true},
		{"coherence-beat", OpCoherence, true}, // beats are pure state exchange
		{"layout", OpLayout, true},
		{"epoch-set", OpEpochSet, true}, // adopt-if-higher is idempotent
		// A lost OpLock response leaves the grant recorded server-side; a
		// blind resend would double-record it. Single attempt only.
		{"lock", OpLock, false},
		{"lock-replica", OpLockReplica, false},
		// A start whose response was lost would double-begin.
		{"rebalance-ctl", OpRebalanceCtl, false},
	}
	classed := map[uint8]bool{}
	for _, c := range cases {
		classed[c.op] = true
		if got := retryableOp(c.op); got != c.want {
			t.Errorf("retryableOp(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	// Every opcode has a deliberate retry class above and its own span
	// name (hence its own mgr.op_latency label): a new opcode cannot
	// slip in unclassified, and no traffic hides under a second name for
	// the same operation.
	names := map[string]uint8{}
	for op := OpInfo; op < opEnd; op++ {
		if op == OpWrite+1 || op == OpUnlockAll+1 {
			continue // unassigned
		}
		if !classed[op] {
			t.Errorf("opcode %d has no row in the retry matrix", op)
		}
		name := opSpanNames[op]
		if name == "" {
			t.Errorf("opcode %d has no span name", op)
		} else if prev, dup := names[name]; dup {
			t.Errorf("opcodes %d and %d share span name %q", prev, op, name)
		}
		names[name] = op
	}
}

func TestRetryableErrMatrix(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		// The peer answered — retrying re-asks a question that was
		// answered; the answer will not change.
		{"remote-error", &transport.RemoteError{Code: transport.CodeBadRequest, Msg: "x"}, false},
		{"remote-error-wrapped", fmt.Errorf("call: %w", &transport.RemoteError{Code: transport.CodeDiskFailed, Msg: "d"}), false},
		{"resp-size", &transport.RespSizeError{Got: 1, Want: 2}, false},
		// Client-side terminal states.
		{"closed", transport.ErrClosed, false},
		{"frame-too-large", transport.ErrFrameTooLarge, false},
		{"canceled", context.Canceled, false},
		{"canceled-wrapped", fmt.Errorf("dial: %w", context.Canceled), false},
		// Transient transport breakage: retry.
		{"deadline", context.DeadlineExceeded, true}, // per-attempt deadline, caller ctx still live
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"conn-reset", errors.New("read tcp 127.0.0.1: connection reset by peer"), true},
	}
	for _, c := range cases {
		if got := retryableErr(c.err); got != c.want {
			t.Errorf("retryableErr(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNoteOutcomeCancellation pins the health-marking side of the
// bugfix: a caller cancelling its own request must not mark the remote
// device suspect (which would burn the repair failure budget for a
// healthy node).
func TestNoteOutcomeCancellation(t *testing.T) {
	d := &RemoteDev{healthy: true, n: &NodeClient{}}
	d.noteOutcome(context.Canceled)
	if !d.healthy {
		t.Fatal("context.Canceled marked the device suspect")
	}
	d.noteOutcome(fmt.Errorf("call: %w", context.Canceled))
	if !d.healthy {
		t.Fatal("wrapped context.Canceled marked the device suspect")
	}
	d.noteOutcome(nil)
	if !d.healthy {
		t.Fatal("nil error changed health")
	}
}
