package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/repair"
)

var update = flag.Bool("update", false, "regenerate testdata/*.golden from this build's output")

// fixtureAt is the fixtures' wall clock: a UTC instant, so every
// rendered timestamp is the same on any host.
var fixtureAt = time.Date(2026, 3, 14, 15, 9, 26, 0, time.UTC)

// hist summarises one histogram that observed the given latencies in µs.
func hist(us ...int) obs.HistogramStats {
	var h obs.Histogram
	for _, u := range us {
		h.Observe(time.Duration(u) * time.Microsecond)
	}
	return h.Snapshot().Summary()
}

// repeat is n copies of us, a cheap way to give one histogram many
// observations.
func repeat(n int, us ...int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, us...)
	}
	return out
}

// nodeSnapshot is node's registry at poll (0 first, 1 second): two
// disks (the second failed on node 1), two volumes, per-op latencies,
// a background QoS rate, an SLO burning on node 1 only and, on node 0,
// the repair supervisor.
// Counts grow between polls so every rate has a delta; no two op rows
// or exemplars tie, so each table's order is fixed.
func nodeSnapshot(node, poll int) obs.Snapshot {
	n, p := int64(node), int64(poll)
	at := fixtureAt.Add(time.Duration(poll) * 2 * time.Second)
	s := obs.Snapshot{
		Time: at,
		Counters: map[string]int64{
			"mgr.read_ops":       400 + 300*p + 10*n,
			"mgr.write_ops":      150 + 90*p + n,
			"mgr.bg_stale_drops": 0,
			"sess.cache_hits":    700 + 500*p,
			"sess.cache_misses":  300 + 100*p + 50*n,
			obs.LabelName("vol.degraded_reads", "volume", "arch"): 12 * p,
			obs.LabelName("vol.degraded_reads", "volume", "fast"): 0,
		},
		Gauges: map[string]int64{
			obs.LabelName("vol.info", "volume", "fast", "policy", "raid10"):  1,
			obs.LabelName("vol.blocks", "volume", "fast"):                    4096,
			obs.LabelName("vol.capacity_overhead_pct", "volume", "fast"):     100,
			obs.LabelName("vol.info", "volume", "arch", "policy", "rs(4,2)"): 1,
			obs.LabelName("vol.blocks", "volume", "arch"):                    16384,
			obs.LabelName("vol.capacity_overhead_pct", "volume", "arch"):     50,
			"qos.bg_rate_bps":              3 << 19,
			"slo.read-p99.burning":         n * p,
			"slo.read-p99.fast_burn_milli": 400 + 2100*n*p,
			"slo.read-p99.slow_burn_milli": 250 + 900*n,
		},
		Histograms: map[string]obs.HistogramStats{
			obs.LabelName("mgr.op_latency", "op", "read"):  hist(repeat(40+30*poll+node, 90, 150, 300, 1200)...),
			obs.LabelName("mgr.op_latency", "op", "write"): hist(repeat(15+9*poll, 200, 700, 5000)...),
			obs.LabelName("mgr.op_latency", "op", "flush"): hist(repeat(1+poll+node, 3000)...),
		},
	}
	for d := 0; d < 2; d++ {
		id := "n" + string(rune('0'+node)) + "d" + string(rune('0'+d))
		k := int64(d + 1)
		healthy := int64(1)
		if node == 1 && d == 1 {
			healthy = 0
		}
		for field, v := range map[string]int64{
			"reads":         (200 + 150*p) * k,
			"writes":        (80 + 45*p) * k,
			"bytes_read":    (30 + 20*p + n) * k << 20,
			"bytes_written": (12 + 9*p) * k << 20,
			"seq_hits":      (140 + 100*p) * k,
			"backlog_us":    1500 * k,
			"bg_backlog_us": 250 * k * n,
			"healthy":       healthy,
		} {
			s.Gauges["disk."+id+"."+field] = v
		}
	}
	if node == 0 {
		for dev, st := range map[string]int64{"0": 0, "1": 0, "2": 3, "10": 1} {
			s.Gauges[obs.LabelName("repair.dev_state", "dev", dev)] = st
		}
		s.Gauges["repair.active"] = 2
		s.Gauges["repair.paused"] = p
		s.Gauges["repair.resync_bytes"] = 3 << 20
	}
	s.Events = []obs.Event{
		{Seq: 3*uint64(node) + 1, Time: fixtureAt.Add(-90 * time.Second), Kind: obs.EventSuspect, Subject: "n1d1", Detail: "read: i/o timeout"},
		{Seq: 3*uint64(node) + 2, Time: fixtureAt.Add(-41 * time.Second), Kind: obs.EventDiskFailed, Subject: "n1d1"},
		{Seq: 3*uint64(node) + 3, Time: fixtureAt.Add(-1500 * time.Millisecond), Kind: obs.EventRebuildStart, Subject: "raidx", Detail: "D2"},
	}
	return s
}

// withExemplars gives the client-side histograms of s trace exemplars
// whose ages are set against the test's own clock.
func withExemplars(s obs.Snapshot, now time.Time) obs.Snapshot {
	for i, name := range []string{"client.read", "client.write", "sess.flush", "client.readdir"} {
		st := hist(100, 400, 2000)
		st.Exemplar = &obs.Exemplar{
			TraceID: 0x1f2e3d4c5b6a7980 + uint64(i),
			Dur:     time.Duration(2500+1700*i) * time.Microsecond,
			At:      now.Add(-time.Duration(5+40*i) * time.Second).UnixNano(),
		}
		s.Histograms[name] = st
	}
	return s
}

// pollAt is the cluster view raidxctl top builds at poll: every node's
// snapshot and their merge.
func pollAt(poll int) (obs.Snapshot, []obs.Snapshot) {
	per := []obs.Snapshot{nodeSnapshot(0, poll), nodeSnapshot(1, poll)}
	per[1] = withExemplars(per[1], time.Now())
	return obs.MergeSnapshots(per...), per
}

// repairFixture is a supervisor mid-rebuild of D2 with D5 suspect.
func repairFixture() repair.Status {
	st := repair.Status{Active: 2, Spares: 1}
	for i := 0; i < 6; i++ {
		d := repair.DevStatus{State: repair.StateHealthy, Since: fixtureAt.Add(-time.Hour), Resyncs: i % 2}
		switch i {
		case 2:
			d = repair.DevStatus{State: repair.StateRebuilding, Since: fixtureAt.Add(-3 * time.Second), Rebuilds: 1,
				Prog: raid.RebuildProgress{Done: 384, Total: 1024}, LastErr: "write D2: connection reset"}
		case 5:
			d = repair.DevStatus{State: repair.StateSuspect, Since: fixtureAt.Add(-200 * time.Millisecond), ResyncBytes: 3 << 20, Resyncs: 2}
		}
		st.Devices = append(st.Devices, d)
	}
	return st
}

// TestRenderGolden pins raidxctl's renderings of fixed snapshots byte
// for byte: a stats node body, the volumes table on its own, a repair
// supervisor's status, and top's dashboard at a first and a second
// poll of a three-node cluster with one node down.
func TestRenderGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"stats", func() error {
			snap := withExemplars(nodeSnapshot(1, 1), time.Now())
			renderStats(os.Stdout, snap, 2)
			return nil
		}},
		{"volumes", func() error {
			renderVolumes(os.Stdout, nodeSnapshot(0, 0), "")
			return nil
		}},
		{"repair", func() error {
			renderRepairStatus(os.Stdout, "127.0.0.1:7110", repairFixture())
			renderRepairStatus(os.Stdout, "127.0.0.1:7111", repair.Status{Paused: true, Spares: -1, Active: -1,
				Devices: []repair.DevStatus{{State: repair.StateDegraded, Since: fixtureAt}}})
			return nil
		}},
		{"top", func() error {
			prev, prevPer := pollAt(0)
			renderTop(os.Stdout, poll{cur: prev, perNode: prevPer}, 3)
			os.Stdout.WriteString("----\n")
			cur, per := pollAt(1)
			renderTop(os.Stdout, poll{cur: cur, prev: prev, perNode: per, dt: 2 * time.Second}, 3)
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := captureStdout(t, tc.run)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal([]byte(got), want) {
				t.Errorf("%s output moved (rerun with -update only if the change is intended)\n--- got\n%s--- want\n%s", tc.name, got, want)
			}
		})
	}
}
