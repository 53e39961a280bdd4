package main

import (
	"regexp"
	"testing"
)

// TestWallClockCommandsRun runs the two wall-clock commands the benchmark
// ladder has not absorbed yet — the client fairness sweep with its QoS
// table, and the rebalance copy-rate row — at reduced sizes: each must
// run to completion and print its table (the numbers are the host's).
func TestWallClockCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real TCP for a few seconds")
	}
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
		want []string // regexps the output must match, in any order
	}{
		{"scale", runScale, []string{"-clients", "4,8", "-totalops", "2000"}, []string{
			`Client sweep \(4 tenants, 2000 total ops/point`,
			`(?m)^4 +[0-9.]+ +[0-9]+ +[0-9.]+ +[01]\.[0-9]{3}$`,
			`(?m)^8 +[0-9.]+ +[0-9]+ +[0-9.]+ +[01]\.[0-9]{3}$`,
			`QoS under foreground storm \(8 workers, background cap 2\.10 MB/s\)`,
			`(?m)^  background +[0-9.]+ MB/s \(cap 2\.10\)$`,
		}},
		{"rebalance", runRebalance, []string{"-add", "2", "-blocks", "512", "-writers", "2"}, []string{
			`Online grow 4 -> 6 nodes: 1020 logical blocks x 1024 B, 2 foreground writer\(s\)`,
			`rebalance copy bandwidth +[0-9.]+ MB/s`,
			`foreground during grow +[0-9.]+ MB/s`,
			`moved blocks vs minimum +[0-9]+ / 340 \(overhead [0-9.]+%, bound 25%\)`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := captureStdout(t, func() error { return tc.run(tc.args) })
			for _, want := range tc.want {
				if !regexp.MustCompile(want).Match(out) {
					t.Errorf("output lacks %s:\n%s", want, out)
				}
			}
		})
	}
}
