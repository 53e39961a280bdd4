package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/*.golden from this build's output")

// TestPaperFiguresGolden pins the paper's simulated numbers to the
// digit: the experiments run on the deterministic virtual clock, so an
// engine refactor that keeps the device I/O sequence keeps every byte
// of this output. Figure 6 runs in a reduced form (RAID-5 only, three
// client counts) because the full sweep takes minutes. The ablations are
// the only deterministic runs of RAID-x's ForegroundMirror, ScatterMirror
// and BalanceReads options.
func TestPaperFiguresGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"fig5", runFig5, nil},
		{"table3", runTable3, nil},
		{"degraded", runDegraded, nil},
		{"fig6", runFig6, []string{"-systems", "raid5", "-clients", "1,4,8"}},
		{"ablate", runAblate, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := captureStdout(t, func() error { return tc.run(tc.args) })
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output moved (rerun with -update only if the change is intended)\n--- got\n%s--- want\n%s", tc.name, got, want)
			}
		})
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed; the commands print with fmt.Printf.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
