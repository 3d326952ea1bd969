package trickledown_test

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandOutputPins runs every drill and paper command with its CI
// arguments and compares an FNV-1a-64 fingerprint of its stdout, and of
// every file it writes, with a checked-in constant. The whole pipeline
// is fixed-seed deterministic, so any change to one output bit names
// the row that moved. A deliberate output change updates the constant
// and says why in CHANGES.md.
//
// The commands are package main, so the test builds them once and
// execs them. In a row's args, F stands for an output file and D for
// an output directory. A key of pins is "stdout" or a "+"-joined list
// of files under D (or "F"), hashed as their concatenation.
func TestCommandOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every drill; skipped in -short")
	}
	if raceEnabled {
		t.Skip("CI runs the drills under -race in their own steps")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	golden, err := filepath.Abs("GOLDEN.json")
	if err != nil {
		t.Fatal(err)
	}
	statSources(t)
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator),
		"./cmd/tdreport", "./cmd/tdvalidate",
		"./examples/fleet", "./examples/diurnal", "./examples/chaos",
		"./examples/tenants", "./examples/drift", "./examples/replay",
		"./examples/quickstart", "./examples/governor", "./examples/phases",
		"./examples/thermal")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	report := map[string]string{
		"stdout":                 "cbf29ce484222325",
		"F":                      "f18e5e5bb6494370",
		"figure2.csv":            "116e3ac1cd94438d",
		"figure3.csv":            "0ea25c1c75ce884a",
		"figure4.csv":            "a30f007d57bc0736",
		"figure5.csv":            "d7ea6e6de89298ad",
		"figure5_l3_failure.csv": "4c2787bc91cad444",
		"figure6.csv":            "9551d4ce0a208ad7",
		"figure7.csv":            "e5c68f386385247d",
		// The figure plots, concatenated in figure order.
		"figure2.txt+figure3.txt+figure4.txt+figure5.txt+figure5_l3_failure.txt+figure6.txt+figure7.txt": "f532ce5b177ed0fc",
	}

	rows := []struct {
		cmd  string
		args []string
		pins map[string]string
	}{
		{"fleet", nil, map[string]string{"stdout": "417d79113bcae40c"}},
		{"fleet", []string{"-smoke", "1000", "-workers", "2"}, map[string]string{"stdout": "a26c8b8a9fdec7c7"}},
		{"diurnal", []string{"-workers", "2"}, map[string]string{"stdout": "f73e5521cc9431c6"}},
		{"chaos", []string{"-seconds", "40"}, map[string]string{"stdout": "488d841504c01ede"}},
		{"tenants", nil, map[string]string{"stdout": "c8b60949eade94c5"}},
		{"drift", nil, map[string]string{"stdout": "102af14bddd7bcbe"}},
		{"drift", []string{"-force-bad-challenger"}, map[string]string{"stdout": "c06372edd0866568"}},
		{"drift", []string{"-rollback-drill"}, map[string]string{"stdout": "b360950031dba265"}},
		{"replay", nil, map[string]string{"stdout": "bc4206fb2809f4bc"}},
		{"quickstart", nil, map[string]string{"stdout": "8e663b52f833ea61"}},
		{"governor", nil, map[string]string{"stdout": "f06081b565396e6e"}},
		{"phases", nil, map[string]string{"stdout": "2075fefd3f60a241"}},
		{"thermal", nil, map[string]string{"stdout": "7321d14cb4eeb6d9"}},
		{"tdvalidate", []string{"-gate", "-golden", golden, "-o", "F"},
			map[string]string{"stdout": "97b4452f07560bef", "F": "5a4817ba5ca7aa91"}},
		{"tdreport", []string{"-scale", "0.2", "-o", "F", "-figures", "D"}, report},
	}
	for _, row := range rows {
		name := strings.Join(append([]string{row.cmd}, row.args...), " ")
		if row.cmd == "tdvalidate" {
			name = "tdvalidate -gate"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			outFile := filepath.Join(dir, "F")
			outDir := filepath.Join(dir, "D")
			args := make([]string, len(row.args))
			for i, a := range row.args {
				switch a {
				case "F":
					a = outFile
				case "D":
					a = outDir
				}
				args[i] = a
			}
			cmd := exec.Command(filepath.Join(bin, row.cmd), args...)
			cmd.Dir = dir
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %s: %v\n%s", row.cmd, strings.Join(row.args, " "), err, stderr.String())
			}
			for key, want := range row.pins {
				var got string
				if key == "stdout" {
					got = fnvHex([]byte(stdout.String()))
				} else {
					var cat []byte
					for _, f := range strings.Split(key, "+") {
						path := filepath.Join(outDir, f)
						if f == "F" {
							path = outFile
						}
						b, err := os.ReadFile(path)
						if err != nil {
							t.Fatalf("%s %s: %v", row.cmd, strings.Join(row.args, " "), err)
						}
						cat = append(cat, b...)
					}
					got = fnvHex(cat)
				}
				if got != want {
					t.Errorf("%s %s: %s fingerprint %s, pinned %s",
						row.cmd, strings.Join(row.args, " "), key, got, want)
				}
			}
		})
	}
}

// fnvHex is the FNV-1a-64 hash of b in hex, the hash behind
// align.Fingerprint.
func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// statSources stats GOLDEN.json and every Go file the commands are
// built from. The go test cache keys a result on the files its test
// touched, so a change to any of them reruns this test instead of
// replaying a cached pass.
func statSources(t *testing.T) {
	if _, err := os.Stat("GOLDEN.json"); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			_, err = os.Stat(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
