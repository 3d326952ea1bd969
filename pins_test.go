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
	report := map[string]string{
		"stdout":                 "cbf29ce484222325",
		"F":                      "58227a2b90097482",
		"figure2.csv":            "333d9ef087ac3f2f",
		"figure3.csv":            "a98bc3e4af6e2009",
		"figure4.csv":            "a30f007d57bc0736",
		"figure5.csv":            "71d58401630487cf",
		"figure5_l3_failure.csv": "2c64027ea54baed2",
		"figure6.csv":            "87372e4ece19796e",
		"figure7.csv":            "c5a5c416201c5594",
		// The figure plots, concatenated in figure order.
		"figure2.txt+figure3.txt+figure4.txt+figure5.txt+figure5_l3_failure.txt+figure6.txt+figure7.txt": "c5412cc33f4a6092",
	}

	rows := []struct {
		cmd  string
		args []string
		pins map[string]string
	}{
		{"fleet", nil, map[string]string{"stdout": "709707109d6cfd7c"}},
		{"fleet", []string{"-smoke", "1000", "-workers", "2"}, map[string]string{"stdout": "89cf7be9cd6f3388"}},
		{"chaos", []string{"-seconds", "40"}, map[string]string{"stdout": "04fe66547c6f3009"}},
		{"drift", nil, map[string]string{"stdout": "726f53fbb65f1e1b"}},
		{"drift", []string{"-force-bad-challenger"}, map[string]string{"stdout": "2ebf62df968f33d1"}},
		{"drift", []string{"-rollback-drill"}, map[string]string{"stdout": "467292493a1ee384"}},
		{"quickstart", nil, map[string]string{"stdout": "558bbe2aac01befa"}},
		{"tdvalidate", []string{"-gate", "-golden", golden, "-o", "F"},
			map[string]string{"stdout": "572325863a3668e8", "F": "cec493571e36d351"}},
		{"tdreport", []string{"-scale", "0.2", "-o", "F", "-figures", "D"}, report},
	}

	// Each row's command builds from ./cmd/X if that exists, else from
	// ./examples/X.
	statSources(t)
	bin := t.TempDir()
	buildArgs := []string{"build", "-o", bin + string(filepath.Separator)}
	built := map[string]bool{}
	for _, row := range rows {
		if built[row.cmd] {
			continue
		}
		built[row.cmd] = true
		pkg := "./cmd/" + row.cmd
		if _, err := os.Stat(pkg); err != nil {
			pkg = "./examples/" + row.cmd
		}
		buildArgs = append(buildArgs, pkg)
	}
	if out, err := exec.Command(goTool, buildArgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
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
