package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Shape is the machine and input stamp every record carries. Numbers
// from records with different shapes are not comparable: a 2-core and a
// 16-core box step a fleet at different rates, and so do two Go
// releases.
type Shape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func currentShape(workload string, seed uint64, seconds int, trace bool) Shape {
	return Shape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

func (s Shape) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s workload=%s seed=%d seconds=%d trace=%v",
		s.NumCPU, s.GOMAXPROCS, s.CPUModel, s.GoVersion, s.Workload, s.Seed, s.Seconds, s.Trace)
}

// comparable reports why two shapes may not be compared, or "" if they
// may. The seed may differ (it is an input draw, not a machine
// property); everything else must match.
func (s Shape) comparable(o Shape) string {
	var diffs []string
	if s.NumCPU != o.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", s.NumCPU, o.NumCPU))
	}
	if s.GOMAXPROCS != o.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", s.GOMAXPROCS, o.GOMAXPROCS))
	}
	if s.CPUModel != o.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", s.CPUModel, o.CPUModel))
	}
	if s.GoVersion != o.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", s.GoVersion, o.GoVersion))
	}
	if s.Workload != o.Workload || s.Seconds != o.Seconds || s.Trace != o.Trace {
		diffs = append(diffs, fmt.Sprintf("run %s/%ds/trace=%v vs %s/%ds/trace=%v",
			s.Workload, s.Seconds, s.Trace, o.Workload, o.Seconds, o.Trace))
	}
	return strings.Join(diffs, "; ")
}

// cpuModel reads the first "model name" from /proc/cpuinfo, or returns
// GOARCH where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// residentMB returns the process's resident set size in MiB, from
// /proc/self/statm, or where that file does not exist the memory the Go
// runtime holds from the OS.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return float64(pages*uint64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// Record is what --out writes: the stamp plus the result.
type Record struct {
	Shape  Shape  `json:"shape"`
	Result Result `json:"result"`
}

func writeRecord(path string, rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (Record, error) {
	var rec Record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// compareRecords prints each shared metric's change from old to new. It
// refuses records whose shapes differ.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if why := old.Shape.comparable(cur.Shape); why != "" {
		return fmt.Errorf("refusing to compare records of different shapes: %s", why)
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for name := range cur.Result.Metrics {
		if _, ok := old.Result.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# shape: %s\n", cur.Shape)
	for _, name := range names {
		o, n := old.Result.Metrics[name], cur.Result.Metrics[name]
		change := "n/a"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", (n.Value/o.Value-1)*100)
		}
		fmt.Fprintf(w, "%-28s %14.6g -> %-14.6g %s %s\n", name, o.Value, n.Value, n.Unit, change)
	}
	return nil
}
