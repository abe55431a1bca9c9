package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostFacts identify the machine and build a result was measured on.
// Results whose facts differ are never compared.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_rev"`
}

func collectHost() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitRev:     gitRev("."),
	}
}

// comparable reports whether two results may be compared: every fact
// except the revision under test must match.
func (h hostFacts) comparable(o hostFacts) error {
	a, b := h, o
	a.GitRev, b.GitRev = "", ""
	if a != b {
		return fmt.Errorf("host facts differ: %+v vs %+v", a, b)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(l, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// report is the full record of one run, written with --out and read back
// by --compare.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     hostFacts      `json:"host"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
	// Accounting is wall against getrusage CPU time over the measured
	// passes, and the engine's phase sum against its wall time.
	Accounting map[string]float64 `json:"accounting,omitempty"`
	// Raw holds the time metrics as measured, before they are divided
	// by the run's host slow-down (calib.go).
	Raw      map[string]float64 `json:"raw,omitempty"`
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
}

// compareReports prints the per-metric ratio of two reports, refusing
// when their host facts or workloads differ.
func compareReports(w io.Writer, oldPath, newPath string) error {
	var a, b report
	for _, p := range []struct {
		path string
		r    *report
	}{{oldPath, &a}, {newPath, &b}} {
		data, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, p.r); err != nil {
			return fmt.Errorf("%s: %w", p.path, err)
		}
	}
	if err := a.Host.comparable(b.Host); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare: workload %s/trace %t vs %s/trace %t", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "metric", a.Host.GitRev[:min(8, len(a.Host.GitRev))], b.Host.GitRev[:min(8, len(b.Host.GitRev))], "new/old")
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := math.NaN()
		if x.Value != 0 {
			ratio = y.Value / x.Value
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %8.3f %s\n", n, x.Value, y.Value, ratio, x.Unit)
	}
	return nil
}
