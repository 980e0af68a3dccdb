package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Stamp identifies where and on what a result was measured. Results
// are comparable only when the machine fields agree; Commit and Source
// say which code ran and are expected to differ in an A/B comparison.
type Stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

// Machine is the part of the stamp that must match for two results to
// be compared.
func (s Stamp) Machine() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s goarch=%s", s.GOMAXPROCS, s.NProc, s.CPU, s.GoVersion, s.GOARCH)
}

// NewStamp stamps a result measured from the repository root.
func NewStamp(root string) Stamp {
	return Stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(root),
		Source:     sourceHash(root),
	}
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

// gitCommit reads HEAD from the repository's .git directory without
// running git; "none" when the tree is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "none"
}

// sourceHash digests the program's Go sources and go.mod (the
// benchmark's own directory and build outputs excluded), so results
// from a tree without git history still say which code ran.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Result is one run's record, written under the build directory for
// later comparison. The last stdout line carries only the four result
// keys; this file carries the stamp too.
type Result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Stamp    Stamp              `json:"stamp"`
	Correct  bool               `json:"correct"`
	Attempt  int                `json:"attempted"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// compareDirs prints, per workload and metric, the median of each side
// and B's change relative to A. It refuses when any two results were
// measured on different machines (see Stamp.Machine).
func compareDirs(w io.Writer, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("compare: no results in %s or %s", dirA, dirB)
	}
	machine := a[0].Stamp.Machine()
	for _, r := range slices.Concat(a, b) {
		if m := r.Stamp.Machine(); m != machine {
			return fmt.Errorf("compare: refusing results from different machines:\n  %s\n  %s", machine, m)
		}
	}
	fmt.Fprintf(w, "machine: %s\n", machine)
	fmt.Fprintf(w, "A: commit %s (%d runs)  B: commit %s (%d runs)\n", a[0].Stamp.Commit, len(a), b[0].Stamp.Commit, len(b))
	fmt.Fprintf(w, "%-22s %-34s %14s %14s %9s\n", "workload", "metric", "median_A", "median_B", "B/A-1")
	var keys []string
	for _, r := range a {
		if !slices.Contains(keys, r.key()) {
			keys = append(keys, r.key())
		}
	}
	slices.Sort(keys)
	for _, wl := range keys {
		for _, name := range metricNames(a, wl) {
			ma, mb := medianOf(a, wl, name), medianOf(b, wl, name)
			fmt.Fprintf(w, "%-22s %-34s %14.6g %14.6g %+8.1f%%\n", wl, name, ma, mb, 100*(mb/ma-1))
		}
	}
	return nil
}

func loadResults(dir string) ([]Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// key separates traced from untraced results of a workload.
func (r Result) key() string {
	if r.Trace {
		return r.Workload + "+trace"
	}
	return r.Workload
}

func metricNames(rs []Result, key string) []string {
	var names []string
	for _, r := range rs {
		if r.key() != key {
			continue
		}
		for k := range r.Metrics {
			if !slices.Contains(names, k) {
				names = append(names, k)
			}
		}
	}
	slices.Sort(names)
	return names
}

func medianOf(rs []Result, key, metric string) float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.Metrics[metric]; ok && r.key() == key {
			v = append(v, x)
		}
	}
	return median(v)
}
