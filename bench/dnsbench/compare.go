package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRunSet reads a set of runs, or a single run's result file as a set
// of one.
func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		var one runResult
		if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: neither a set of runs nor a run's result", path)
		}
		set.Runs = []*runResult{&one}
		set.Env = one.Env
	}
	return &set, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change from A to B and the metric's bound, and labels each row:
// unresolved when either side's spread is wider than the bound, worse or
// better when the change exceeds the bound, same otherwise. It reports
// whether any row is worse.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (anyWorse bool, err error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	values := func(set *runSet, workload, metric string) []float64 {
		var out []float64
		for _, r := range set.Runs {
			if r.Workload == workload && !r.Trace {
				out = append(out, r.Metrics[metric].Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "A: %s (commit %s, %s, %d cpus)\nB: %s (commit %s, %s, %d cpus)\n",
		pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NProc, pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NProc)
	fmt.Fprintf(w, "%-15s %-14s %4s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "runs", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			worseBy := change // positive = B is worse
			if m.Better == "higher" {
				worseBy = -change
			}
			sp := math.Max(spread(va), spread(vb))
			verdict := "same"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				anyWorse = true
			case worseBy < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-14s %2d/%-2d %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), ma, mb, 100*change, 100*sp, 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}
