package main

import "fmt"

// stackRow is one line of a workload's cost stack: a per-layer metric, how
// many times an operation of the workload (a query answered, a packet
// analysed) goes through it, and how deep the row is nested. Only rows of
// depth 0 are summed; deeper rows say what the row above them is made of.
// The calls are the benchmark's model of the path, stated in
// bench/README.md; coverage says how much of the measured CPU per
// operation the model explains.
type stackRow struct {
	Metric string  `json:"metric"`
	Calls  float64 `json:"calls_per_op"`
	Depth  int     `json:"depth"`
}

type stackLine struct {
	stackRow
	NSPerCall float64 `json:"ns_per_call"`
	NSPerOp   float64 `json:"ns_per_op"`
	Share     float64 `json:"share_of_cpu_per_op"`
}

var nsPerUnit = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// costStack turns rows into lines from the metrics already set on res and
// sets bench.cost_stack_coverage: the depth-0 rows' sum over cpu_us_per_op.
// The remainder is kernel and runtime, which timing from outside cannot split.
func costStack(res *runResult, rows []stackRow) {
	m := res.metrics
	cpuNS := m.vals["cpu_us_per_op"] * 1000
	var lines []stackLine
	sum := 0.0
	for _, row := range rows {
		unit := ""
		for _, d := range m.defs {
			if d.Name == row.Metric {
				unit = d.Unit
			}
		}
		l := stackLine{stackRow: row, NSPerCall: m.vals[row.Metric] * nsPerUnit[unit]}
		l.NSPerOp = l.NSPerCall * row.Calls
		if cpuNS > 0 {
			l.Share = l.NSPerOp / cpuNS
		}
		if row.Depth == 0 {
			sum += l.NSPerOp
		}
		lines = append(lines, l)
	}
	if cpuNS > 0 {
		m.set("bench.cost_stack_coverage", sum/cpuNS)
	}
	res.Detail["cost_stack"] = lines
}

// printStack prints the table that sums.
func printStack(res *runResult) {
	lines, ok := res.Detail["cost_stack"].([]stackLine)
	if !ok {
		return
	}
	fmt.Printf("cost stack of %s (cpu_us_per_op %.3f us):\n", res.Workload, res.Metrics["cpu_us_per_op"].Value)
	for _, l := range lines {
		fmt.Printf("  %*s%-*s %10.1f ns x %-8.4g = %10.1f ns  %5.1f %%\n", 2*l.Depth, "", 36-2*l.Depth, l.Metric, l.NSPerCall, l.Calls, l.NSPerOp, 100*l.Share)
	}
	fmt.Printf("  explained: %.1f %% (rows without indent); the rest is kernel and runtime\n", 100*res.Metrics["bench.cost_stack_coverage"].Value)
}
