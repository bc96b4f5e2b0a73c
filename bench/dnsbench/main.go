// Command dnsbench is the repository's benchmark: it builds the serving
// and capture programs as they stand, drives them as child processes, and
// reports end-to-end and per-layer metrics under the names BENCHMARK.json
// fixes. bench/README.md describes the workloads and metrics.
//
// Usage (from the repository root, through bench/run.sh):
//
//	dnsbench --workload serve_hot --seed 1 --seconds 18 --trace 0
//	dnsbench -runs 5 -out bench/out/a.json     # every workload, a set of runs
//	dnsbench -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// runner is the state of one dnsbench invocation.
type runner struct {
	root   string // repository root, the working directory
	binDir string // bench/.build/bin
	outDir string // bench/out
	procs  *procs
	buildS float64
	// The CPUs of the generator and of the servers on the serve workloads,
	// split once, before anything is pinned.
	genCPUs, sutCPUs []int

	seed    int64
	seconds float64
	trace   bool
	sizes   sizes
	tr      *tracer
	coldSeq atomic.Uint64 // makes cold names unique over the process's life
}

// sizes are the input sizes of the workloads; the tests shrink them.
type sizes struct {
	setupReps    int // set-ups per run; setup_s is their median
	traceQueries int // query events in the generated capture
	replay       int // queries or frames replayed through each layer
	hot, cold    serveParams
	follow       followParams
}

var defaultSizes = sizes{
	setupReps: 3, traceQueries: 400_000, replay: 50_000,
	hot: serveHot, cold: serveCold, follow: followDefault,
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runResult is the result file of one run of one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Checks    []check          `json:"checks"`
	// Detail holds what the metrics were computed from: sample counts,
	// percentiles over all samples, every ladder rung, the cost stack.
	Detail   map[string]any `json:"detail"`
	Commands []string       `json:"commands"`
	Env      envInfo        `json:"env"`

	metrics *metricSet
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// envInfo says where a result was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Network and CPUs state what the numbers were measured over.
	Network string `json:"network"`
	CPUs    string `json:"cpus"`
}

func (r *runner) environment() envInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envInfo{
		Commit: commit, GoVersion: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Network: "loopback",
		CPUs:    fmt.Sprintf("serve workloads: generator on CPUs %v, servers on CPUs %v; capture workloads: all CPUs", r.genCPUs, r.sutCPUs),
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all of them)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 18, "length of one run's measurement")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.jsonl")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs per workload, with seeds seed, seed+1, …")
		out      = flag.String("out", "", "without -workload: file for the set of runs (default bench/out/suite.json)")
		compare  = flag.Bool("compare", false, "compare two sets of runs: dnsbench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: dnsbench -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	r, err := newRunner()
	if err != nil {
		fatal(err)
	}
	// Children die on every exit path: normal return, failure, signal and
	// the watchdog below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.procs.killAll()
		os.Exit(130)
	}()
	if err := r.build(); err != nil {
		fatal(err)
	}

	if *workload != "" {
		res, err := r.guarded(*workload, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	set := runSet{Env: r.environment()}
	ok := true
	for _, w := range workloadNames {
		for i := 0; i <= *runs; i++ {
			// The last run of each workload is the traced one.
			res, err := r.guarded(w, *seed+int64(i%*runs), *seconds, i == *runs)
			if err != nil {
				fatal(err)
			}
			printResult(res)
			ok = ok && res.Correct
			set.Runs = append(set.Runs, res)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(r.outDir, "suite.json")
	}
	if err := writeJSON(path, set); err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnsbench:", err)
	os.Exit(1)
}

func newRunner() (*runner, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module dnscentral\n") {
		return nil, errors.New("run dnsbench from the repository root (bash bench/run.sh)")
	}
	r := &runner{
		root:   root,
		binDir: filepath.Join(root, "bench", ".build", "bin"),
		outDir: filepath.Join(root, "bench", "out"),
		procs:  newProcs(),
		sizes:  defaultSizes,
	}
	r.genCPUs, r.sutCPUs = cpuSplit()
	return r, os.MkdirAll(r.outDir, 0o755)
}

// build compiles the four programs under test into bench/.build/bin with
// the build cache kept under bench/.build too.
func (r *runner) build() error {
	b := filepath.Join(r.root, "bench", ".build")
	if err := os.MkdirAll(filepath.Join(b, "tmp"), 0o755); err != nil {
		return err
	}
	argv := []string{"go", "build", "-o", r.binDir + string(filepath.Separator),
		"./cmd/authserver", "./cmd/recursor", "./cmd/entrada", "./cmd/dnstracegen"}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(b, "gocache"), "GOMODCACHE="+filepath.Join(b, "gomod"),
		"GOTMPDIR="+filepath.Join(b, "tmp"), "GOTOOLCHAIN=local")
	r.procs.commands = append(r.procs.commands, strings.Join(argv, " "))
	start := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s: %w\n%s", strings.Join(argv, " "), err, out)
	}
	r.buildS = time.Since(start).Seconds()
	return nil
}

// guarded runs one workload under a watchdog and leaves no child behind.
func (r *runner) guarded(workload string, seed int64, seconds float64, trace bool) (*runResult, error) {
	watchdog := time.AfterFunc(time.Duration(seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "dnsbench: watchdog: run took too long, stopping every child")
		r.procs.killAll()
		os.Exit(1)
	})
	defer watchdog.Stop()
	defer r.procs.killAll()

	r.seed, r.seconds, r.trace, r.tr = seed, seconds, trace, newTracer()
	res := &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Detail: map[string]any{}, Env: r.environment(),
		metrics: newMetricSet(append(append([]metricDef(nil), endToEnd...), perLayer...)),
	}
	first := len(r.procs.commands)
	var err error
	switch workload {
	case "serve_hot":
		err = r.runServe(res, r.sizes.hot)
	case "serve_cold":
		err = r.runServe(res, r.sizes.cold)
	case "capture_batch":
		err = r.runBatch(res)
	case "capture_follow":
		err = r.runFollow(res)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res.metrics.set("bench.build_s", r.buildS)
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	res.Metrics = res.metrics.emit()
	res.Commands = append(append([]string(nil), r.procs.commands[:1]...), r.procs.commands[first:]...)
	if trace {
		if err := r.tr.write(filepath.Join(r.outDir, "trace-"+workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	name := "result-" + workload + ".json"
	if trace {
		name = "result-" + workload + "-traced.json"
	}
	return res, writeJSON(filepath.Join(r.outDir, name), res)
}

// runSet is a set of runs: what -runs writes and -compare reads.
type runSet struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of the run's kind by name with its
// unit, the checks, and as the last line the JSON object the driver reads.
func printResult(res *runResult) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	fmt.Printf("== %s seed %d, %g s, trace %v (%s; %d CPUs; %s)\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Env.Network, res.Env.NProc, res.Env.CPUs)
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line.Metrics[d.Name] = v
		fmt.Printf("%-36s %16.6g %-6s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
	}
	printStack(res)
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	out, _ := json.Marshal(line)
	fmt.Printf("%s\n", out)
}
