package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnscentral/internal/pcapio"
)

// followParams fixes the capture_follow workload.
type followParams struct {
	window   time.Duration
	idleExit time.Duration
	// paceBytesPerS is how fast the paced phase appends the capture:
	// ≈25 % of the rate at which the seed commit drains a finished file.
	paceBytesPerS float64
	// chunk is the size of one append; odd, so that records are torn.
	chunk int
}

var followDefault = followParams{
	window: time.Hour, idleExit: time.Second,
	paceBytesPerS: 40e6, chunk: 64<<10 + 1,
}

// captureInput is what set-up leaves behind for a capture workload.
type captureInput struct {
	dir   string
	trace string
	ref   []byte // report of `entrada -workers 1`, the reference
	truth groundTruth
}

// groundTruth is what dnstracegen said it generated.
type groundTruth struct {
	Queries   uint64            `json:"queries"`
	Providers map[string]uint64 `json:"providers"`
}

var (
	wroteRE    = regexp.MustCompile(`^wrote .*: (\d+) queries`)
	providerRE = regexp.MustCompile(`^\s+(\w+)\s+(\d+) queries`)
	packetsRE  = regexp.MustCompile(`\[(\d+) packets`)
	skippedRE  = regexp.MustCompile(`skipped (\d+) malformed`)
	windowRE   = regexp.MustCompile(`^entrada: window (\S+): (\d+) queries`)
)

// runTool runs one of the built programs to completion.
func (r *runner) runTool(name string, onStderr func(string, time.Time), args ...string) (*child, time.Duration, error) {
	argv := append([]string{filepath.Join(r.binDir, name)}, args...)
	start := time.Now()
	c, err := r.procs.start(name, argv, onStderr)
	if err != nil {
		return nil, 0, err
	}
	if err := c.wait(120 * time.Second); err != nil {
		_, errl := c.lines()
		return nil, 0, fmt.Errorf("%s: %w\n%s", strings.Join(argv, " "), err, strings.Join(errl, "\n"))
	}
	return c, time.Since(start), nil
}

// setupCapture generates the trace and the reference report, several
// times over; setup_s is the median.
func (r *runner) setupCapture(res *runResult, workload string) (*captureInput, error) {
	in := &captureInput{dir: filepath.Join(r.outDir, "work-"+workload)}
	if err := os.RemoveAll(in.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	in.trace = filepath.Join(in.dir, "trace.pcap")
	refPath := filepath.Join(in.dir, "reference.json")
	var setups []float64
	for i := 0; i < r.sizes.setupReps; i++ {
		sp := r.tr.begin(rootSpan, "setup")
		t0 := time.Now()
		gen, _, err := r.runTool("dnstracegen", nil, "-vantage", "nl", "-week", "w2020",
			"-queries", strconv.Itoa(r.sizes.traceQueries), "-seed", strconv.FormatInt(r.seed, 10), "-out", in.trace)
		if err != nil {
			return nil, err
		}
		if _, _, err := r.runTool("entrada", nil, "-in", in.trace, "-zone", "nl", "-workers", "1", "-out", refPath); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(sp, 1)
		out, _ := gen.lines()
		in.truth = groundTruth{Providers: map[string]uint64{}}
		for _, l := range out {
			if m := wroteRE.FindStringSubmatch(l); m != nil {
				in.truth.Queries, _ = strconv.ParseUint(m[1], 10, 64)
			} else if m := providerRE.FindStringSubmatch(l); m != nil && m[1] != "other" {
				in.truth.Providers[m[1]], _ = strconv.ParseUint(m[2], 10, 64)
			}
		}
	}
	res.metrics.set("setup_s", median(setups))
	res.Detail["setup_s_all"] = setups
	res.Detail["ground_truth"] = in.truth
	var err error
	if in.ref, err = os.ReadFile(refPath); err != nil {
		return nil, err
	}

	// The reference must agree with what the generator says it wrote.
	var rep struct {
		TotalQueries uint64 `json:"total_queries"`
		Providers    map[string]struct {
			Queries uint64 `json:"queries"`
		} `json:"providers"`
	}
	if err := json.Unmarshal(in.ref, &rep); err != nil {
		return nil, fmt.Errorf("reference report: %w", err)
	}
	ok := in.truth.Queries > 0 && rep.TotalQueries == in.truth.Queries && len(in.truth.Providers) > 0
	for p, n := range in.truth.Providers {
		ok = ok && rep.Providers[p].Queries == n
	}
	res.check("reference_matches_ground_truth", ok, "report: %d queries; generator: %d queries, %d cloud providers compared",
		rep.TotalQueries, in.truth.Queries, len(in.truth.Providers))
	return in, nil
}

// pass is one entrada invocation.
type pass struct {
	Kind    string  `json:"kind"` // batch, drain or paced
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	RSSMB   float64 `json:"rss_mb"`
	Packets uint64  `json:"packets"`
	Bad     uint64  `json:"malformed"`
	Same    bool    `json:"report_identical"`
	Windows int     `json:"windows,omitempty"`
	// DrainS is the time from exec to the last window closed by a packet.
	DrainS float64 `json:"drain_s,omitempty"`
}

// finishPass fills in what every kind of pass reads off the exited child.
func finishPass(p *pass, c *child, wall time.Duration, reportPath string, ref []byte) error {
	u := c.rusage()
	p.WallS, p.CPUS, p.RSSMB = wall.Seconds(), u.cpu.Seconds(), u.rssMB
	_, errl := c.lines()
	for _, l := range errl {
		if m := packetsRE.FindStringSubmatch(l); m != nil {
			p.Packets, _ = strconv.ParseUint(m[1], 10, 64)
		}
		if m := skippedRE.FindStringSubmatch(l); m != nil {
			p.Bad, _ = strconv.ParseUint(m[1], 10, 64)
		}
	}
	if p.Packets == 0 {
		return fmt.Errorf("entrada: no packet count in its summary:\n%s", strings.Join(errl, "\n"))
	}
	got, err := os.ReadFile(reportPath)
	if err != nil {
		return err
	}
	p.Same = bytes.Equal(got, ref)
	return nil
}

// passMetrics sets the metrics every capture workload derives from its
// passes, and attempted and failed packets. perS are the passes' packet
// rates: ops_per_s is their median.
func passMetrics(res *runResult, passes []pass, perS []float64, lats []float64) {
	m := res.metrics
	var cpu float64
	var pkts, bad uint64
	rss := 0.0
	identical := 0
	for _, p := range passes {
		cpu += p.CPUS
		pkts += p.Packets
		bad += p.Bad
		rss = max(rss, p.RSSMB)
		if p.Same {
			identical++
		} else {
			bad += p.Packets
		}
	}
	sort.Float64s(lats)
	m.set("ops_per_s", median(perS))
	m.set("lat_p50_ms", percentile(lats, 0.5))
	if pkts > 0 {
		m.set("cpu_us_per_op", cpu*1e6/float64(pkts))
	}
	m.set("rss_mb_peak", rss)
	res.Attempted, res.Failed = pkts, bad
	res.Detail["passes"] = passes
	res.Detail["rate_samples"] = len(perS)
	res.Detail["latency_samples"] = len(lats)
	res.check("reports_identical_to_reference", identical == len(passes) && len(passes) > 0,
		"%d of %d reports byte-identical to the -workers 1 reference", identical, len(passes))
}

// runBatch is the capture_batch workload: entrada over the finished trace
// at its default worker count, repeated to fill the run.
func (r *runner) runBatch(res *runResult) error {
	in, err := r.setupCapture(res, "capture_batch")
	if err != nil {
		return err
	}
	defer os.RemoveAll(in.dir)
	budget := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		budget /= 4
	}
	report := filepath.Join(in.dir, "report.json")
	var passes []pass
	var perS, lats []float64
	start := time.Now()
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= budget {
		sp := r.tr.begin(rootSpan, "entrada-batch")
		c, wall, err := r.runTool("entrada", nil, "-in", in.trace, "-zone", "nl", "-out", report)
		if err != nil {
			return err
		}
		p := pass{Kind: "batch"}
		if err := finishPass(&p, c, wall, report, in.ref); err != nil {
			return err
		}
		r.tr.end(sp, int64(p.Packets))
		passes = append(passes, p)
		perS = append(perS, float64(p.Packets)/p.WallS)
		lats = append(lats, p.WallS*1000)
		last = wall
	}
	passMetrics(res, passes, perS, lats)
	if r.trace {
		return r.captureLayers(res, in, false)
	}
	return nil
}

// boundary is where a window of the capture ends: the file offset just
// past the first record that belongs to a later window.
type boundary struct {
	end time.Time // exclusive end of the window in capture time
	off int64
}

// scanBoundaries reads the trace once and returns, for every window that
// a later packet closes, that packet's end offset.
func scanBoundaries(path string, width time.Duration) ([]boundary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := pcapio.NewReader(f)
	if err != nil {
		return nil, err
	}
	var out []boundary
	cur := int64(-1)
	for {
		pkt, err := rd.ReadPacket()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		idx := pkt.Timestamp.UnixNano() / int64(width)
		if cur >= 0 && idx > cur {
			// Only the open window closes; windows nobody wrote into are
			// skipped, as entrada skips them.
			out = append(out, boundary{end: time.Unix(0, (cur+1)*int64(width)).UTC(), off: rd.Offset()})
		}
		cur = max(cur, idx)
	}
}

// windowLine is one "entrada: window …" line of a follow run.
type windowLine struct {
	start   time.Time
	queries uint64
	at      time.Time
}

// followPass runs entrada -follow over path. write, when set, appends the
// capture while entrada runs and returns when each offset was on disk.
func (r *runner) followPass(in *captureInput, fp followParams, kind, path string, write func() ([]int64, []time.Time, error), bounds []boundary) (pass, []float64, error) {
	ck := filepath.Join(in.dir, "checkpoint")
	if err := os.RemoveAll(ck); err != nil {
		return pass{}, nil, err
	}
	report := filepath.Join(in.dir, "follow.json")
	var mu sync.Mutex
	var lines []windowLine
	hook := func(l string, at time.Time) {
		if m := windowRE.FindStringSubmatch(l); m != nil {
			start, err := time.Parse(time.RFC3339, m[1])
			if err != nil {
				return
			}
			q, _ := strconv.ParseUint(m[2], 10, 64)
			mu.Lock()
			lines = append(lines, windowLine{start: start, queries: q, at: at})
			mu.Unlock()
		}
	}
	argv := []string{filepath.Join(r.binDir, "entrada"), "-follow", "-in", path, "-zone", "nl",
		"-window", fp.window.String(), "-checkpoint", ck, "-idle-exit", fp.idleExit.String(), "-out", report}
	sp := r.tr.begin(rootSpan, "entrada-follow-"+kind)
	start := time.Now()
	c, err := r.procs.start("entrada", argv, hook)
	if err != nil {
		return pass{}, nil, err
	}
	var offs []int64
	var times []time.Time
	if write != nil {
		if offs, times, err = write(); err != nil {
			return pass{}, nil, err
		}
	}
	if err := c.wait(120 * time.Second); err != nil {
		_, errl := c.lines()
		return pass{}, nil, fmt.Errorf("entrada -follow: %w\n%s", err, strings.Join(errl, "\n"))
	}
	wall := time.Since(start)
	p := pass{Kind: kind}
	if err := finishPass(&p, c, wall, report, in.ref); err != nil {
		return pass{}, nil, err
	}
	r.tr.end(sp, int64(p.Packets))
	p.Windows = len(lines)
	var sum uint64
	for _, l := range lines {
		sum += l.queries
	}
	// Every window a packet closes, plus the last one flushed at exit.
	if len(lines) != len(bounds)+1 || sum != in.truth.Queries {
		p.Same = false
	}
	if len(lines) >= 2 {
		p.DrainS = lines[len(lines)-2].at.Sub(start).Seconds()
	}
	if _, err := os.Stat(filepath.Join(ck, "entrada.ckpt")); err != nil {
		p.Same = false
	}

	// Lag of each window: its line's arrival minus the moment the first
	// packet past its end was fully written.
	var lags []float64
	if write != nil {
		byEnd := make(map[int64]int64, len(bounds))
		for _, b := range bounds {
			byEnd[b.end.UnixNano()] = b.off
		}
		for _, l := range lines {
			off, ok := byEnd[l.start.Add(fp.window).UnixNano()]
			if !ok {
				continue // the final window, flushed at exit
			}
			i := sort.Search(len(offs), func(i int) bool { return offs[i] >= off })
			if i == len(offs) {
				continue
			}
			lag := l.at.Sub(times[i])
			lags = append(lags, float64(lag.Microseconds())/1000)
			r.tr.add(sp, "window-lag", int64(times[i].Sub(r.tr.base)), int64(l.at.Sub(r.tr.base)), 1)
		}
	}
	return p, lags, nil
}

// appendPaced copies src to dst in torn chunks on a fixed schedule and
// returns the offset reached by, and the completion time of, each write.
func appendPaced(src, dst string, fp followParams) ([]int64, []time.Time, error) {
	in, err := os.Open(src)
	if err != nil {
		return nil, nil, err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer out.Close()
	interval := time.Duration(float64(fp.chunk) / fp.paceBytesPerS * float64(time.Second))
	var offs []int64
	var times []time.Time
	buf := make([]byte, fp.chunk)
	start := time.Now()
	for i, off := 0, int64(0); ; i++ {
		n, err := io.ReadFull(in, buf)
		if n == 0 {
			return offs, times, nil
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return nil, nil, err
		}
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			pause(d)
		}
		if _, err := out.Write(buf[:n]); err != nil {
			return nil, nil, err
		}
		off += int64(n)
		offs = append(offs, off)
		times = append(times, time.Now())
	}
}

// runFollow is the capture_follow workload: drain passes (entrada started
// on the finished file) for the first half of the run, then paced passes
// (the file grows while entrada follows it).
func (r *runner) runFollow(res *runResult) error {
	in, err := r.setupCapture(res, "capture_follow")
	if err != nil {
		return err
	}
	defer os.RemoveAll(in.dir)
	fp := r.sizes.follow
	bounds, err := scanBoundaries(in.trace, fp.window)
	if err != nil {
		return err
	}
	budget := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		budget /= 4
	}
	live := filepath.Join(in.dir, "live.pcap")
	var passes []pass
	var perS, lags []float64
	// repeat runs one kind of pass until the next would end after until,
	// once at least.
	start := time.Now()
	repeat := func(until time.Duration, one func() error) error {
		var last time.Duration
		for n := 0; n == 0 || time.Since(start)+last <= until; n++ {
			t0 := time.Now()
			if err := one(); err != nil {
				return err
			}
			last = time.Since(t0)
		}
		return nil
	}
	err = repeat(budget/2, func() error {
		d, _, err := r.followPass(in, fp, "drain", in.trace, nil, bounds)
		passes = append(passes, d)
		if d.DrainS > 0 {
			perS = append(perS, float64(d.Packets)/d.DrainS)
		}
		return err
	})
	if err != nil {
		return err
	}
	err = repeat(budget, func() error {
		if err := os.WriteFile(live, nil, 0o644); err != nil {
			return err
		}
		p, l, err := r.followPass(in, fp, "paced", live, func() ([]int64, []time.Time, error) {
			return appendPaced(in.trace, live, fp)
		}, bounds)
		passes = append(passes, p)
		lags = append(lags, l...)
		return err
	})
	if err != nil {
		return err
	}
	passMetrics(res, passes, perS, lags)
	m := res.metrics
	m.set("capture.windows_closed", float64(passes[0].Windows))
	m.set("capture.window_lag_ms_p50", percentile(lags, 0.5))
	m.set("capture.window_lag_ms_p95", percentile(lags, 0.95))
	res.check("every_window_closed", passes[0].Windows == len(bounds)+1,
		"%d window lines per pass, %d expected; their query counts sum to the total in every pass that is identical", passes[0].Windows, len(bounds)+1)

	// The last checkpoint must restore: resume from it and expect the same report.
	resumed := filepath.Join(in.dir, "resumed.json")
	c, _, err := r.runTool("entrada", nil, "-follow", "-resume", "-in", live, "-zone", "nl", "-window", fp.window.String(),
		"-checkpoint", filepath.Join(in.dir, "checkpoint"), "-idle-exit", "100ms", "-out", resumed)
	if err != nil {
		return err
	}
	_, errl := c.lines()
	got, _ := os.ReadFile(resumed)
	res.check("checkpoint_restores", strings.Contains(strings.Join(errl, "\n"), "resumed from checkpoint") && bytes.Equal(got, in.ref),
		"entrada -resume from the last checkpoint: report identical to the reference = %v", bytes.Equal(got, in.ref))
	if r.trace {
		return r.captureLayers(res, in, true)
	}
	return nil
}
