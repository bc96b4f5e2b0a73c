package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// serveParams fixes one serve workload. The rates are constants calibrated
// once on the seed commit (bench/README.md says how) and never tuned by a
// run: a run that moved its own rates could not be compared with another.
type serveParams struct {
	hot bool
	// names is the size of the hot name universe; domains the size of the
	// zone the authserver serves and the cold workload draws from.
	names, domains int
	// fill is how many answers the cold set-up waits for: the recursor's
	// default cache bound (-cache-entries 65536) and a little more, so that
	// every query of the run evicts an entry.
	fill         int
	limit        time.Duration // latency limit of a ladder rung
	rateLow      float64       // ≈20 % of what the seed answers under overload
	rateHigh     float64       // ≈40 % of it
	rateOverload float64       // ≈150 % of it: what is answered then is ops_per_s
	ladderLo     float64
	ladderHi     float64
	ladderStep   float64
	rungDur      time.Duration
}

var serveHot = serveParams{
	hot: true, names: 2000, domains: 100_000, limit: 5 * time.Millisecond,
	rateLow: 80_000, rateHigh: 160_000, rateOverload: 650_000,
	ladderLo: 200_000, ladderHi: 640_000, ladderStep: 1.04, rungDur: 150 * time.Millisecond,
}

var serveCold = serveParams{
	hot: false, names: 2000, domains: 100_000, fill: 66_000, limit: 20 * time.Millisecond,
	rateLow: 3_000, rateHigh: 6_000, rateOverload: 20_000,
	ladderLo: 4_000, ladderHi: 16_000, ladderStep: 1.04, rungDur: 150 * time.Millisecond,
}

// stack is one booted authserver → recursor pair with the generator's
// flows connected to the recursor.
type stack struct {
	auth, rec *child
	recAddr   netip.AddrPort
	authAddr  netip.AddrPort
	gen       *loadGen
}

var listenRE = regexp.MustCompile(` on (127\.0\.0\.1:\d+) `)

// bootServer starts one server binary on an ephemeral loopback port and
// returns the address it printed.
func (r *runner) bootServer(cpus []int, name string, args ...string) (*child, netip.AddrPort, error) {
	argv := append([]string{filepath.Join(r.binDir, name)}, args...)
	c, err := r.procs.startOn(cpus, name, argv)
	if err != nil {
		return nil, netip.AddrPort{}, err
	}
	line, err := c.awaitLine("serving", 20*time.Second)
	if err != nil {
		return nil, netip.AddrPort{}, err
	}
	m := listenRE.FindStringSubmatch(line)
	if m == nil {
		return nil, netip.AddrPort{}, fmt.Errorf("%s: no listen address in %q", name, line)
	}
	addr, err := netip.ParseAddrPort(m[1])
	return c, addr, err
}

// bootStack starts authserver and recursor with their default flags (only
// addresses and zone size set), connects the flows and warms the cache.
func (r *runner) bootStack(p serveParams) (*stack, error) {
	st := &stack{}
	var err error
	st.auth, st.authAddr, err = r.bootServer(r.sutCPUs, "authserver", "-zone", "nl", "-domains", strconv.Itoa(p.domains), "-listen", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.rec, st.recAddr, err = r.bootServer(r.sutCPUs, "recursor", "-zone", "nl", "-listen", "127.0.0.1:0", "-upstreams", "local="+st.authAddr.String())
	if err != nil {
		return nil, err
	}
	// One connected socket, and so one flow, per generator CPU.
	conns := make([]*net.UDPConn, len(r.genCPUs))
	for i := range conns {
		if conns[i], err = net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(st.recAddr)); err != nil {
			return nil, err
		}
	}
	if st.gen, err = newLoadGen(conns, p.limit, r.seed); err != nil {
		return nil, err
	}
	// Warm-up. Hot: each name once, in rank order, slowly enough that the
	// miss path keeps up; a name whose query got lost is asked again, the
	// second pass finds the others cached. Cold: never-repeating names at
	// the overload rate until the cache has reached its bound.
	if p.hot {
		var next atomic.Int64
		enumerate := func(_ *rand.Rand, buf []byte) ([]byte, int, uint8) {
			pkt, qend := appendQuery(buf, hotName(int(next.Add(1))), false)
			return pkt, qend, 0
		}
		for try := 0; try < 3; try++ {
			next.Store(0)
			res := st.gen.run([]segment{{rate: 5000, dur: time.Duration(float64(p.names) / 5000 * float64(time.Second))}}, enumerate, nil)[0]
			if res.wrong > 0 {
				return nil, fmt.Errorf("warm-up: %d of %d queries answered wrongly", res.wrong, res.attempted)
			}
			if res.lost() == 0 {
				break
			}
		}
		return st, nil
	}
	segs := make([]segment, 120)
	for i := range segs {
		segs[i] = segment{rate: p.rateOverload, dur: 500 * time.Millisecond}
	}
	var answered, wrong uint64
	st.gen.run(segs, coldGen(p.domains, &r.coldSeq), func(j int, peek func(int) segStats) bool {
		s := peek(j)
		answered, wrong = answered+s.within+s.over, wrong+s.wrong
		return answered < uint64(p.fill) && wrong == 0
	})
	if answered < uint64(p.fill) || wrong > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d answers, %d wrong", answered, p.fill, wrong)
	}
	return st, nil
}

// stop shuts both servers down with SIGINT and returns their reports.
func (st *stack) stop() (recOut, authOut []string, err error) {
	st.gen.close()
	if err = st.rec.signalAndWait(syscall.SIGINT); err == nil {
		err = st.auth.signalAndWait(syscall.SIGINT)
	}
	recOut, _ = st.rec.lines()
	authOut, _ = st.auth.lines()
	return recOut, authOut, err
}

// hotName is the wire-format name of the rank-th hot name, www.d<rank>.nl.
func hotName(rank int) []byte {
	b := appendLabel(nil, "www")
	b = appendLabel(b, "d"+strconv.Itoa(rank))
	b = appendLabel(b, "nl")
	return append(b, 0)
}

// hotGen draws names from Zipf(s=1) over ranks 1..names (math/rand's Zipf
// needs s > 1, so the distribution is tabulated here). Queries are built
// once; a draw costs one binary search and a copy.
func hotGen(names int) queryGen {
	cdf := make([]float64, names)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	type q struct {
		pkt  []byte
		qend int
	}
	qs := make([]q, names)
	for i := range qs {
		qs[i].pkt, qs[i].qend = appendQuery(nil, hotName(i+1), false)
	}
	return func(rng *rand.Rand, buf []byte) ([]byte, int, uint8) {
		i := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if i >= names {
			i = names - 1
		}
		return append(buf, qs[i].pkt...), qs[i].qend, 0
	}
}

// coldGen builds names that never repeat while dnsbench lives (seq is
// shared by every run): 80 % w<n>.d<rank>.nl. under a uniformly drawn
// delegation, answered with a NOERROR referral, and 20 % j<n>.nl., junk
// directly under the origin, answered NXDOMAIN. Half of each carry DO.
func coldGen(domains int, seq *atomic.Uint64) queryGen {
	return func(rng *rand.Rand, buf []byte) ([]byte, int, uint8) {
		n := strconv.FormatUint(seq.Add(1), 10)
		var name [64]byte
		b := name[:0]
		want := uint8(0)
		if rng.Intn(5) == 0 {
			b = appendLabel(b, "j"+n)
			want = 3
		} else {
			b = appendLabel(b, "w"+n)
			b = appendLabel(b, "d"+strconv.Itoa(rng.Intn(domains)))
		}
		b = appendLabel(b, "nl")
		b = append(b, 0)
		pkt, qend := appendQuery(buf, b, rng.Intn(2) == 0)
		return pkt, qend, want
	}
}

// phaseResult is what a run measured at one fixed rate: a stretch on each
// of its stacks, cut into slices. What is reported of it is the median
// over the slices that count: a slice in which the generator was late
// (generatorBound) says nothing about the servers and is left out, as a
// ladder rung would be.
type phaseResult struct {
	Rate      float64 `json:"rate_qps"`
	Attempted uint64  `json:"attempted"`
	Answered  uint64  `json:"answered"`
	Lost      uint64  `json:"lost"`
	Unsent    uint64  `json:"unsent"` // of the lost: dropped by a generator over maxLag behind
	Wrong     uint64  `json:"wrong"`
	Over      uint64  `json:"over_limit"`
	Slices    int     `json:"slices"`
	Counted   int     `json:"slices_counted"` // the sample count behind the medians
	// Medians over the counted slices.
	AnsweredPerS float64 `json:"answered_per_s"`
	P50          float64 `json:"lat_p50_ms"`
	P75          float64 `json:"lat_p75_ms"`
	P90          float64 `json:"lat_p90_ms"`
	P99          float64 `json:"lat_p99_ms"`
	// Over every sample of the phase.
	AllP50  float64 `json:"lat_p50_ms_all"`
	AllP99  float64 `json:"lat_p99_ms_all"`
	AllP999 float64 `json:"lat_p999_ms_all"`
	Max     float64 `json:"lat_max_ms"`
	LateP99 float64 `json:"gen_late_us_p99"`
	Late1ms uint64  `json:"gen_late_over_1ms"`
	// Per slice, stack after stack.
	SliceP50      []float64 `json:"slice_p50_ms"`
	SliceP75      []float64 `json:"slice_p75_ms"`
	SliceP90      []float64 `json:"slice_p90_ms"`
	SliceP99      []float64 `json:"slice_p99_ms"`
	SlicePerS     []float64 `json:"slice_answered_per_s"`
	SliceGenBound []bool    `json:"slice_generator_bound"`

	recCPU, authCPU, selfCPU time.Duration
	lat, sendLate            []uint32
}

// sliceLen is the length of one slice of a fixed-rate phase.
const sliceLen = 500 * time.Millisecond

// sortedMS returns the samples in milliseconds, ascending.
func sortedMS(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// fixedRate offers ph.Rate to the stack for dur, adds what happened to ph
// and accounts the CPU the servers and the generator used meanwhile.
func (r *runner) fixedRate(st *stack, ph *phaseResult, name string, dur time.Duration, gen queryGen) error {
	slice := min(sliceLen, dur)
	segs := make([]segment, max(1, int(dur/slice)))
	for i := range segs {
		segs[i] = segment{rate: ph.Rate, dur: slice}
	}
	sp := r.tr.begin(rootSpan, "phase:"+name)
	rec0, err := st.rec.cpu()
	if err != nil {
		return err
	}
	auth0, err := st.auth.cpu()
	if err != nil {
		return err
	}
	self0 := selfCPU()
	stats := st.gen.run(segs, gen, nil)
	ph.selfCPU += selfCPU() - self0
	rec1, _ := st.rec.cpu()
	auth1, _ := st.auth.cpu()
	ph.recCPU, ph.authCPU = ph.recCPU+rec1-rec0, ph.authCPU+auth1-auth0

	attempted := uint64(0)
	for i := range stats {
		s := &stats[i]
		attempted += s.attempted
		ph.Attempted += s.attempted
		ph.Answered += s.within + s.over
		ph.Lost += s.lost()
		ph.Unsent += s.unsent
		ph.Wrong += s.wrong
		ph.Over += s.over
		ph.Late1ms += s.late1ms
		ms := sortedMS(s.lat)
		ph.SliceP50 = append(ph.SliceP50, percentile(ms, 0.50))
		ph.SliceP75 = append(ph.SliceP75, percentile(ms, 0.75))
		ph.SliceP90 = append(ph.SliceP90, percentile(ms, 0.90))
		ph.SliceP99 = append(ph.SliceP99, percentile(ms, 0.99))
		ph.SlicePerS = append(ph.SlicePerS, float64(s.within+s.over)/slice.Seconds())
		ph.SliceGenBound = append(ph.SliceGenBound, generatorBound(s))
		ph.lat = append(ph.lat, s.lat...)
		ph.sendLate = append(ph.sendLate, s.sendLate...)
	}
	r.tr.end(sp, int64(attempted))
	return nil
}

// finish computes what is reported of the phase from its slices.
func (ph *phaseResult) finish() {
	counted := func(v []float64) []float64 {
		var out []float64
		for i, x := range v {
			if !ph.SliceGenBound[i] {
				out = append(out, x)
			}
		}
		return out
	}
	ph.Slices, ph.Counted = len(ph.SlicePerS), len(counted(ph.SlicePerS))
	ph.AnsweredPerS = median(counted(ph.SlicePerS))
	ph.P50, ph.P75 = median(counted(ph.SliceP50)), median(counted(ph.SliceP75))
	ph.P90, ph.P99 = median(counted(ph.SliceP90)), median(counted(ph.SliceP99))
	ms := sortedMS(ph.lat)
	ph.AllP50, ph.AllP99, ph.AllP999 = percentile(ms, 0.5), percentile(ms, 0.99), percentile(ms, 0.999)
	if len(ms) > 0 {
		ph.Max = ms[len(ms)-1]
	}
	ph.LateP99 = percentile(sortedMS(ph.sendLate), 0.99) * 1000
	ph.lat, ph.sendLate = nil, nil
}

var (
	hitRateRE     = regexp.MustCompile(`\((\d+) hits, (\d+) misses`)
	authQueriesRE = regexp.MustCompile(`authserver: (\d+) queries`)
)

// runServe is the serve_hot and serve_cold workloads: open-loop stub load
// on recursor → authserver over loopback.
func (r *runner) runServe(res *runResult, p serveParams) error {
	m := res.metrics
	unpin, err := pinSelf(r.genCPUs)
	if err != nil {
		return err
	}
	defer unpin()
	res.Detail["generator_cpus"], res.Detail["server_cpus"] = r.genCPUs, r.sutCPUs
	// A run boots the stack several times and measures a share of its time
	// on each: set-up time is a median that way, and so is everything else.
	// How fast a recursor process is differs from one start to the next
	// (on serve_cold its kernel time per query by a factor of two), and a
	// run on one stack would report that stack's luck.
	gen := hotGen(p.names)
	if !p.hot {
		gen = coldGen(p.domains, &r.coldSeq)
	}
	stacks := r.sizes.setupReps
	share := time.Duration(r.seconds * float64(time.Second) / float64(stacks))
	flood, low, high := phaseResult{Rate: p.rateOverload}, phaseResult{Rate: p.rateLow}, phaseResult{Rate: p.rateHigh}
	traced := phaseResult{Rate: p.rateHigh}
	var climbs []climbResult
	var setups []float64
	var strays, hits, misses uint64
	var rssMB float64
	layersSpan := 0
	for i := 0; i < stacks; i++ {
		sp := r.tr.begin(rootSpan, "setup")
		t0 := time.Now()
		st, err := r.bootStack(p)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(sp, 1)
		res.Detail["flows"] = len(st.gen.flows)

		if !r.trace {
			// Saturation first: what follows then starts from the same state
			// on every stack, the server's buffers drained.
			if err := r.fixedRate(st, &flood, "overload", share*35/100, gen); err != nil {
				return err
			}
			st.gen.quiesce()
			if err := r.fixedRate(st, &low, "low", share*35/100, gen); err != nil {
				return err
			}
			if err := r.fixedRate(st, &high, "high", share*25/100, gen); err != nil {
				return err
			}
		} else {
			if err := r.fixedRate(st, &low, "low", share/4, gen); err != nil {
				return err
			}
			if err := r.fixedRate(st, &high, "high", share/4, gen); err != nil {
				return err
			}
			// The same phase again with sampled exchanges recorded as spans:
			// what tracing costs is the difference.
			spans := make([][][2]int64, len(st.gen.flows))
			for i, f := range st.gen.flows {
				f.mu.Lock()
				f.spans = &spans[i]
				f.mu.Unlock()
			}
			sp := r.tr.begin(rootSpan, "traced-exchanges")
			before := traced.Attempted
			if err := r.fixedRate(st, &traced, "high-traced", share/4, gen); err != nil {
				return err
			}
			r.tr.end(sp, int64(traced.Attempted-before))
			off := int64(st.gen.base.Sub(r.tr.base))
			for i, f := range st.gen.flows {
				f.mu.Lock()
				f.spans = nil
				f.mu.Unlock()
				for _, s := range spans[i] {
					r.tr.add(sp, "exchange", s[0]+off, s[1]+off, 1)
				}
			}
			// The ladder, for as long as the last quarter lasts.
			rungs := ladder(p.ladderLo, p.ladderHi, p.ladderStep, p.rungDur)
			budget := time.Now().Add(share / 4)
			var last time.Duration
			for n := 0; n == 0 || time.Now().Add(last).Before(budget); n++ {
				sp := r.tr.begin(rootSpan, "climb")
				t0 := time.Now()
				c := st.gen.climb(rungs, gen)
				r.tr.end(sp, int64(len(c.Rungs)))
				climbs = append(climbs, c)
				st.gen.quiesce()
				last = time.Since(t0)
			}
			if i == stacks-1 {
				layersSpan = r.tr.begin(rootSpan, "layers")
				if err := r.exchangeProbe(res, layersSpan, p, st.authAddr); err != nil {
					return err
				}
			}
		}

		strays += st.gen.strays()
		recOut, authOut, err := st.stop()
		if err != nil {
			return err
		}
		rssMB = max(rssMB, st.rec.rusage().rssMB, st.auth.rusage().rssMB)
		found := false
		for _, l := range recOut {
			if mm := hitRateRE.FindStringSubmatch(l); mm != nil {
				h, _ := strconv.ParseUint(mm[1], 10, 64)
				ms, _ := strconv.ParseUint(mm[2], 10, 64)
				hits, misses, found = hits+h, misses+ms, true
			}
		}
		if !found {
			return fmt.Errorf("recursor: no hit and miss counts in its shutdown report:\n%s", strings.Join(recOut, "\n"))
		}
		for _, l := range authOut {
			if mm := authQueriesRE.FindStringSubmatch(l); mm != nil {
				res.Detail["authserver_queries"] = mm[1]
			}
		}
	}
	// The rest runs in this process and may use every CPU again.
	unpin()
	m.set("setup_s", median(setups))
	res.Detail["setup_s_all"] = setups
	for _, ph := range []*phaseResult{&flood, &low, &high, &traced} {
		ph.finish()
	}
	wrong := flood.Wrong + high.Wrong + low.Wrong + traced.Wrong

	// Metrics.
	cpuPerOp := func(ph phaseResult, cpu time.Duration) float64 {
		if ph.Answered == 0 {
			return 0
		}
		return float64(cpu.Microseconds()) / float64(ph.Answered)
	}
	m.set("lat_p50_ms", low.P50)
	m.set("cpu_us_per_op", cpuPerOp(high, high.recCPU+high.authCPU))
	m.set("rss_mb_peak", rssMB)
	m.set("serve.lat_p50_ms_high", high.P50)
	m.set("serve.lat_p99_ms_high", high.P99)
	m.set("recursor.cpu_us_per_query", cpuPerOp(high, high.recCPU))
	m.set("authserver.cpu_us_per_query", cpuPerOp(high, high.authCPU))
	m.set("bench.gen_late_us_p99", high.LateP99)
	if all := high.selfCPU + high.recCPU + high.authCPU; all > 0 {
		m.set("bench.gen_cpu_share", float64(high.selfCPU)/float64(all))
	}
	if high.Attempted > 0 {
		m.set("serve.over_limit_ratio", float64(high.Over)/float64(high.Attempted))
	}
	m.set("serve.lat_p50_ms_low", low.P50)
	m.set("serve.lat_p75_ms_low", low.P75)
	m.set("serve.lat_p90_ms_low", low.P90)
	m.set("serve.lat_p99_ms_low", low.P99)
	res.Detail["low"], res.Detail["high"] = low, high
	// Queries the generator dropped because it had fallen behind never
	// reached the servers: they are reported, not counted against them.
	unsent := low.Unsent + high.Unsent + traced.Unsent
	res.Attempted = low.Attempted + high.Attempted + traced.Attempted - unsent
	res.Failed = low.Lost + low.Wrong + high.Lost + high.Wrong + traced.Lost + traced.Wrong - unsent
	res.Detail["generator_unsent"] = unsent
	if r.trace {
		res.Detail["high_traced"] = traced
		if base := cpuPerOp(high, high.recCPU+high.authCPU); base > 0 {
			m.set("bench.trace_overhead_ratio", cpuPerOp(traced, traced.recCPU+traced.authCPU)/base-1)
		}
		var rates []float64
		gb := 0
		for _, c := range climbs {
			rates = append(rates, c.MaxRate)
			gb += c.GeneratorBound
		}
		m.set("serve.max_rate_qps", median(rates))
		m.set("bench.gen_bound_rungs", float64(gb))
		res.Detail["climbs"] = climbs
	} else {
		m.set("ops_per_s", flood.AnsweredPerS)
		res.Detail["overload"] = flood
		// A fall in throughput is a cost only if the servers' CPUs were busy.
		res.Detail["overload_server_cpus_busy"] = (flood.recCPU + flood.authCPU).Seconds() / (float64(flood.Slices) * sliceLen.Seconds())
	}

	// Output checks.
	phases := map[string]phaseResult{"low": low, "high": high}
	if r.trace {
		phases["high-traced"] = traced
	} else {
		phases["overload"] = flood
		// What the overload answers is the servers' capacity only if they
		// were offered more than that.
		sent := flood.Attempted - flood.Unsent
		res.check("overload_saturates", float64(flood.Answered) <= 0.97*float64(sent),
			"%d of the %d queries sent at %.0f/s answered; once over 97 %% are, the servers keep up and rateOverload must go up", flood.Answered, sent, flood.Rate)
	}
	kept, detail := true, ""
	for _, name := range []string{"overload", "low", "high", "high-traced"} {
		if ph, ok := phases[name]; ok {
			kept = kept && 2*ph.Counted >= ph.Slices
			detail += fmt.Sprintf(" %s %d/%d", name, ph.Counted, ph.Slices)
		}
	}
	res.check("generator_kept_up", kept, "slices that count (no more than 5 %% of their queries over 1 ms late), of all:%s; want at least half in every phase", detail)
	res.check("replies_valid", wrong == 0, "%d replies with the wrong id, question or rcode", wrong)
	res.check("fixed_rate_loss", float64(res.Failed) <= 0.05*float64(res.Attempted),
		"%d of %d queries at fixed rates lost or wrong, want ≤ 5 %% (%d more never left the generator; %d stray replies)", res.Failed, res.Attempted, unsent, strays)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.set("recursor.hit_ratio", ratio)
	if p.hot {
		res.check("hit_ratio", ratio >= 0.99, "recursor reports: %d hits, %d misses, ratio %.4f (want ≥ 0.99)", hits, misses, ratio)
	} else {
		res.check("hit_ratio", ratio <= 0.01, "recursor reports: %d hits, %d misses, ratio %.4f (want ≤ 0.01)", hits, misses, ratio)
	}

	if r.trace {
		defer func() { r.tr.end(layersSpan, 1) }()
		return r.serveLayers(res, layersSpan, p)
	}
	return nil
}
