package main

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dnscentral/internal/udpengine"
)

// The open-loop generator: stub queries leave on a fixed schedule whether
// or not earlier ones were answered, and each query's latency runs from
// the instant it was due, not the instant it was sent, so a stall in the
// server (or in the generator) shows up in every query scheduled during
// it instead of being hidden by a sender that waits (coordinated
// omission).

// queryGen appends one complete DNS query (ID bytes zero) to buf and
// returns it with the offset just past its question section and the rcode
// a correct answer carries.
type queryGen func(rng *rand.Rand, buf []byte) (pkt []byte, qend int, want uint8)

// segment is a stretch of the schedule at one offered rate.
type segment struct {
	rate float64 // queries per second over all senders
	dur  time.Duration
}

// segStats is what one segment's queries did. Each flow keeps its own
// copy under its lock; run merges them.
type segStats struct {
	attempted uint64
	within    uint64 // answered correctly within the latency limit
	over      uint64 // answered correctly, past the limit
	wrong     uint64 // answered with the wrong rcode, question or flags
	late1ms   uint64 // left the generator more than 1 ms after they were due
	unsent    uint64 // dropped by the generator, which was more than maxLag behind
	lat       []uint32
	sendLate  []uint32

	// Unanswered queries when the segment began and ended.
	backlogStart, backlogEnd int64
}

// lost is the number of queries never answered (counted after the drain).
func (s *segStats) lost() uint64 { return s.attempted - s.within - s.over - s.wrong }

// maxLag bounds how far a flow may fall behind its schedule. Queries older
// than this are not sent any more: they count as attempted, unsent and
// late. Without the bound a flow that cannot keep up spends all its time on
// an ever longer burst and never reads an answer.
const maxLag = 5 * time.Millisecond

func (s *segStats) add(o *segStats) {
	s.attempted += o.attempted
	s.within += o.within
	s.over += o.over
	s.wrong += o.wrong
	s.late1ms += o.late1ms
	s.unsent += o.unsent
	s.lat = append(s.lat, o.lat...)
	s.sendLate = append(s.sendLate, o.sendLate...)
}

// slot is the pending-query record behind one DNS ID of one flow.
type slot struct {
	due  int64 // ns since loadGen.base; 0 = free
	st   *segStats
	want uint8
	qlen uint8
	q    [46]byte // question section as sent
}

// flow is one connected UDP socket (one 4-tuple, so one SO_REUSEPORT shard
// of the server) and the one thread that both sends on it and reads from
// it, in turn. Two threads, a sender and a receiver, would share the
// generator's CPU by the kernel's time slices, and a sender that waits a
// slice of some milliseconds for its turn is late with every query due
// meanwhile.
type flow struct {
	conn *net.UDPConn
	cb   *udpengine.ClientBatch
	fd   int32

	cur atomic.Pointer[cursor] // the flow's share of the current run; nil between runs

	mu     sync.Mutex // guards what follows against run's peek and drain
	slots  []slot     // indexed by DNS ID
	nextID uint16
	stats  []segStats // one per segment of the current run
	stray  uint64     // replies that matched no pending query
	// spans, when non-nil, receives one (due, answered) pair per sampled
	// exchange: the traced run's end-to-end spans.
	spans *[][2]int64
}

// job is one run's schedule, shared by the flows.
type job struct {
	segs   []segment
	starts []int64 // ns since loadGen.base; one more than segs
	gen    queryGen
	stopAt atomic.Int32 // first segment that must not run
	wg     sync.WaitGroup
}

// cursor is a flow's place in its 1/flows share of a job.
type cursor struct {
	job  *job
	flow int // the flow's index
	j, k int // segment, and query within the flow's share of it
	rng  *rand.Rand
	// The burst being sent: when each query was due, and the queries.
	dues  [burst]int64
	pkts  [burst][]byte
	stage [burst][128]byte
}

// loadGen drives a set of flows.
type loadGen struct {
	flows   []*flow
	limit   time.Duration // latency limit of the workload
	timeout time.Duration // a query unanswered after this long is lost
	base    time.Time
	seed    int64

	runs           int // run calls so far: each draws from its own random stream
	sent, answered atomic.Int64
	received       atomic.Int64 // datagrams of any kind, for quiesce
	closed         atomic.Bool
	loops          sync.WaitGroup
}

// pause sleeps for d in the kernel. The Go runtime rounds a timer up to a
// millisecond when its scheduler is otherwise idle; nanosleep is good to
// some tens of microseconds.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

const (
	// sampleEvery is the share of exchanges the traced run records as spans.
	sampleEvery = 256
	// burst is the most a flow sends before it reads again, and the size of
	// its send and receive batches.
	burst = 128
	// idlePoll is how often a flow without a job looks for one.
	idlePoll = time.Millisecond
)

func newLoadGen(conns []*net.UDPConn, limit time.Duration, seed int64) (*loadGen, error) {
	g := &loadGen{limit: limit, timeout: time.Second, base: time.Now(), seed: seed}
	for _, c := range conns {
		cb, err := udpengine.NewClientBatch(c, burst, 512)
		if err != nil {
			return nil, err
		}
		cb.EnableGSO()
		_ = c.SetReadBuffer(4 << 20)
		f := &flow{conn: c, cb: cb, slots: make([]slot, 1<<16)}
		rc, err := c.SyscallConn()
		if err != nil {
			return nil, err
		}
		if err := rc.Control(func(fd uintptr) { f.fd = int32(fd) }); err != nil {
			return nil, err
		}
		unpoll(f.fd)
		g.flows = append(g.flows, f)
		g.loops.Add(1)
		go g.loop(f)
	}
	return g, nil
}

// unpoll takes a flow's socket out of the Go runtime's epoll set. The flow
// waits for its socket itself (readable), but the runtime also watches
// every socket it opened: each arriving answer woke one of its threads,
// which found no goroutine waiting, looked for other work and went back to
// sleep, some 20 000 times a second on the flow's own CPU. That was a
// quarter of the generator's CPU and, by preempting the flow, most of its
// lateness. The price: a read or write that met EAGAIN would wait for an
// event that never comes. The flow reads only when poll has said there is
// something, and a loopback send never fills the send buffer. Where /proc
// is missing the socket stays watched, and the generator is late sooner.
func unpoll(fd int32) {
	ents, _ := os.ReadDir("/proc/self/fd")
	for _, e := range ents {
		if l, _ := os.Readlink("/proc/self/fd/" + e.Name()); l == "anon_inode:[eventpoll]" {
			if ep, err := strconv.Atoi(e.Name()); err == nil {
				_ = syscall.EpollCtl(ep, syscall.EPOLL_CTL_DEL, int(fd), nil)
			}
		}
	}
}

// close stops the flows' threads and shuts the sockets.
func (g *loadGen) close() {
	g.closed.Store(true)
	g.loops.Wait()
	for _, f := range g.flows {
		f.conn.Close()
	}
}

func (g *loadGen) now() int64 { return int64(time.Since(g.base)) }

// loop is a flow's thread: send what is due, wait until an answer has
// arrived or the next query is due, read what has arrived, and again.
func (g *loadGen) loop(f *flow) {
	defer g.loops.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Wake when asked to, not up to the default 50 µs of timer slack later.
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	for !g.closed.Load() {
		wait := idlePoll
		if c := f.cur.Load(); c != nil {
			wait = g.step(f, c)
		}
		if f.readable(wait) {
			g.receive(f)
		}
	}
}

// readable waits until the flow's socket has something to read, for at
// most wait.
func (f *flow) readable(wait time.Duration) bool {
	pfd := struct {
		fd              int32
		events, revents int16
	}{fd: f.fd, events: 1 /* POLLIN */}
	ts := syscall.NsecToTimespec(int64(wait))
	n, _, _ := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	// A pending socket error counts: reading is what clears it.
	return n == 1 && pfd.revents != 0
}

// receive reads one batch of replies; readable has said there is one.
func (g *loadGen) receive(f *flow) {
	views, err := f.cb.Recv()
	if err != nil {
		return // e.g. port unreachable once the server has gone
	}
	now := g.now()
	g.received.Add(int64(len(views)))
	matched := 0
	f.mu.Lock()
	for _, v := range views {
		if f.handle(v, now, int64(g.limit)) {
			matched++
		}
	}
	f.mu.Unlock()
	g.answered.Add(int64(matched))
}

// handle checks one reply against its pending slot. Called with f.mu held.
func (f *flow) handle(v []byte, now, limit int64) bool {
	if len(v) < 12 {
		f.stray++
		return false
	}
	id := uint16(v[0])<<8 | uint16(v[1])
	sl := &f.slots[id]
	if sl.due == 0 {
		f.stray++
		return false
	}
	st, lat, n := sl.st, now-sl.due, int(sl.qlen)
	ok := v[2]&0x80 != 0 && v[3]&0x0F == sl.want && len(v) >= 12+n && bytes.Equal(v[12:12+n], sl.q[:n])
	switch {
	case !ok:
		st.wrong++
	case lat <= limit:
		st.within++
	default:
		st.over++
	}
	if ok {
		st.lat = append(st.lat, uint32(min(lat, math.MaxUint32)))
		if f.spans != nil && id%sampleEvery == 0 {
			*f.spans = append(*f.spans, [2]int64{sl.due, now})
		}
	}
	sl.due = 0
	return true
}

// step sends the queries of the flow's share that are due, a burst at
// most, and returns how long until the next one is (0 when it has sent:
// more may be due already). When the share is done it gives the job back.
func (g *loadGen) step(f *flow, c *cursor) time.Duration {
	jb := c.job
	for {
		if c.j >= len(jb.segs) || int32(c.j) >= jb.stopAt.Load() {
			f.cur.Store(nil)
			jb.wg.Done()
			return idlePoll
		}
		// The flows interleave: each has 1/flows of the rate, offset by its
		// index.
		interval := float64(time.Second) * float64(len(g.flows)) / jb.segs[c.j].rate
		count := int(float64(jb.segs[c.j].dur) / interval)
		if c.k >= count {
			c.j, c.k = c.j+1, 0
			continue
		}
		first := float64(jb.starts[c.j]) + float64(c.flow)/float64(len(g.flows))*interval
		dueAt := func(k int) int64 { return int64(first + float64(k)*interval) }
		now := g.now()
		if due := dueAt(c.k); due > now {
			return time.Duration(due - now)
		}
		f.mu.Lock()
		st := &f.stats[c.j]
		// Whatever is more than maxLag overdue is given up, in one go.
		if skip := min(count, int((float64(now-int64(maxLag))-first)/interval)+1) - c.k; skip > 0 {
			st.attempted += uint64(skip)
			st.unsent += uint64(skip)
			st.late1ms += uint64(skip)
			c.k += skip
		}
		n := 0
		for ; n < burst && c.k < count; n, c.k = n+1, c.k+1 {
			due := dueAt(c.k)
			if due > now {
				break
			}
			pkt, qend, want := jb.gen(c.rng, c.stage[n][:0])
			f.register(st, pkt, qend, want, due)
			c.dues[n], c.pkts[n] = due, pkt
		}
		// Queries of one size go next to each other: the send batch makes
		// one segmented datagram (UDP GSO) of such a run.
		for i, pkt := range c.pkts[:n] {
			for j := i; pkt != nil && j < n; j++ {
				if len(c.pkts[j]) == len(pkt) {
					_ = f.cb.Queue(c.pkts[j]) // a send error shows up as a lost query
					c.pkts[j] = nil
				}
			}
		}
		_ = f.cb.Flush()
		// A query has left the generator when its batch has.
		left := g.now()
		for _, due := range c.dues[:n] {
			late := left - due
			if late > int64(time.Millisecond) {
				st.late1ms++
			}
			st.sendLate = append(st.sendLate, uint32(min(late, math.MaxUint32)))
		}
		f.mu.Unlock()
		g.sent.Add(int64(n))
		return 0
	}
}

// register enters one query into the flow's pending table and gives it its
// ID. Called with f.mu held.
func (f *flow) register(st *segStats, pkt []byte, qend int, want uint8, due int64) {
	id := f.nextID
	f.nextID++
	sl := &f.slots[id]
	sl.due, sl.st, sl.want = due, st, want
	sl.qlen = uint8(copy(sl.q[:], pkt[12:qend]))
	st.attempted++
	pkt[0], pkt[1] = byte(id>>8), byte(id)
}

// run plays the segments back to back and returns one merged segStats per
// segment that ran to its end. onSegEnd, when set, is called as each
// segment's schedule ends and may return false to stop the run there;
// peek lets it read a segment's counts so far.
func (g *loadGen) run(segs []segment, gen queryGen, onSegEnd func(j int, peek func(j int) segStats) bool) []segStats {
	g.runs++
	jb := &job{segs: segs, gen: gen, starts: make([]int64, len(segs)+1)}
	starts := jb.starts
	starts[0] = g.now() + int64(5*idlePoll)
	for j, s := range segs {
		starts[j+1] = starts[j] + int64(s.dur)
	}
	jb.stopAt.Store(int32(len(segs)))
	jb.wg.Add(len(g.flows))
	for i, f := range g.flows {
		f.mu.Lock()
		f.stats = make([]segStats, len(segs))
		for j, s := range segs {
			n := int(s.rate*s.dur.Seconds())/len(g.flows) + 64
			f.stats[j].lat = make([]uint32, 0, n)
			f.stats[j].sendLate = make([]uint32, 0, n)
		}
		f.mu.Unlock()
		f.cur.Store(&cursor{
			job: jb, flow: i,
			rng: rand.New(rand.NewSource(g.seed + int64(i)*7919 + int64(g.runs)*104729)),
		})
	}

	backlog := make([][2]int64, len(segs))
	peek := func(j int) segStats {
		var m segStats
		for _, f := range g.flows {
			f.mu.Lock()
			st := f.stats[j]
			f.mu.Unlock()
			st.lat, st.sendLate = nil, nil
			m.add(&st)
		}
		m.backlogStart, m.backlogEnd = backlog[j][0], backlog[j][1]
		return m
	}
	ran := 0
	for j := range segs {
		if int32(j) >= jb.stopAt.Load() {
			break
		}
		backlog[j][0] = g.sent.Load() - g.answered.Load()
		if d := starts[j+1] - g.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		backlog[j][1] = g.sent.Load() - g.answered.Load()
		ran = j + 1
		if onSegEnd != nil && !onSegEnd(j, peek) {
			jb.stopAt.Store(int32(j + 1))
		}
	}
	jb.wg.Wait()
	g.drain()

	out := make([]segStats, ran)
	for j := range out {
		for _, f := range g.flows {
			f.mu.Lock()
			out[j].add(&f.stats[j])
			f.mu.Unlock()
		}
		out[j].backlogStart, out[j].backlogEnd = backlog[j][0], backlog[j][1]
	}
	return out
}

// drain waits for outstanding answers (at most the timeout, less when
// nothing more is arriving) and then frees every pending slot, which
// turns the unanswered queries into losses.
func (g *loadGen) drain() {
	deadline := time.Now().Add(g.timeout)
	last, lastChange := g.answered.Load(), time.Now()
	for g.sent.Load() != g.answered.Load() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if a := g.answered.Load(); a != last {
			last, lastChange = a, time.Now()
		} else if time.Since(lastChange) > 150*time.Millisecond {
			break
		}
	}
	for _, f := range g.flows {
		f.mu.Lock()
		for i := range f.slots {
			f.slots[i].due = 0
		}
		f.mu.Unlock()
	}
	g.answered.Store(g.sent.Load())
}

// quiesce waits until the server has stopped answering: after an overload
// it still works through the queries queued in its socket buffers, and
// what follows must not start behind that backlog.
func (g *loadGen) quiesce() {
	deadline := time.Now().Add(3 * time.Second)
	last, lastChange := g.received.Load(), time.Now()
	for time.Now().Before(deadline) && time.Since(lastChange) < 100*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if n := g.received.Load(); n != last {
			last, lastChange = n, time.Now()
		}
	}
}

// strays is the number of replies that matched no pending query.
func (g *loadGen) strays() uint64 {
	var n uint64
	for _, f := range g.flows {
		f.mu.Lock()
		n += f.stray
		f.mu.Unlock()
	}
	return n
}

// appendQuery appends a query for the wire-format name (labels already
// length-prefixed, root included): RD set, one question of type A class
// IN, and an OPT record advertising 1232 bytes with or without DO.
func appendQuery(buf, wireName []byte, do bool) (pkt []byte, qend int) {
	buf = append(buf, 0, 0, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 1)
	buf = append(buf, wireName...)
	buf = append(buf, 0, 1, 0, 1)
	qend = len(buf)
	flags := byte(0)
	if do {
		flags = 0x80
	}
	buf = append(buf, 0, 0, 41, 0x04, 0xD0, 0, 0, flags, 0, 0, 0)
	return buf, qend
}

// appendLabel appends one length-prefixed label.
func appendLabel(buf []byte, label string) []byte {
	buf = append(buf, byte(len(label)))
	return append(buf, label...)
}

// generatorBound says whether more than 5 % of a segment's queries left
// the generator over 1 ms late or never left it. Such a segment says
// nothing about the server.
func generatorBound(s *segStats) bool {
	return float64(s.late1ms) > 0.05*float64(s.attempted)
}

// rungVerdict judges one ladder rung: it passes when at least 99 % of its
// queries were answered correctly within the latency limit, the backlog of
// unanswered queries grew by no more than rate × limit over the rung (a
// limit's worth of queueing), and the rung is not generatorBound.
func rungVerdict(s segStats, rate float64, limit time.Duration) (pass, genBound bool) {
	if s.attempted == 0 {
		return false, false
	}
	genBound = generatorBound(&s)
	growth := float64(s.backlogEnd - s.backlogStart)
	pass = !genBound && float64(s.within) >= 0.99*float64(s.attempted) && growth <= rate*limit.Seconds()
	return pass, genBound
}

// ladder builds the ascending rungs from lo to hi in steps of at most
// step (a ratio), each lasting dur.
func ladder(lo, hi, step float64, dur time.Duration) []segment {
	n := int(math.Ceil(math.Log(hi/lo) / math.Log(step)))
	segs := make([]segment, n+1)
	for i := range segs {
		segs[i] = segment{rate: lo * math.Pow(hi/lo, float64(i)/float64(n)), dur: dur}
	}
	return segs
}

// climbResult is one pass up the ladder.
type climbResult struct {
	Rungs          []rungRecord `json:"rungs"`
	MaxRate        float64      `json:"max_rate_qps"`
	GeneratorBound int          `json:"generator_bound_rungs"`
	ToppedOut      bool         `json:"topped_out"`
}

type rungRecord struct {
	Rate           float64 `json:"rate_qps"`
	Attempted      uint64  `json:"attempted"`
	Within         uint64  `json:"within_limit"`
	Answered       uint64  `json:"answered"`
	P50            float64 `json:"p50_ms"`
	P99            float64 `json:"p99_ms"`
	BacklogGrowth  int64   `json:"backlog_growth"`
	Pass           bool    `json:"pass"`
	GeneratorBound bool    `json:"generator_bound"`
}

// climb offers the ladder's rungs in order and stops once two rungs in a
// row have failed; a lone failing rung between passing ones is a hiccup,
// not saturation. A rung is judged one rung later, when every answer that
// could still meet the limit has arrived. The result is the rate of the
// last rung that passed before the stop; below the ladder it is the first
// rung's rate divided by the step, so that it is never zero.
func (g *loadGen) climb(rungs []segment, gen queryGen) climbResult {
	prevFailed := false
	stats := g.run(rungs, gen, func(j int, peek func(int) segStats) bool {
		if j == 0 {
			return true
		}
		pass, _ := rungVerdict(peek(j-1), rungs[j-1].rate, g.limit)
		stop := !pass && prevFailed
		prevFailed = !pass
		return !stop
	})
	res := climbResult{MaxRate: rungs[0].rate * rungs[0].rate / rungs[1].rate, ToppedOut: true}
	for j, s := range stats {
		pass, gb := rungVerdict(s, rungs[j].rate, g.limit)
		res.Rungs = append(res.Rungs, rungRecord{
			Rate: rungs[j].rate, Attempted: s.attempted, Within: s.within, Answered: s.within + s.over,
			P50: percentile(sortedMS(s.lat), 0.5), P99: percentile(sortedMS(s.lat), 0.99),
			BacklogGrowth: s.backlogEnd - s.backlogStart, Pass: pass, GeneratorBound: gb,
		})
		if gb {
			res.GeneratorBound++
		}
	}
	for j, r := range res.Rungs {
		if !r.Pass && j+1 < len(res.Rungs) && !res.Rungs[j+1].Pass {
			res.ToppedOut = false
			break
		}
		if r.Pass {
			res.MaxRate = r.Rate
		}
	}
	return res
}
