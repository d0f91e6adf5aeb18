package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
)

const (
	// netClients is the closed-loop client count of net-handshake: nproc
	// on the reference host.
	netClients = 2
	// floodHonestRate is net-flood's open-loop honest rate, about a
	// quarter of net-handshake's capacity on the reference host. It is a
	// constant, not derived from any measurement, so both sides of a
	// comparison offer the same load.
	floodHonestRate = 1000
	// floodAttackRate paces net-flood's attacker, one connection at a
	// time, so both sides of a comparison face the same flood.
	floodAttackRate = 2000
	echoBytes       = 16
	// attemptTimeout bounds each attempt's dial, preamble and echo. An
	// attempt that started before the run deadline always runs to its own
	// end; nothing is cancelled at the deadline.
	attemptTimeout = 5 * time.Second
	warmHandshakes = 1000
)

// netParams is the fixed difficulty of the real tier: one 8-bit solution.
var netParams = puzzle.Params{K: 1, M: 8, L: 32}

// netServer is the self-hosted real tier on loopback: an echo backend
// behind a puzzlenet.Proxy over a puzzlenet.Listener.
type netServer struct {
	addr    string
	backend net.Listener
	conns   sync.WaitGroup
	l       *puzzlenet.Listener
	p       *puzzlenet.Proxy
	served  chan error
}

// startNet starts the tier; with tr set, the listener's inner listener and
// the proxy's backend dials are timed.
func startNet(tr *netTrace) (*netServer, error) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &netServer{backend: backend, served: make(chan error, 1)}
	s.conns.Add(1)
	go s.acceptEcho()
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(netParams))
	if err != nil {
		s.closeBackend()
		return nil, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeBackend()
		return nil, err
	}
	var opts []puzzlenet.ProxyOption
	var lis net.Listener = inner
	if tr != nil {
		lis = &stampListener{Listener: inner, tr: tr}
		opts = append(opts, puzzlenet.WithBackendDialContext(tr.dialBackend))
	}
	s.l = puzzlenet.NewListener(lis, issuer, puzzlenet.WithHandshakeTimeout(attemptTimeout))
	s.p = puzzlenet.NewProxy(s.l, backend.Addr().String(), opts...)
	s.addr = inner.Addr().String()
	go func() { s.served <- s.p.Serve() }()
	return s, nil
}

func (s *netServer) acceptEcho() {
	defer s.conns.Done()
	for {
		c, err := s.backend.Accept()
		if err != nil {
			return
		}
		s.conns.Add(1)
		go s.echo(c)
	}
}

// echo returns every byte it reads. It closes with a reset so the proxy's
// backend sockets do not linger in TIME_WAIT across runs.
func (s *netServer) echo(c net.Conn) {
	defer s.conns.Done()
	defer closeRST(c)
	buf := make([]byte, 512)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			if _, werr := c.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (s *netServer) closeBackend() {
	_ = s.backend.Close()
	s.conns.Wait()
}

// close stops the proxy, the listener and the backend and waits for every
// goroutine they started.
func (s *netServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.p.Shutdown(ctx)
	s.closeBackend()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// closeRST closes a TCP connection with a reset instead of a FIN, so no
// TIME_WAIT socket outlives the run.
func closeRST(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// attempt is the outcome of one honest attempt.
type attempt struct {
	preamble, rtt time.Duration
	class         string // empty on success
}

// honestAttempt dials through the puzzle preamble, echoes payload through
// the splice and checks the bytes. Preamble latency runs from start to
// ACCEPT.
func honestAttempt(d *puzzlenet.Dialer, addr string, payload, buf []byte, start time.Time) attempt {
	conn, err := d.DialContext(context.Background(), "tcp", addr)
	accepted := time.Now()
	if err != nil {
		return attempt{class: classifyDial(err)}
	}
	defer closeRST(conn)
	a := attempt{preamble: accepted.Sub(start)}
	if err := conn.SetDeadline(accepted.Add(attemptTimeout)); err != nil {
		a.class = classifyEcho(err)
		return a
	}
	if _, err := conn.Write(payload); err != nil {
		a.class = classifyEcho(err)
		return a
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		a.class = classifyEcho(err)
		return a
	}
	a.rtt = time.Since(accepted)
	if !bytes.Equal(buf, payload) {
		a.class = failEcho
	}
	return a
}

func newDialer(tr *netTrace) *puzzlenet.Dialer {
	d := &puzzlenet.Dialer{Inner: &net.Dialer{Timeout: attemptTimeout}, HandshakeTimeout: attemptTimeout}
	if tr != nil {
		d.OnSolve = tr.onSolve
	}
	return d
}

// tally merges the attempts of a phase.
type tally struct {
	mu        sync.Mutex
	preamble  []float64 // ms, successes only
	rtt       []float64 // us
	lag       []float64 // ms, open loop only
	attempt   []float64 // ms, whole closed-loop attempts
	succeeded int64
	attempted int64
	classes   map[string]int64
	mismatch  int64
}

// add records one attempt; lag is how late an open-loop attempt started,
// and whole how long a closed-loop attempt took, close included.
func (t *tally) add(a attempt, lag, whole time.Duration, openLoop bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if openLoop {
		t.lag = append(t.lag, ms(lag))
	} else {
		t.attempt = append(t.attempt, ms(whole))
	}
	if a.class != "" {
		if t.classes == nil {
			t.classes = map[string]int64{}
		}
		t.classes[a.class]++
		if a.class == failEcho {
			t.mismatch++
		}
		return
	}
	t.succeeded++
	t.preamble = append(t.preamble, ms(a.preamble))
	t.rtt = append(t.rtt, us(a.rtt))
}

func (t *tally) failed() int64 { return t.attempted - t.succeeded }

// netPhase is one measured phase against one server. The sample slices
// are condensed and dropped before the retained heap is measured, so it
// holds the server, not the benchmark's samples.
type netPhase struct {
	tally
	p50, tail, tailP   float64 // preamble ms
	samples            int
	rttP50, lagP99     float64
	attemptP50         float64 // ms
	attacks            int64
	stats              phaseStats
	allocs, allocBytes uint64
	lstats             puzzlenet.ListenerStats
	pstats             puzzlenet.ProxyStats
	retainedMiB        float64
}

// closedLoop runs netClients clients back to back until deadline.
func closedLoop(s *netServer, tr *netTrace, seed int64, deadline time.Time, t *tally) {
	d := newDialer(tr)
	var wg sync.WaitGroup
	for c := 0; c < netClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*netClients + int64(c)))
			payload := make([]byte, echoBytes)
			buf := make([]byte, echoBytes)
			for time.Now().Before(deadline) {
				rng.Read(payload)
				t0 := time.Now()
				a := honestAttempt(d, s.addr, payload, buf, t0)
				t.add(a, 0, time.Since(t0), false)
			}
		}(c)
	}
	wg.Wait()
}

// paced calls fn at rate per second from start until deadline, each call
// with its due time. A late call runs at once, so a stall delays the calls
// behind it instead of dropping them.
func paced(rate int, start, deadline time.Time, fn func(due time.Time)) {
	interval := time.Second / time.Duration(rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		fn(due)
	}
}

// openLoop runs one honest client and one attacker, each on a fixed
// schedule, until deadline. The attacker dials, reads the challenge and
// abandons it, one connection at a time.
func openLoop(s *netServer, tr *netTrace, seed int64, start, deadline time.Time, t *tally) int64 {
	var attacks atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d := newDialer(tr)
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, echoBytes)
		buf := make([]byte, echoBytes)
		paced(floodHonestRate, start, deadline, func(due time.Time) {
			rng.Read(payload)
			// Latency runs from the actual dial, not from due: the
			// host's timers wake a millisecond or more late and would
			// swamp the preamble. The lateness is reported as lag.
			now := time.Now()
			t.add(honestAttempt(d, s.addr, payload, buf, now), now.Sub(due), 0, true)
		})
	}()
	go func() {
		defer wg.Done()
		paced(floodAttackRate, start, deadline, func(time.Time) {
			if abandonChallenge(s.addr) {
				attacks.Add(1)
			}
		})
	}()
	wg.Wait()
	return attacks.Load()
}

// abandonChallenge is one attacker connection: dial, read the CHALLENGE
// frame ([type:1][len:2 BE][payload]) and reset the connection.
func abandonChallenge(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, attemptTimeout)
	if err != nil {
		return false
	}
	defer closeRST(c)
	if err := c.SetDeadline(time.Now().Add(attemptTimeout)); err != nil {
		return false
	}
	var hdr [3]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return false
	}
	body := make([]byte, binary.BigEndian.Uint16(hdr[1:]))
	_, err = io.ReadFull(c, body)
	return err == nil
}

// runNetPhase measures one phase of d against s.
func runNetPhase(s *netServer, tr *netTrace, seed int64, d time.Duration, flood bool) *netPhase {
	ph := &netPhase{}
	l0, p0 := s.l.Stats(), s.p.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clock := startPhase()
	deadline := clock.t0.Add(d)
	if flood {
		ph.attacks = openLoop(s, tr, seed, clock.t0, deadline, &ph.tally)
	} else {
		closedLoop(s, tr, seed, deadline, &ph.tally)
	}
	ph.stats = clock.stop()
	runtime.ReadMemStats(&m1)
	ph.allocs, ph.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	l1, p1 := s.l.Stats(), s.p.Stats()
	ph.lstats = puzzlenet.ListenerStats{
		Accepted: l1.Accepted - l0.Accepted, Challenged: l1.Challenged - l0.Challenged,
		Verified: l1.Verified - l0.Verified, Rejected: l1.Rejected - l0.Rejected,
		Shed: l1.Shed - l0.Shed, Throttled: l1.Throttled - l0.Throttled, Errors: l1.Errors - l0.Errors,
	}
	ph.pstats = puzzlenet.ProxyStats{
		Spliced: p1.Spliced - p0.Spliced, BackendFailures: p1.BackendFailures - p0.BackendFailures,
	}
	ph.p50 = median(ph.preamble)
	ph.tail, ph.tailP = tail(ph.preamble)
	ph.samples = len(ph.preamble)
	ph.rttP50, ph.lagP99, ph.attemptP50 = median(ph.rtt), percentile(ph.lag, 99), median(ph.attempt)
	ph.preamble, ph.rtt, ph.lag, ph.attempt = nil, nil, nil, nil
	ph.retainedMiB = retainedHeapMiB(s)
	return ph
}

// warmNet starts a server and completes warm-up handshakes through it.
func warmNet(tr *netTrace, seed int64) (*netServer, error) {
	s, err := startNet(tr)
	if err != nil {
		return nil, err
	}
	d := newDialer(nil)
	payload := make([]byte, echoBytes)
	buf := make([]byte, echoBytes)
	rand.New(rand.NewSource(seed)).Read(payload)
	for i := 0; i < warmHandshakes; i++ {
		if a := honestAttempt(d, s.addr, payload, buf, time.Now()); a.class != "" {
			_ = s.close()
			return nil, fmt.Errorf("warm-up handshake %d: %s", i, a.class)
		}
	}
	return s, nil
}

func netWorkload(flood bool) func(cfg runCfg) (*report, error) {
	return func(cfg runCfg) (*report, error) {
		rep := newReport()
		var setups []float64
		var s *netServer
		for i := 0; i < setupRepeats; i++ {
			if s != nil {
				if err := s.close(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			var err error
			if s, err = warmNet(nil, cfg.seed); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		rep.e2e["setup_s"] = median(setups)
		ph := runNetPhase(s, nil, cfg.seed, cfg.phase(), flood)
		if err := s.close(); err != nil {
			return nil, err
		}
		rep.attempted += ph.attempted
		rep.failed += ph.failed()
		if ph.mismatch > 0 {
			rep.fault("%d echoes came back different from what was sent", ph.mismatch)
		}
		if ph.attempted == 0 {
			return nil, fmt.Errorf("no honest attempt started")
		}
		items := float64(max(ph.succeeded, 1))
		rep.e2e["op_ms_p50"] = ph.p50
		rep.e2e["op_ms_tail"], rep.tailP, rep.samples = ph.tail, ph.tailP, ph.samples
		if flood {
			rep.e2e["throughput_per_s"] = ratio(float64(ph.succeeded), ph.stats.wall.Seconds())
		} else {
			// Closed loop: the clients' handshake rate at the median
			// attempt. The mean over the phase swung with the host's
			// hiccups by twice as much between runs.
			rep.e2e["throughput_per_s"] = ratio(netClients*1e3, ph.attemptP50)
		}
		rep.e2e["allocs_per_item"] = float64(ph.allocs) / items
		rep.e2e["alloc_kib_per_item"] = float64(ph.allocBytes) / 1024 / items
		rep.e2e["retained_heap_mib"] = ph.retainedMiB
		rep.stats = ph.stats
		rep.setFailures("untraced phase", ph.classes, ph.failed())
		rep.notef("honest attempts=%d succeeded=%d (loopback, %d B echo, k=%d m=%d)",
			ph.attempted, ph.succeeded, echoBytes, netParams.K, netParams.M)
		if flood {
			rep.notef("open loop at %d/s: lag p99 %.3f ms; attacker abandoned %d challenges (%.0f/s)",
				floodHonestRate, ph.lagP99, ph.attacks, ratio(float64(ph.attacks), ph.stats.wall.Seconds()))
		}
		if !cfg.trace {
			return rep, nil
		}

		tr := &netTrace{log: rep.spans}
		ts, err := warmNet(tr, cfg.seed)
		if err != nil {
			return nil, err
		}
		tr.reset()
		tph := runNetPhase(ts, tr, cfg.seed, cfg.phase(), flood)
		if err := ts.close(); err != nil {
			return nil, err
		}
		if tph.mismatch > 0 {
			rep.fault("traced phase: %d echoes came back different from what was sent", tph.mismatch)
		}
		rep.attempted += tph.attempted
		rep.failed += tph.failed()
		both := map[string]int64{}
		for _, c := range []map[string]int64{ph.classes, tph.classes} {
			for k, v := range c {
				both[k] += v
			}
		}
		rep.setFailures("both phases", both, ph.failed()+tph.failed())
		ls := ph.lstats
		rep.layers["puzzlenet.listener.accepted"] = float64(ls.Accepted)
		rep.layers["puzzlenet.listener.challenged"] = float64(ls.Challenged)
		rep.layers["puzzlenet.listener.verified"] = float64(ls.Verified)
		rep.layers["puzzlenet.listener.rejected"] = float64(ls.Rejected)
		rep.layers["puzzlenet.listener.shed"] = float64(ls.Shed + ls.Throttled)
		rep.layers["puzzlenet.listener.errors"] = float64(ls.Errors)
		rep.layers["puzzlenet.proxy.spliced"] = float64(ph.pstats.Spliced)
		rep.layers["puzzlenet.proxy.backend_failures"] = float64(ph.pstats.BackendFailures)
		rep.layers["puzzlenet.proxy.splice_rtt_us_p50"] = tph.rttP50
		tr.report(rep)
		if flood {
			rep.layers["gen.lag_ms_p99"] = ph.lagP99
			rep.layers["gen.attack_conns_per_s"] = ratio(float64(ph.attacks), ph.stats.wall.Seconds())
		}
		rep.setRuntime(ph.stats)
		rep.setOverhead(ph.p50, tph.p50)
		return rep, nil
	}
}

// setFailures reports the failure classes of the honest attempts; they
// must sum to the failures.
func (r *report) setFailures(what string, classes map[string]int64, failed int64) {
	var sum int64
	names := make([]string, 0, len(classes))
	for k, v := range classes {
		r.layers[k] = float64(v)
		sum += v
		names = append(names, k)
	}
	sort.Strings(names)
	if sum != failed {
		r.fault("failure classes sum to %d, want %d failures", sum, failed)
	}
	line := fmt.Sprintf("honest failures (%s)=%d", what, failed)
	for _, k := range names {
		line += fmt.Sprintf(" %s=%d", k, classes[k])
	}
	r.notes = append(r.notes, line)
}

// netTrace stamps the real tier from outside: per-connection preamble
// reads and writes on the listener's inner net.Listener, backend dials
// through the proxy's dial hook, and solves through Dialer.OnSolve.
type netTrace struct {
	log    *spanLog
	nextID atomic.Uint64

	mu                     sync.Mutex
	issueUs, verifyUs, gap []float64
	dialUs                 []float64
	hashes, solves         uint64
}

// reset drops what the warm-up recorded.
func (t *netTrace) reset() {
	t.log.reset()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.issueUs, t.verifyUs, t.gap, t.dialUs = nil, nil, nil, nil
	t.hashes, t.solves = 0, 0
}

func (t *netTrace) onSolve(_ puzzle.Params, hashes uint64) {
	t.mu.Lock()
	t.hashes += hashes
	t.solves++
	t.mu.Unlock()
}

// backendIDBase sets backend-dial span IDs apart from connection IDs.
const backendIDBase = 1 << 40

func (t *netTrace) dialBackend(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	t0 := time.Now()
	c, err := d.DialContext(ctx, "tcp", addr)
	t1 := time.Now()
	id := backendIDBase + t.nextID.Add(1)
	t.log.record("puzzlenet.proxy.backend_dial", id, 0, -1, t0, t1)
	t.mu.Lock()
	t.dialUs = append(t.dialUs, us(t1.Sub(t0)))
	t.mu.Unlock()
	return c, err
}

// issued records the listener writing a challenge, accepted to written.
// Every challenged connection has this span, abandoned ones too.
func (t *netTrace) issued(id uint64, accepted, challenged time.Time) {
	t.log.record("puzzlenet.listener.issue", id, 0, -1, accepted, challenged)
	t.mu.Lock()
	t.issueUs = append(t.issueUs, us(challenged.Sub(accepted)))
	t.mu.Unlock()
}

// solved records the rest of a completed preamble: the wait for the
// client's solution, and reading it through writing the verdict. The
// three spans of a connection follow each other.
func (t *netTrace) solved(id uint64, challenged, arrived, read, verdict time.Time) {
	t.log.record("puzzlenet.client.solve_gap", id, 1, -1, challenged, arrived)
	t.log.record("puzzlenet.listener.verify", id, 2, -1, read, verdict)
	t.mu.Lock()
	t.gap = append(t.gap, us(arrived.Sub(challenged)))
	t.verifyUs = append(t.verifyUs, us(verdict.Sub(read)))
	t.mu.Unlock()
}

func (t *netTrace) report(rep *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep.layers["puzzlenet.listener.issue_us_p50"] = median(t.issueUs)
	rep.layers["puzzlenet.listener.verify_us_p50"] = median(t.verifyUs)
	rep.layers["puzzlenet.client.solve_gap_us_p50"] = median(t.gap)
	rep.layers["puzzlenet.proxy.backend_dial_us_p50"] = median(t.dialUs)
	rep.layers["puzzle.solve_hashes_mean"] = ratio(float64(t.hashes), float64(t.solves))
}

// stampListener hands the puzzlenet.Listener connections that stamp
// their preamble reads and writes.
type stampListener struct {
	net.Listener
	tr *netTrace
}

func (l *stampListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stampConn{Conn: c, tr: l.tr, id: l.tr.nextID.Add(1), accepted: time.Now()}, nil
}

// stampConn stamps the server side of one preamble: the listener writes
// the challenge, reads the solution and writes the verdict on one
// goroutine. After the second write the proxy owns the connection and
// splices it from two goroutines; only the atomic write count is touched
// then.
type stampConn struct {
	net.Conn
	tr       *netTrace
	id       uint64
	writes   atomic.Int32
	accepted time.Time
	// Preamble-goroutine only.
	challenged, arrived, read time.Time
}

func (c *stampConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.writes.Load() == 1 {
		now := time.Now()
		if c.arrived.IsZero() {
			c.arrived = now
		}
		c.read = now
	}
	return n, err
}

func (c *stampConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	switch c.writes.Add(1) {
	case 1:
		c.challenged = time.Now()
		c.tr.issued(c.id, c.accepted, c.challenged)
	case 2:
		if !c.arrived.IsZero() {
			c.tr.solved(c.id, c.challenged, c.arrived, c.read, time.Now())
		}
	}
	return n, err
}
