// Package loadgen replays a sweep.Scenario-shaped load mix against a live
// puzzle proxy over real sockets: honest clients that solve challenges and
// exchange an echo payload, and attackers that open preambles and
// misbehave. It reports completed-handshake throughput, preamble latency
// percentiles (streaming P² sketches, O(1) memory), and the shed/reject
// counters from every tier — the measurement half of cmd/tcpz-load.
//
// Unlike the simulator, loadgen measures the real implementation: kernel
// sockets, real clock, real goroutine scheduling. It is therefore not
// deterministic and lives outside the determinism contract (see
// docs/ROBUSTNESS.md).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Attack behaviours for the attacker workers.
const (
	// AttackNoSolve opens the preamble, reads the challenge, and abandons
	// the connection — the connection-flood shape (§6 connflood).
	AttackNoSolve = "nosolve"
	// AttackStall opens the preamble and holds the socket silently until
	// the server's handshake deadline reaps it.
	AttackStall = "stall"
	// AttackGarbage answers the challenge with protocol garbage.
	AttackGarbage = "garbage"
	// AttackSolve solves honestly but opens connections as fast as allowed
	// — the solution-flood shape (§6 solutionflood).
	AttackSolve = "solve"
)

// Config describes one load run.
type Config struct {
	// Target is the proxy address to load. Leave empty with SelfHost to
	// run against an in-process proxy on loopback.
	Target string
	// Duration bounds the run (default 5 s).
	Duration time.Duration

	// Clients honest workers each complete handshakes at ClientRate
	// attempts/second (0 = closed loop, back-to-back).
	Clients    int
	ClientRate float64
	// Payload is the number of echo bytes exchanged per handshake to
	// verify the splice end-to-end (default 16).
	Payload int

	// Attackers workers each run the Attack behaviour at AttackRate
	// connections/second (0 = closed loop).
	Attackers  int
	Attack     string
	AttackRate float64

	// Params is the puzzle difficulty clients solve at. Used by the
	// self-hosted proxy and informative for reports.
	Params puzzle.Params
	// HandshakeTimeout bounds each client preamble (default 5 s).
	HandshakeTimeout time.Duration
}

// FromScenario maps the simulator's canonical scenario shape onto a real
// load run: clients→clients, botnet→attackers, puzzle params carried
// through. Only the load-mix fields translate — defenses other than
// puzzles, attack start/stop phasing, and byte-level request sizes have no
// real-socket equivalent here.
func FromScenario(sc sweep.Scenario) Config {
	sc = sc.Defaults()
	attack := AttackNoSolve
	if sc.BotsSolve {
		attack = AttackSolve
	}
	attackers := sc.BotCount
	if attackers == sweep.NoBotnet {
		attackers = 0
	}
	return Config{
		Duration:   sc.Duration,
		Clients:    sc.NumClients,
		ClientRate: sc.ClientRate,
		Attackers:  attackers,
		Attack:     attack,
		AttackRate: sc.PerBotRate,
		Params:     sc.Params,
	}
}

func (cfg Config) withDefaults() Config {
	if cfg.Duration == 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Payload == 0 {
		cfg.Payload = 16
	}
	if cfg.Attack == "" {
		cfg.Attack = AttackNoSolve
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.Params.K == 0 && cfg.Params.M == 0 {
		cfg.Params = puzzle.Params{K: 1, M: 4, L: 32}
	}
	return cfg
}

// LatencySummary is the preamble-latency distribution in milliseconds,
// estimated by streaming P² sketches.
type LatencySummary struct {
	Count                      int
	MeanMs, MaxMs              float64
	P10Ms, P50Ms, P90Ms, P99Ms float64
}

// Report is the outcome of one load run.
type Report struct {
	// Elapsed is the measured wall-clock span.
	Elapsed time.Duration
	// Handshakes counts completed end-to-end exchanges (preamble accepted
	// and the echo payload verified through the splice).
	Handshakes uint64
	// Rejected counts client dials the server answered with REJECT.
	Rejected uint64
	// Errors counts client dials that failed any other way.
	Errors uint64
	// AttackConns counts attacker connections opened.
	AttackConns uint64
	// Throughput is Handshakes per second of Elapsed.
	Throughput float64
	// Latency summarises the honest preamble latency (dial to ACCEPT).
	Latency LatencySummary
	// Dialer is the aggregate honest-dialer view.
	Dialer puzzlenet.DialerStats
	// Listener and Proxy carry the server-side counters when the run is
	// self-hosted; nil against an external target.
	Listener *puzzlenet.ListenerStats
	Proxy    *puzzlenet.ProxyStats
}

func (r *Report) String() string {
	s := fmt.Sprintf(
		"handshakes %d (%.1f/s) rejected %d errors %d attack-conns %d\n"+
			"preamble latency ms: p10 %.2f p50 %.2f p90 %.2f p99 %.2f max %.2f mean %.2f (n=%d)",
		r.Handshakes, r.Throughput, r.Rejected, r.Errors, r.AttackConns,
		r.Latency.P10Ms, r.Latency.P50Ms, r.Latency.P90Ms, r.Latency.P99Ms,
		r.Latency.MaxMs, r.Latency.MeanMs, r.Latency.Count,
	)
	if r.Listener != nil {
		s += fmt.Sprintf("\nlistener: %+v", *r.Listener)
	}
	if r.Proxy != nil {
		s += fmt.Sprintf("\nproxy: %+v", *r.Proxy)
	}
	return s
}

// Print writes the report to stdout and returns an error when fewer than
// min handshakes completed — the smoke gate cmd/tcpz-load exposes as
// -min-handshakes.
func (r *Report) Print(min uint64) error {
	fmt.Println(r)
	if r.Handshakes < min {
		return fmt.Errorf("loadgen: %d handshakes completed, need >= %d", r.Handshakes, min)
	}
	return nil
}

// SelfHost starts an echo backend, a puzzle listener at cfg.Params, and a
// proxy splicing between them, all on loopback. It returns the proxy
// address and a shutdown function draining all three within the context
// deadline. The returned listener/proxy are also handed back so Run can
// snapshot their stats.
func SelfHost(cfg Config) (addr string, l *puzzlenet.Listener, p *puzzlenet.Proxy, shutdown func(context.Context) error, err error) {
	cfg = cfg.withDefaults()
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := backend.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()

	issuer, err := puzzle.NewIssuer(puzzle.WithParams(cfg.Params))
	if err != nil {
		backend.Close()
		return "", nil, nil, nil, err
	}
	l, err = puzzlenet.Listen("127.0.0.1:0", issuer,
		puzzlenet.WithHandshakeTimeout(cfg.HandshakeTimeout),
		puzzlenet.WithMaxPending(256),
	)
	if err != nil {
		backend.Close()
		return "", nil, nil, nil, err
	}
	p = puzzlenet.NewProxy(l, backend.Addr().String())
	go func() { _ = p.Serve() }()

	shutdown = func(ctx context.Context) error {
		err := p.Shutdown(ctx)
		_ = backend.Close()
		wg.Wait()
		return err
	}
	return l.Addr().String(), l, p, shutdown, nil
}

// Run drives the configured mix at cfg.Target for cfg.Duration and
// returns the report. The caller owns the target; pair with SelfHost for
// an in-process run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == "" {
		return nil, errors.New("loadgen: no target address")
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	// A dial or echo that fails at the run's deadline is the run ending,
	// not an error: a socket deadline taken from ctx can fire a little
	// before ctx.Done closes, so ctx.Err alone miscounts those failures.
	deadline, _ := ctx.Deadline()
	failedInRun := func() bool { return ctx.Err() == nil && time.Now().Before(deadline) }

	var (
		mu     sync.Mutex
		sketch = stats.NewSummarySketch(0.10, 0.50, 0.90, 0.99)

		handshakes, rejected, clientErrs, attackConns atomic.Uint64
	)
	dialer := &puzzlenet.Dialer{HandshakeTimeout: cfg.HandshakeTimeout}
	payload := make([]byte, cfg.Payload)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pace := pacer(cfg.ClientRate)
			buf := make([]byte, len(payload))
			for pace(ctx) {
				t0 := time.Now()
				conn, err := dialer.DialContext(ctx, "tcp", cfg.Target)
				if err != nil {
					if errors.Is(err, puzzlenet.ErrRejected) {
						rejected.Add(1)
					} else if failedInRun() {
						clientErrs.Add(1)
					}
					continue
				}
				latency := time.Since(t0)
				_, werr := conn.Write(payload)
				_, rerr := io.ReadFull(conn, buf)
				_ = conn.Close()
				if werr != nil || rerr != nil {
					if failedInRun() {
						clientErrs.Add(1)
					}
					continue
				}
				handshakes.Add(1)
				mu.Lock()
				sketch.Observe(float64(latency) / float64(time.Millisecond))
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Attackers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pace := pacer(cfg.AttackRate)
			for pace(ctx) {
				if attackOnce(ctx, cfg) {
					attackConns.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	lat := LatencySummary{Count: sketch.Count()}
	if lat.Count > 0 {
		lat.MeanMs = sketch.Mean()
		lat.MaxMs = sketch.Max()
		lat.P10Ms = sketch.Quantile(0.10)
		lat.P50Ms = sketch.Quantile(0.50)
		lat.P90Ms = sketch.Quantile(0.90)
		lat.P99Ms = sketch.Quantile(0.99)
	}
	return &Report{
		Elapsed:     elapsed,
		Handshakes:  handshakes.Load(),
		Rejected:    rejected.Load(),
		Errors:      clientErrs.Load(),
		AttackConns: attackConns.Load(),
		Throughput:  float64(handshakes.Load()) / elapsed.Seconds(),
		Latency:     lat,
		Dialer:      dialer.Stats(),
	}, nil
}

// pacer returns a step function implementing a fixed-rate open loop
// (rate > 0) or a closed loop (rate <= 0): it reports false once ctx is
// done.
func pacer(rate float64) func(context.Context) bool {
	if rate <= 0 {
		return func(ctx context.Context) bool { return ctx.Err() == nil }
	}
	interval := time.Duration(float64(time.Second) / rate)
	var next time.Time
	return func(ctx context.Context) bool {
		now := time.Now()
		if next.IsZero() {
			next = now
		}
		if wait := next.Sub(now); wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return false
			}
		}
		next = next.Add(interval)
		return ctx.Err() == nil
	}
}

// attackOnce opens one attacker connection and misbehaves per cfg.Attack;
// it reports whether the dial reached the server.
func attackOnce(ctx context.Context, cfg Config) bool {
	switch cfg.Attack {
	case AttackSolve:
		d := puzzlenet.Dialer{HandshakeTimeout: cfg.HandshakeTimeout}
		conn, err := d.DialContext(ctx, "tcp", cfg.Target)
		if err == nil {
			_ = conn.Close()
		}
		return true
	default:
		var nd net.Dialer
		conn, err := nd.DialContext(ctx, "tcp", cfg.Target)
		if err != nil {
			return false
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(cfg.HandshakeTimeout))
		switch cfg.Attack {
		case AttackStall:
			// Hold the socket until the server or the run deadline reaps it.
			done := make(chan struct{})
			go func() {
				_, _ = conn.Read(make([]byte, 1))
				close(done)
			}()
			select {
			case <-done:
			case <-ctx.Done():
			}
		case AttackGarbage:
			_, _ = conn.Write([]byte("\x00\xff\x00garbage\r\n"))
			_, _ = conn.Read(make([]byte, 16))
		default: // AttackNoSolve
			_, _ = conn.Read(make([]byte, 16))
		}
		return true
	}
}
