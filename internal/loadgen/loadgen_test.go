package loadgen

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func TestFromScenario(t *testing.T) {
	sc := sweep.Scenario{
		Duration:   2 * time.Second,
		NumClients: 7,
		ClientRate: 3,
		BotCount:   4,
		PerBotRate: 9,
		BotsSolve:  true,
		Params:     puzzle.Params{K: 1, M: 5, L: 32},
	}
	cfg := FromScenario(sc)
	if cfg.Clients != 7 || cfg.ClientRate != 3 || cfg.Attackers != 4 || cfg.AttackRate != 9 {
		t.Errorf("load mix mismatch: %+v", cfg)
	}
	if cfg.Attack != AttackSolve {
		t.Errorf("Attack = %q, want %q for BotsSolve", cfg.Attack, AttackSolve)
	}
	if cfg.Params != sc.Params {
		t.Errorf("Params = %v, want %v", cfg.Params, sc.Params)
	}

	if cfg := FromScenario(sweep.Scenario{BotCount: sweep.NoBotnet}); cfg.Attackers != 0 {
		t.Errorf("NoBotnet mapped to %d attackers", cfg.Attackers)
	}
	if cfg := FromScenario(sweep.Scenario{}); cfg.Attack != AttackNoSolve {
		t.Errorf("default attack = %q, want %q", cfg.Attack, AttackNoSolve)
	}
}

func TestSelfHostedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load run in -short mode")
	}
	cfg := Config{
		Duration:         time.Second,
		Clients:          8,
		Attackers:        4,
		Attack:           AttackNoSolve,
		AttackRate:       20,
		Params:           puzzle.Params{K: 1, M: 4, L: 32},
		HandshakeTimeout: 2 * time.Second,
	}
	addr, l, p, shutdown, err := SelfHost(cfg)
	if err != nil {
		t.Fatalf("SelfHost: %v", err)
	}
	cfg.Target = addr
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ls, ps := l.Stats(), p.Stats()
	report.Listener, report.Proxy = &ls, &ps

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}

	if report.Handshakes == 0 {
		t.Fatal("no handshakes completed")
	}
	if report.Throughput <= 0 {
		t.Errorf("Throughput = %v", report.Throughput)
	}
	if int(report.Handshakes) != report.Latency.Count {
		t.Errorf("latency samples %d != handshakes %d", report.Latency.Count, report.Handshakes)
	}
	for name, v := range map[string]float64{
		"p50": report.Latency.P50Ms, "p99": report.Latency.P99Ms,
		"max": report.Latency.MaxMs, "mean": report.Latency.MeanMs,
	} {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("latency %s = %v", name, v)
		}
	}
	if report.Latency.P50Ms > report.Latency.MaxMs {
		t.Errorf("p50 %v > max %v", report.Latency.P50Ms, report.Latency.MaxMs)
	}
	if report.Dialer.Accepted != report.Handshakes+report.Errors && report.Dialer.Accepted < report.Handshakes {
		t.Errorf("dialer accepted %d < handshakes %d", report.Dialer.Accepted, report.Handshakes)
	}
	if report.Listener.Verified == 0 {
		t.Error("listener verified nothing")
	}
	if report.Proxy.Spliced == 0 {
		t.Error("proxy spliced nothing")
	}
	if report.AttackConns == 0 {
		t.Error("attackers opened no connections")
	}
	t.Logf("report:\n%s", report)
}

func TestPacerClosedLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	step := pacer(0)
	if !step(ctx) {
		t.Fatal("closed-loop pacer stopped immediately")
	}
	cancel()
	if step(ctx) {
		t.Fatal("closed-loop pacer ran past cancel")
	}
}

func TestPacerRate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step := pacer(100) // 10ms interval
	start := time.Now()
	for i := 0; i < 5; i++ {
		if !step(ctx) {
			t.Fatal("pacer stopped early")
		}
	}
	// First step fires immediately; four more at 10ms spacing.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("5 steps at 100/s took %v, want >= 40ms of pacing", elapsed)
	}
}

// TestRunDeadlineFailuresAreNotErrors pins the honest-error count at the
// run's end: against a target that accepts and never answers, every
// preamble is still waiting when the run's deadline passes, and its
// "i/o timeout" can surface a little before the context reports done. A
// failure at or after the deadline is the run ending, not an error.
func TestRunDeadlineFailuresAreNotErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		held  []net.Conn
		drain sync.WaitGroup
	)
	drain.Add(1)
	go func() {
		defer drain.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		drain.Wait()
		for _, c := range held {
			c.Close()
		}
	})

	for i := 0; i < 20; i++ {
		report, err := Run(context.Background(), Config{
			Target:           ln.Addr().String(),
			Duration:         30 * time.Millisecond,
			Clients:          4,
			HandshakeTimeout: time.Second,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if report.Handshakes != 0 {
			t.Fatalf("run %d: %d handshakes against a silent target", i, report.Handshakes)
		}
		if report.Errors != 0 {
			t.Fatalf("run %d: %d errors; failures at the run's deadline must not count", i, report.Errors)
		}
	}
}
