package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// tracedPrefix names the benchmark-only defenses: "traced-puzzles" runs
// the registered "puzzles" defense behind timing wrappers. Traced cells
// differ from untraced ones only in this defense label.
const tracedPrefix = "traced-"

// baseDefenses are the paper's four defenses, the ones the benchmark
// traces.
var baseDefenses = []sweep.Defense{
	sweep.DefenseNone, sweep.DefenseCookies, sweep.DefenseSYNCache, sweep.DefensePuzzles,
}

func tracedName(d sweep.Defense) sweep.Defense { return tracedPrefix + d }

// activeSimTrace receives the tracers of traced servers built while a
// traced phase runs. The defense registry is process-wide, so the traced
// factories find their collector here.
var activeSimTrace atomic.Pointer[simTrace]

func init() {
	for _, base := range baseDefenses {
		defense.Register(defense.Info{
			Name:    tracedName(base),
			Summary: "benchmark timing wrapper around " + string(base),
		}, func(ctx defense.ServerCtx) (defense.Defense, error) {
			st := activeSimTrace.Load()
			if st == nil {
				st = &simTrace{log: newSpanLog(0)}
			}
			d := &tracedDefense{tr: st.newTracer()}
			inner, err := defense.New(base, d.wrap(ctx))
			if err != nil {
				return nil, err
			}
			d.inner = inner
			return d, nil
		})
	}
}

// tracedDefense times a real defense's hooks and hands it a ServerCtx
// that times the server calls it makes.
type tracedDefense struct {
	inner defense.Defense
	tr    *simTracer
	ctxIn defense.ServerCtx
	ctx   *tracedCtx
}

func (d *tracedDefense) wrap(ctx defense.ServerCtx) defense.ServerCtx {
	if d.ctx == nil || ctx != d.ctxIn {
		d.ctxIn = ctx
		d.ctx = &tracedCtx{ServerCtx: ctx, tr: d.tr}
	}
	return d.ctx
}

func (d *tracedDefense) Describe() defense.Info {
	info := d.inner.Describe()
	info.Name = tracedName(info.Name)
	return info
}

func (d *tracedDefense) OnSYN(ctx defense.ServerCtx, syn tcpkit.Segment, mss uint16, wscale uint8) {
	d.tr.begin(kOnSYN)
	d.inner.OnSYN(d.wrap(ctx), syn, mss, wscale)
	d.tr.end()
}

func (d *tracedDefense) OnACK(ctx defense.ServerCtx, ack tcpkit.Segment) bool {
	d.tr.begin(kOnACK)
	consumed := d.inner.OnACK(d.wrap(ctx), ack)
	d.tr.end()
	return consumed
}

func (d *tracedDefense) OnTick(ctx defense.ServerCtx) {
	d.tr.begin(kOnTick)
	d.inner.OnTick(d.wrap(ctx))
	d.tr.end()
}

// tracedCtx times the ServerCtx calls a defense makes.
type tracedCtx struct {
	defense.ServerCtx
	tr   *simTracer
	pzIn pzengine.Engine
	pz   *tracedEngine
}

func (c *tracedCtx) NormalSYN(syn tcpkit.Segment, mss uint16, wscale uint8) {
	c.tr.begin(kNormalSYN)
	c.ServerCtx.NormalSYN(syn, mss, wscale)
	c.tr.end()
}

func (c *tracedCtx) SynAck(syn tcpkit.Segment, serverISN uint32, opts []byte) {
	c.tr.begin(kSynAck)
	c.ServerCtx.SynAck(syn, serverISN, opts)
	c.tr.end()
}

func (c *tracedCtx) Establish(peer tcpkit.PeerKey, mss uint16, solvedPuzzle bool) {
	c.tr.begin(kEstablish)
	c.ServerCtx.Establish(peer, mss, solvedPuzzle)
	c.tr.end()
}

func (c *tracedCtx) DeliverData(seg tcpkit.Segment) {
	c.tr.begin(kDeliverData)
	c.ServerCtx.DeliverData(seg)
	c.tr.end()
}

func (c *tracedCtx) ChargeHashes(n float64) {
	c.tr.begin(kChargeHashes)
	c.ServerCtx.ChargeHashes(n)
	c.tr.end()
}

func (c *tracedCtx) Puzzles() pzengine.Engine {
	inner := c.ServerCtx.Puzzles()
	if c.pz == nil || inner != c.pzIn {
		c.pzIn = inner
		c.pz = &tracedEngine{Engine: inner, tr: c.tr}
	}
	return c.pz
}

// tracedEngine times the simulated puzzle engine's issue and verify.
type tracedEngine struct {
	pzengine.Engine
	tr *simTracer
}

func (e *tracedEngine) Issue(flow puzzle.FlowID) puzzle.Challenge {
	e.tr.begin(kIssue)
	ch := e.Engine.Issue(flow)
	e.tr.end()
	return ch
}

func (e *tracedEngine) Verify(flow puzzle.FlowID, sol puzzle.Solution) (puzzle.VerifyInfo, error) {
	e.tr.begin(kVerify)
	info, err := e.Engine.Verify(flow, sol)
	e.tr.end()
	return info, err
}

// tracedSink times a sweep sink's Write and Flush calls.
type tracedSink struct {
	inner sweep.Sink

	mu              sync.Mutex
	writes, flushes int64
	writeT, flushT  time.Duration
}

func (s *tracedSink) Write(r sweep.Result) error {
	t0 := time.Now()
	err := s.inner.Write(r)
	d := time.Since(t0)
	s.mu.Lock()
	s.writes++
	s.writeT += d
	s.mu.Unlock()
	return err
}

func (s *tracedSink) Flush() error {
	t0 := time.Now()
	err := s.inner.Flush()
	d := time.Since(t0)
	s.mu.Lock()
	s.flushes++
	s.flushT += d
	s.mu.Unlock()
	return err
}
