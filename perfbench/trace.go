package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans that share an ID belong to one cell
// (simulator) or one connection (real tier); Span numbers them within that
// ID in the order they began, and Parent names the enclosing span's
// number, or -1 for a root.
type spanRec struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the first max spans of a traced run in memory; the rest
// are only counted, so a long run stays small. Start and End are
// nanoseconds since the log's epoch.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	max     int
	recs    []spanRec
	dropped int64
}

func newSpanLog(max int) *spanLog { return &spanLog{epoch: time.Now(), max: max} }

func (l *spanLog) record(name string, id uint64, span, parent int64, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) >= l.max {
		l.dropped++
		return
	}
	l.recs = append(l.recs, spanRec{
		Name: name, ID: id, Span: span, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
}

func (l *spanLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs, l.dropped = l.recs[:0], 0
}

// writeTo writes the kept spans as NDJSON to path.
func (l *spanLog) writeTo(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range l.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (l *spanLog) summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("%d spans kept, %d more counted only", len(l.recs), l.dropped)
}

// spanKind names a simulator boundary the benchmark times.
type spanKind uint8

const (
	kOnSYN spanKind = iota
	kOnACK
	kOnTick
	kSynAck
	kNormalSYN
	kEstablish
	kDeliverData
	kChargeHashes
	kIssue
	kVerify
	numSimKinds
)

var simKindNames = [numSimKinds]string{
	kOnSYN:        "defense.on_syn",
	kOnACK:        "defense.on_ack",
	kOnTick:       "defense.on_tick",
	kSynAck:       "serversim.synack",
	kNormalSYN:    "serversim.normal_syn",
	kEstablish:    "serversim.establish",
	kDeliverData:  "serversim.deliver_data",
	kChargeHashes: "serversim.charge_hashes",
	kIssue:        "pzengine.issue",
	kVerify:       "pzengine.verify",
}

// spanTotals aggregates spans by kind. Self time is a span's duration
// minus the part its child spans cover.
type spanTotals struct {
	calls       [numSimKinds]int64
	total, self [numSimKinds]time.Duration
}

func (s *spanTotals) add(o *spanTotals) {
	for k := range s.calls {
		s.calls[k] += o.calls[k]
		s.total[k] += o.total[k]
		s.self[k] += o.self[k]
	}
}

type frame struct {
	kind  spanKind
	seq   int64
	start time.Time
	child time.Duration
}

// simTracer times the spans of one simulated server. A server runs on one
// goroutine, so the tracer keeps a plain stack of open spans.
type simTracer struct {
	id    uint64
	log   *spanLog
	stack []frame
	seq   int64
	spanTotals
}

func (t *simTracer) begin(k spanKind) {
	t.stack = append(t.stack, frame{kind: k, seq: t.seq, start: time.Now()})
	t.seq++
}

func (t *simTracer) end() {
	now := time.Now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(f.start)
	t.calls[f.kind]++
	t.total[f.kind] += d
	t.self[f.kind] += d - f.child
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].seq
	}
	t.log.record(simKindNames[f.kind], t.id, f.seq, parent, f.start, now)
}

// simTrace collects the tracers of every server built while it is active.
type simTrace struct {
	mu      sync.Mutex
	log     *spanLog
	tracers []*simTracer
}

func (s *simTrace) newTracer() *simTracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &simTracer{id: uint64(len(s.tracers)), log: s.log}
	s.tracers = append(s.tracers, t)
	return t
}

// totals sums every tracer's spans. Call it only after the traced
// simulations have returned.
func (s *simTrace) totals() spanTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out spanTotals
	for _, t := range s.tracers {
		out.add(&t.spanTotals)
	}
	return out
}
