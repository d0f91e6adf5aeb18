package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// fifoNodes is the node count of the FIFO ordering workload.
const fifoNodes = 3

// fifoFire is one fired event of the workload: what fired, when, and
// the id it was created under.
type fifoFire struct {
	at   time.Duration
	kind byte // 'f' plain callback, 'p' packet delivery, 'c' CPU completion
	id   int
}

// fifoWorkload replays a byte script on a three-node network. Every
// fired event reads the next script byte and acts on its node: schedule
// a plain callback, send a packet, queue a completion on the node's
// serial CPU, or do two of these. Times sit on a 1 ms grid and packets
// take exactly 1 ms, so plain callbacks, arrivals and completions keep
// falling due at equal instants. Completions go through one FIFO per
// node, or, with viaFIFO false, through one ScheduleAt each; any
// difference in firing order changes the log.
type fifoWorkload struct {
	eng     *Engine
	net     *Network
	nodes   [fifoNodes]*fifoNode
	script  []byte
	next    int
	ids     int
	viaFIFO bool
	log     []fifoFire
}

type fifoNode struct {
	w      *fifoWorkload
	i      int
	addr   Addr
	freeAt time.Duration
	cpu    *FIFO[int]
}

func (n *fifoNode) Addr() Addr { return n.addr }

func (n *fifoNode) Handle(seg tcpkit.Segment) {
	n.w.fired('p', int(seg.Seq), n.i)
}

// runFIFOWorkload returns the workload's log and the engine's event
// count; a packet is two engine events and one log entry.
func runFIFOWorkload(t testing.TB, script []byte, viaFIFO bool) ([]fifoFire, uint64) {
	t.Helper()
	w := &fifoWorkload{eng: NewEngine(), script: script, viaFIFO: viaFIFO}
	w.net = NewNetwork(w.eng)
	link := LinkConfig{RateBps: math.Inf(1), Latency: time.Millisecond / 2, MaxBacklog: time.Second}
	for i := range w.nodes {
		n := &fifoNode{w: w, i: i, addr: Addr{10, 0, 0, byte(i + 1)}}
		n.cpu = NewFIFO(w.eng, func(id int) { w.fired('c', id, n.i) })
		if err := w.net.Attach(n, link); err != nil {
			t.Fatal(err)
		}
		w.nodes[i] = n
	}
	for i := 0; i < 2*fifoNodes; i++ {
		w.schedule(i%fifoNodes, 0)
	}
	w.eng.Run(time.Hour)
	return w.log, w.eng.Fired()
}

func (w *fifoWorkload) newID() int {
	w.ids++
	return w.ids
}

func (w *fifoWorkload) schedule(node int, delay time.Duration) {
	id := w.newID()
	w.eng.Schedule(delay, func() { w.fired('f', id, node) })
}

// fired logs one event and runs the node's next scripted action.
func (w *fifoWorkload) fired(kind byte, id, node int) {
	w.log = append(w.log, fifoFire{at: w.eng.Now(), kind: kind, id: id})
	w.act(node)
}

func (w *fifoWorkload) act(node int) {
	if w.next >= len(w.script) {
		return
	}
	b := w.script[w.next]
	w.next++
	arg := int(b>>2) & 3
	switch b & 3 {
	case 0:
		w.schedule(node, time.Duration(arg)*time.Millisecond)
	case 1:
		n := w.nodes[node]
		w.net.Send(tcpkit.Segment{
			Src: n.addr, Dst: w.nodes[arg%fifoNodes].addr,
			Seq: uint32(w.newID()), Flags: tcpkit.FlagACK,
		})
	case 2:
		n := w.nodes[node]
		start := w.eng.Now()
		if n.freeAt > start {
			start = n.freeAt
		}
		n.freeAt = start + time.Duration(arg)*time.Millisecond
		id := w.newID()
		if w.viaFIFO {
			n.cpu.Push(n.freeAt, id)
		} else {
			w.eng.ScheduleAt(n.freeAt, func() { w.fired('c', id, node) })
		}
	case 3:
		w.act(node)
		w.act(node)
	}
}

// checkFIFOOrder runs script both ways and fails on the first event that
// fires differently.
func checkFIFOOrder(t *testing.T, script []byte) {
	t.Helper()
	want, wantFired := runFIFOWorkload(t, script, false)
	got, gotFired := runFIFOWorkload(t, script, true)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("script %x: event %d fired as %s through the FIFO, %s through ScheduleAt",
				script, i, fifoFireString(got, i), fifoFireString(want, i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %x: %d events through the FIFO, %d through ScheduleAt", script, len(got), len(want))
	}
	if gotFired != wantFired {
		t.Fatalf("script %x: engine fired %d events through the FIFO, %d through ScheduleAt", script, gotFired, wantFired)
	}
}

func fifoFireString(log []fifoFire, i int) string {
	if i >= len(log) {
		return "nothing"
	}
	return fmt.Sprintf("%c%d@%v", log[i].kind, log[i].id, log[i].at)
}

// TestFIFOFiresInScheduleAtOrder is the FIFO's contract: completions
// queued through it fire at the same instants, and in the same order
// relative to plain callbacks and packet arrivals, as one ScheduleAt per
// completion.
func TestFIFOFiresInScheduleAtOrder(t *testing.T) {
	// On node 0, completion c2 is queued behind c1 with zero work, so
	// both fall due at 1 ms; node 1 then schedules the plain callback f
	// for 1 ms. c2 must fire before f, which only holds if the FIFO arms
	// c2 under the sequence number it took when it was queued.
	checkFIFOOrder(t, []byte{
		0x3,        // first event (node 0): two actions
		0x2 | 1<<2, // queue c1 with 1 ms of work
		0x2,        // queue c2 with no work
		0x0 | 1<<2, // second event (node 1): plain callback f 1 ms from now
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		script := make([]byte, 1+rng.Intn(96))
		rng.Read(script)
		checkFIFOOrder(t, script)
	}
}

// FuzzFIFOOrder runs arbitrary workload scripts through both scheduling
// paths: go test -fuzz=FuzzFIFOOrder ./internal/netsim
func FuzzFIFOOrder(f *testing.F) {
	f.Add([]byte{0x3, 0x6, 0x2, 0x4})
	f.Add([]byte{0x3, 0x6, 0x5, 0xe, 0x2, 0x1, 0x9, 0xa})
	f.Add([]byte{0xff, 0x02, 0x06, 0x0a, 0x0e, 0x01, 0x05, 0x09, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			return
		}
		checkFIFOOrder(t, script)
	})
}

// TestFIFOArmsOneEvent pins the point of the FIFO: however deep the
// backlog, the engine heap holds one event for it.
func TestFIFOArmsOneEvent(t *testing.T) {
	eng := NewEngine()
	var fired []int
	q := NewFIFO(eng, func(v int) { fired = append(fired, v) })
	for i := 0; i < 100; i++ {
		q.Push(time.Duration(i/3)*time.Millisecond, i)
	}
	if eng.Pending() != 1 {
		t.Fatalf("after 100 pushes: %d pending events, want 1", eng.Pending())
	}
	eng.Run(time.Second)
	if len(fired) != 100 || eng.Pending() != 0 || eng.Fired() != 100 {
		t.Fatalf("fired %d of 100 entries in %d events, %d events pending", len(fired), eng.Fired(), eng.Pending())
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("entry %d fired as %d", i, v)
		}
	}
}

func TestFIFOPushOutOfOrderPanics(t *testing.T) {
	q := NewFIFO(NewEngine(), func(int) {})
	q.Push(2*time.Millisecond, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Push earlier than the tail did not panic")
		}
	}()
	q.Push(time.Millisecond, 1)
}
