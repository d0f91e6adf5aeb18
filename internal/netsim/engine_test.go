package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run(2 * time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling zero or fired handles must not panic (and must not touch
	// whatever event now occupies the recycled slot).
	var zero Timer
	zero.Cancel()
	ev2 := e.Schedule(0, func() {})
	e.Run(3 * time.Second)
	ev2.Cancel()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run(5 * time.Second)
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5*time.Second, func() { fired = true })
	e.Run(4 * time.Second)
	if fired {
		t.Error("event beyond boundary fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run(6 * time.Second)
	if !fired {
		t.Error("event not fired after extending run")
	}
}

func TestScheduleNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	e.Run(time.Second)
	var at time.Duration
	e.Schedule(-5*time.Second, func() { at = e.Now() })
	e.Run(2 * time.Second)
	if at != time.Second {
		t.Errorf("event at %v, want 1s (clamped)", at)
	}
}

// A cancelled event goes back to the pool without firing, and the struct
// that comes back out must not inherit the cancellation — the regression
// class behind the PR 3 cancelled-head bug.
func TestRecycledEventDoesNotInheritCancel(t *testing.T) {
	e := NewEngine()
	const n = 50
	for i := 0; i < n; i++ {
		tm := e.Schedule(time.Second, func() { t.Error("cancelled event fired") })
		tm.Cancel()
	}
	e.Run(2 * time.Second)
	if e.PoolSize() != n {
		t.Fatalf("PoolSize = %d, want %d cancelled events recycled", e.PoolSize(), n)
	}
	// Reuse the whole pool: every reused event must fire exactly once, in
	// FIFO order (stale ordering fields would scramble it, a stale
	// cancelled flag would drop it).
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run(4 * time.Second)
	if len(order) != n {
		t.Fatalf("fired %d of %d reused events", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO: reused event carried stale ordering state", order)
		}
	}
}

// A Timer held across its event's firing must not cancel the pool slot's
// next occupant.
func TestStaleCancelMissesReusedEvent(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(time.Second, func() {})
	e.Run(2 * time.Second) // fires and recycles the event
	fired := false
	fresh := e.Schedule(time.Second, func() { fired = true }) // reuses the struct
	stale.Cancel()                                            // generation moved on: must be a no-op
	if _, ok := stale.At(); ok {
		t.Error("stale Timer still reports a scheduled time")
	}
	if at, ok := fresh.At(); !ok || at != 3*time.Second {
		t.Errorf("fresh Timer At = %v, %v; want 3s, true", at, ok)
	}
	e.Run(4 * time.Second)
	if !fired {
		t.Error("stale Cancel killed the reused event")
	}
}

// The steady-state timer path must not touch the allocator: one event
// cycles between the heap and the free-list.
func TestSchedulingSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(time.Microsecond, tick) }
	e.Schedule(0, tick)
	for i := 0; i < 100; i++ { // warm the pool
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %v objects/op, want 0", allocs)
	}
}

// A cold engine carves events from slab chunks: scheduling n events costs
// one allocation per slabSize events plus the pending heap's growth, not
// one per event.
func TestColdEngineSlabAllocs(t *testing.T) {
	const n = 10000
	// The heap's growth is whatever append does for n pointers.
	var pq []*Event
	heapGrowth := 0
	for i := 0; i < n; i++ {
		if len(pq) == cap(pq) {
			heapGrowth++
		}
		pq = append(pq, nil)
	}
	slabs := (n + slabSize - 1) / slabSize
	fn := func() {}
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
	})
	// The Engine struct itself is the one extra allocation.
	if limit := float64(1 + slabs + heapGrowth); allocs > limit {
		t.Errorf("cold engine scheduling %d events allocates %v objects, want <= %v (%d slabs + %d heap growths + the engine)",
			n, allocs, limit, slabs, heapGrowth)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// scheduling order.
func TestEngineMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run(time.Hour)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
