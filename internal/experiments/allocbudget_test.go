package experiments

import (
	"testing"
	"time"
)

// allocBudgetScenario is a small cell of the sim-flood shape: a
// puzzle-defended server, solving clients and solving bots, one shard.
func allocBudgetScenario() Scenario {
	return Scenario{
		Label:    "alloc-budget",
		Defense:  DefensePuzzles,
		Duration: 10 * time.Second, AttackStart: 2 * time.Second, AttackStop: 8 * time.Second,
		NumClients: 4, ClientRate: 10, BotCount: 4, PerBotRate: 100,
		Backlog: 128, AcceptBacklog: 128, Workers: 32,
		Seed:         3,
		ClientsSolve: true, BotsSolve: true,
		Shards: 1,
	}
}

// TestPuzzleFloodAllocBudget pins the heap allocations of one small
// puzzle-defended flood cell. The simulation is deterministic, so the
// count is too: it measured 26,552 allocs per cell before the handshake
// path stopped allocating per option (in-place FindOption,
// AppendChallenge, pre-bound timer callbacks, slab-allocated events),
// 13,496 after, and 11,228 once queued solves stopped costing a closure
// each. The ceiling is that value plus 10%; a change that puts
// per-packet or per-solve allocations back on the handshake path fails
// here.
func TestPuzzleFloodAllocBudget(t *testing.T) {
	const budget = 11228
	sc := allocBudgetScenario()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunFlood(sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per cell: %.0f (ceiling %d)", allocs, budget*11/10)
	if allocs > budget*11/10 {
		t.Errorf("one puzzle flood cell allocates %.0f objects, ceiling %d", allocs, budget*11/10)
	}
}

// TestPuzzleFloodHeapResidency pins how many events the engine heaps hold
// when the same cell reaches its horizon. The bots' solve backlogs are
// the bulk of the pending work; each bot CPU keeps them in its own queue
// with only the head in the heap. The cell measured 188 pending events
// at one shard and 35 + 153 at two; with one heap event per queued solve
// it held 2,432 and 35 + 2,397. The ceilings are twice the measured
// values. The fired-event count is pinned exactly: queueing the backlog
// elsewhere must not add, drop or merge a single event.
func TestPuzzleFloodHeapResidency(t *testing.T) {
	const fired = 30211
	for _, tc := range []struct {
		shards  int
		pending []int // measured per engine
	}{
		{1, []int{188}},
		{2, []int{35, 153}},
	} {
		sc := allocBudgetScenario()
		sc.Shards = tc.shards
		run, err := RunFlood(sc)
		if err != nil {
			t.Fatal(err)
		}
		if run.Net.Shards() != len(tc.pending) {
			t.Fatalf("shards=%d: network has %d engines", tc.shards, run.Net.Shards())
		}
		var total uint64
		for i, measured := range tc.pending {
			eng := run.Net.Engine(i)
			total += eng.Fired()
			if got := eng.Pending(); got > 2*measured {
				t.Errorf("shards=%d engine %d: %d events pending at the horizon, ceiling %d",
					tc.shards, i, got, 2*measured)
			}
		}
		if total != fired {
			t.Errorf("shards=%d: engines fired %d events, want %d", tc.shards, total, fired)
		}
	}
}
