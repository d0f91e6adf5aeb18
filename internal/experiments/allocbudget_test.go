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
// count is too: it measured 13,496 allocs per cell once the handshake path
// stopped allocating per option (in-place FindOption, AppendChallenge,
// pre-bound timer callbacks, slab-allocated events), against 26,552
// before. The ceiling is that value plus 10%; a change that puts
// per-packet allocations back on the handshake path fails here.
func TestPuzzleFloodAllocBudget(t *testing.T) {
	const budget = 13496
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
