package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func e2eFilled() *report {
	rep := newReport()
	for _, d := range e2eMetrics {
		rep.e2e[d.name] = 1
	}
	rep.attempted = 3
	return rep
}

func decode(t *testing.T, rep *report) result {
	t.Helper()
	line, err := resultLine(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPinnedDigestMismatchFailsRun(t *testing.T) {
	rep := e2eFilled()
	rep.pin("sim-flood", defaultSeed, pinnedDigests["sim-flood"])
	if res := decode(t, rep); !res.Correct {
		t.Fatalf("matching digest reported incorrect: %v", rep.faults)
	}
	rep.pin("sim-flood", defaultSeed+1, "0000") // other seeds are not pinned
	if !rep.correct() {
		t.Fatalf("digest of an unpinned seed was checked: %v", rep.faults)
	}
	rep.pin("sim-flood", defaultSeed, "0000")
	if res := decode(t, rep); res.Correct {
		t.Fatal("a pinned-digest mismatch left the run correct")
	}
}

func TestOutputMismatchFailsCells(t *testing.T) {
	ref := []byte("a\nb\nc\nheader\nrow\n")
	rep := e2eFilled()
	rep.checkOutput("grid", ref, ref, 3)
	if rep.failed != 0 || !rep.correct() {
		t.Fatalf("identical output failed: %d %v", rep.failed, rep.faults)
	}
	rep.checkOutput("grid", []byte("a\nB\nc\nheader\nrow\n"), ref, 3)
	if rep.failed != 1 {
		t.Errorf("one differing cell counted %d failures", rep.failed)
	}
	rep.checkOutput("grid", []byte("a\nb\nc\nheader\nROW\n"), ref, 3)
	if rep.failed != 4 {
		t.Errorf("a CSV difference should fail all 3 cells; failures now %d", rep.failed)
	}
	res := decode(t, rep)
	if res.Correct || res.Failed != 4 {
		t.Errorf("result %+v, want incorrect with 4 failures", res)
	}
}

func TestDeterminismGuard(t *testing.T) {
	rep := newReport()
	rep.guard("cell", counts{"netsim.events": 10}, counts{"netsim.events": 10})
	if !rep.correct() {
		t.Fatal("equal counts reported as a fault")
	}
	rep.guard("cell", counts{"netsim.events": 10}, counts{"netsim.events": 11})
	if rep.correct() {
		t.Fatal("differing counts not reported as a fault")
	}
}

// TestTracedDefenseChangesNothing runs one small flood with and without
// the timing wrappers: the sink output may differ only in the defense
// label, and the wrappers must have seen the hooks.
func TestTracedDefenseChangesNothing(t *testing.T) {
	for _, def := range baseDefenses {
		sc := experiments.Scenario{
			Duration: 10 * time.Second, AttackStart: 2 * time.Second, AttackStop: 8 * time.Second,
			NumClients: 2, ClientRate: 5, BotCount: 2, PerBotRate: 50,
			Backlog: 64, AcceptBacklog: 64, Workers: 16, Seed: 3,
			ClientsSolve: true, BotsSolve: true, Attack: sweep.AttackConnFlood,
		}
		sc.Defense = def
		plain, err := experiments.RunFlood(sc)
		if err != nil {
			t.Fatal(err)
		}
		st := &simTrace{log: newSpanLog(10)}
		activeSimTrace.Store(st)
		sc.Defense = tracedName(def)
		traced, err := experiments.RunFlood(sc)
		activeSimTrace.Store(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := checkFlood(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkFlood(traced)
		if err != nil {
			t.Fatal(err)
		}
		if string(untraced(got.out)) != string(want.out) {
			t.Errorf("%s: traced output differs:\n%s\nwant\n%s", def, got.out, want.out)
		}
		rep := newReport()
		rep.guard(string(def), want.counts, got.counts)
		if !rep.correct() {
			t.Errorf("%s: %v", def, rep.faults)
		}
		if tot := st.totals(); tot.calls[kOnSYN] == 0 || tot.calls[kOnTick] == 0 {
			t.Errorf("%s: wrappers saw no hooks: %+v", def, tot.calls)
		}
	}
}

// TestBenchmarkJSONMatches checks that the repository's BENCHMARK.json
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bj.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
