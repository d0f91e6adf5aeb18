package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/sim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// sweepWorkers is the runner width of the grid workloads: nproc on the
// reference host, and the most load the benchmark puts on it.
const sweepWorkers = 2

// floodScenario is the sim-flood cell: the shape of the repository's
// BenchmarkShardedFlood deployment, run on the single event heap.
func floodScenario(seed int64, def sweep.Defense) experiments.Scenario {
	return experiments.Scenario{
		Label:    "sim-flood",
		Defense:  def,
		Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
		NumClients: 24, ClientRate: 20, BotCount: 12, PerBotRate: 200,
		Backlog: 512, AcceptBacklog: 512, Workers: 64,
		Seed:         seed + 1,
		ClientsSolve: true, BotsSolve: true,
		Shards: 1,
	}
}

// gridSeeds derives the four distinct, non-zero cell seeds of a grid
// from the benchmark seed.
func gridSeeds(seed int64) []int64 {
	return []int64{4*seed + 1, 4*seed + 2, 4*seed + 3, 4*seed + 4}
}

// sweepGrid is the figure-shaped grid of sim-sweep and sim-rerun: the
// paper's four defenses against three floods, four seeds each, in small
// cells. With traced set, every cell runs its defense behind the timing
// wrapper; labels stay the same.
func sweepGrid(seed int64, traced bool) sweep.Grid {
	defenses := sweep.Axis{Name: "defense"}
	for _, d := range baseDefenses {
		name := d
		if traced {
			name = tracedName(d)
		}
		defenses.Points = append(defenses.Points, sweep.Point{
			Label: "defense=" + string(d),
			Set:   func(sc *sweep.Scenario) { sc.Defense = name },
		})
	}
	return sweep.Grid{
		Base: sweep.Scenario{
			Label:    "sim-sweep",
			Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
			NumClients: 2, ClientRate: 5, BotCount: 2, PerBotRate: 50,
			Backlog: 128, AcceptBacklog: 128, Workers: 32,
			ClientsSolve: true, BotsSolve: true,
		},
		Axes: []sweep.Axis{
			defenses,
			sweep.Attacks(sweep.AttackSYNFlood, sweep.AttackConnFlood, sweep.AttackSolutionFlood),
			sweep.Seeds(gridSeeds(seed)...),
		},
	}
}

// untraced maps traced sink output back to what the untraced cells write:
// the defense label is the only difference the wrapper may make.
func untraced(out []byte) []byte {
	return bytes.ReplaceAll(out, []byte(tracedPrefix), nil)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sinkOutput renders results through the NDJSON and CSV sinks, the
// formats the sweep CLI writes.
func sinkOutput(results []sweep.Result) ([]byte, error) {
	var nd, cs bytes.Buffer
	sinks := []sweep.Sink{sweep.NewNDJSON(&nd), sweep.NewCSV(&cs)}
	for _, r := range results {
		for _, s := range sinks {
			if err := s.Write(r); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			return nil, err
		}
	}
	return append(nd.Bytes(), cs.Bytes()...), nil
}

// cellCheck is what one simulated cell is checked by: the digest of its
// sink output and its simulated per-layer counts.
type cellCheck struct {
	out     []byte
	counts  counts
	extract time.Duration
}

// checkFlood measures a finished flood cell the way RunSweep does and
// renders it through the sinks.
func checkFlood(run *experiments.FloodRun) (cellCheck, error) {
	t0 := time.Now()
	m, s := experiments.StandardMetrics(run)
	extract := time.Since(t0)
	out, err := sinkOutput([]sweep.Result{{Experiment: "sweep", Scenario: run.Cfg, Metrics: m, Series: s}})
	if err != nil {
		return cellCheck{}, err
	}
	return cellCheck{out: out, counts: floodCounts(run), extract: extract}, nil
}

// ---- sim-flood ----

type floodPhase struct {
	cellMs, allocs, allocKiB, extractMs []float64
	counts                              counts
	spans                               spanTotals
	retainedMiB                         float64
	stats                               phaseStats
}

// runFloodCells runs flood cells back to back until the phase deadline,
// checking each against ref.
func runFloodCells(rep *report, sc experiments.Scenario, ref cellCheck, d time.Duration, traced bool) (*floodPhase, error) {
	ph := &floodPhase{}
	var st *simTrace
	if traced {
		st = &simTrace{log: rep.spans}
		activeSimTrace.Store(st)
		defer activeSimTrace.Store(nil)
	}
	var last *experiments.FloodRun
	var m0, m1 runtime.MemStats
	clock := startPhase()
	deadline := clock.t0.Add(d)
	for time.Now().Before(deadline) {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run, err := experiments.RunFlood(sc)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		rep.attempted++
		if err != nil {
			rep.fail("sim-flood cell: %v", err)
			continue
		}
		chk, err := checkFlood(run)
		if err != nil {
			return nil, err
		}
		out := chk.out
		if traced {
			out = untraced(out)
		}
		rep.checkOutput("sim-flood cell", out, ref.out, 1)
		rep.guard("sim-flood cell", ref.counts, chk.counts)
		ph.cellMs = append(ph.cellMs, ms(dt))
		ph.allocs = append(ph.allocs, float64(m1.Mallocs-m0.Mallocs))
		ph.allocKiB = append(ph.allocKiB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		ph.extractMs = append(ph.extractMs, ms(chk.extract))
		ph.counts = chk.counts
		last = run
	}
	ph.stats = clock.stop()
	ph.retainedMiB = retainedHeapMiB(last)
	if st != nil {
		ph.spans = st.totals()
	}
	return ph, nil
}

func simFlood(cfg runCfg) (*report, error) {
	rep := newReport()
	var setups []float64
	var ref cellCheck
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		run, err := experiments.RunFlood(floodScenario(cfg.seed, sweep.DefensePuzzles))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		chk, err := checkFlood(run)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = chk
			continue
		}
		if !bytes.Equal(chk.out, ref.out) {
			rep.fault("sim-flood set-up cells differ between repeats")
		}
		rep.guard("sim-flood set-up cell", ref.counts, chk.counts)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.pin("sim-flood", cfg.seed, digest(ref.out))

	sc := floodScenario(cfg.seed, sweep.DefensePuzzles)
	ph, err := runFloodCells(rep, sc, ref, cfg.phase(), false)
	if err != nil {
		return nil, err
	}
	rep.e2e["op_ms_p50"] = median(ph.cellMs)
	rep.setTail(ph.cellMs)
	rep.e2e["throughput_per_s"] = ratio(1e3, median(ph.cellMs))
	rep.e2e["allocs_per_item"] = median(ph.allocs)
	rep.e2e["alloc_kib_per_item"] = median(ph.allocKiB)
	rep.e2e["retained_heap_mib"] = ph.retainedMiB
	rep.stats = ph.stats
	rep.notef("cells=%d (each %s simulated, %v events)", len(ph.cellMs), sc.Duration, ph.counts["netsim.events"])
	if !cfg.trace {
		return rep, nil
	}

	tph, err := runFloodCells(rep, floodScenario(cfg.seed, tracedName(sweep.DefensePuzzles)), ref, cfg.phase(), true)
	if err != nil {
		return nil, err
	}
	rep.guard("sim-flood traced cell", ph.counts, tph.counts)
	rep.setCounts(ph.counts)
	events := ph.counts["netsim.events"]
	rep.layers["netsim.ns_per_event"] = ratio(median(ph.cellMs)*1e6, events)
	rep.layers["netsim.events_per_s"] = ratio(events*1e3, median(ph.cellMs))
	rep.setSpans(tph.spans, float64(len(tph.cellMs)))
	rep.layers["stats.extract_ms"] = median(ph.extractMs)
	rep.setRuntime(ph.stats)
	rep.setOverhead(median(ph.cellMs), median(tph.cellMs))
	return rep, nil
}

// ---- sim-sweep and sim-rerun ----

// gridRun is one op: one or more back-to-back passes of a grid through
// sim.RunSweep.
type gridRun struct {
	outs         [][]byte // each pass's sink output
	results      []sweep.Result
	cells        int
	dur          time.Duration
	allocs       uint64
	allocBytes   uint64
	hits, misses int64
	exec         []*sweep.ExecStats
	sinks        []*tracedSink
}

// sweepOp runs the grid passes times through sim.RunSweep with NDJSON and
// CSV sinks against cache.
func sweepOp(grid sweep.Grid, cache *sweep.Cache, passes int, traceSinks bool) (*gridRun, error) {
	g := &gridRun{}
	bufs := make([][2]bytes.Buffer, passes)
	h0, mi0 := cache.Hits(), cache.Misses()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := range bufs {
		sinks := []sweep.Sink{sweep.NewNDJSON(&bufs[i][0]), sweep.NewCSV(&bufs[i][1])}
		if traceSinks {
			for j, s := range sinks {
				ts := &tracedSink{inner: s}
				g.sinks = append(g.sinks, ts)
				sinks[j] = ts
			}
		}
		results, err := sim.RunSweep(grid, sim.WithWorkers(sweepWorkers), sim.WithSinks(sinks...), sim.WithCache(cache))
		for _, s := range sinks {
			if ferr := s.Flush(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			return nil, err
		}
		g.results = results
		g.cells += len(results)
		if len(results) > 0 && results[0].Exec != nil {
			g.exec = append(g.exec, results[0].Exec)
		}
	}
	g.dur = time.Since(t0)
	runtime.ReadMemStats(&m1)
	for i := range bufs {
		g.outs = append(g.outs, append(bufs[i][0].Bytes(), bufs[i][1].Bytes()...))
	}
	g.allocs = m1.Mallocs - m0.Mallocs
	g.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	g.hits, g.misses = cache.Hits()-h0, cache.Misses()-mi0
	return g, nil
}

// checkOutput compares the sink output of cells against the reference.
// Each cell whose NDJSON line differs is a failed operation; a difference
// elsewhere in the output fails every cell.
func (r *report) checkOutput(name string, out, ref []byte, cells int64) {
	if bytes.Equal(out, ref) {
		return
	}
	got := strings.SplitN(string(out), "\n", int(cells)+1)
	want := strings.SplitN(string(ref), "\n", int(cells)+1)
	var bad int64
	for i := 0; i < int(cells) && i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			bad++
		}
	}
	if bad == 0 {
		bad = cells
	}
	r.failN(bad, "%s: %d of %d cells differ from the reference output (digest %s, want %s)",
		name, bad, cells, digest(out), digest(ref))
}

// tempCaches hands out empty cache directories under the run's work
// directory and removes them again.
type tempCaches struct {
	dir string
	n   int
}

func (s *tempCaches) open() (*sweep.Cache, error) {
	s.n++
	return sweep.OpenCache(filepath.Join(s.dir, fmt.Sprintf("cache-%d", s.n)))
}

func dropCache(c *sweep.Cache) { _ = os.RemoveAll(c.Dir()) }

// gridPhase is a measured series of grid passes.
type gridPhase struct {
	opMs                            []float64
	passes, cells                   int
	allocs, allocBytes              uint64
	hits, misses                    int64
	steals, failedScans, queueDepth float64
	sinkWrites, sinkFlushes         int64
	sinkWriteT, sinkFlushT          time.Duration
	sinkBytes                       int
	spans                           spanTotals
	retainedMiB                     float64
	stats                           phaseStats
}

// runGridOps repeats op until the phase deadline. Every pass of every op
// must reproduce ref byte for byte (after untracing) with the expected
// cache traffic.
func runGridOps(rep *report, name string, ref []byte, gridCells int64, passes int, d time.Duration, traced bool,
	wantHits, wantMisses int64, op func() (*gridRun, error)) (*gridPhase, error) {
	ph := &gridPhase{}
	var st *simTrace
	if traced {
		st = &simTrace{log: rep.spans}
		activeSimTrace.Store(st)
		defer activeSimTrace.Store(nil)
	}
	var last *gridRun
	clock := startPhase()
	deadline := clock.t0.Add(d)
	for time.Now().Before(deadline) {
		rep.attempted += gridCells * int64(passes)
		g, err := op()
		if err != nil {
			rep.failN(gridCells*int64(passes), "%s: %v", name, err)
			continue
		}
		for _, out := range g.outs {
			if traced {
				out = untraced(out)
			}
			rep.checkOutput(name, out, ref, gridCells)
			ph.sinkBytes += len(out)
		}
		if g.hits != wantHits*int64(passes) || g.misses != wantMisses*int64(passes) {
			rep.fault("%s: cache hits/misses %d/%d over %d passes, want %d/%d per pass",
				name, g.hits, g.misses, passes, wantHits, wantMisses)
		}
		ph.opMs = append(ph.opMs, ms(g.dur))
		ph.passes += len(g.outs)
		ph.cells += g.cells
		ph.allocs += g.allocs
		ph.allocBytes += g.allocBytes
		ph.hits += g.hits
		ph.misses += g.misses
		for _, ex := range g.exec {
			ph.steals += float64(ex.Steals)
			ph.failedScans += float64(ex.FailedStealScans)
			ph.queueDepth += ex.MeanQueueDepth
		}
		for _, s := range g.sinks {
			ph.sinkWrites += s.writes
			ph.sinkWriteT += s.writeT
			ph.sinkFlushes += s.flushes
			ph.sinkFlushT += s.flushT
		}
		last = g
	}
	ph.stats = clock.stop()
	if last != nil {
		// The retained heap holds one pass's output, whatever the number
		// of passes an op makes: the others were kept only to be checked.
		last.outs = [][]byte{last.outs[len(last.outs)-1]}
	}
	ph.retainedMiB = retainedHeapMiB(last)
	if st != nil {
		ph.spans = st.totals()
	}
	return ph, nil
}

func (ph *gridPhase) setE2E(rep *report) {
	cells := float64(max(ph.cells, 1))
	rep.e2e["op_ms_p50"] = median(ph.opMs)
	rep.setTail(ph.opMs)
	rep.e2e["throughput_per_s"] = ratio(1e3*float64(ph.cells)/float64(max(len(ph.opMs), 1)), median(ph.opMs))
	rep.e2e["allocs_per_item"] = float64(ph.allocs) / cells
	rep.e2e["alloc_kib_per_item"] = float64(ph.allocBytes) / 1024 / cells
	rep.e2e["retained_heap_mib"] = ph.retainedMiB
	rep.stats = ph.stats
}

// setGridLayers reports the cache, sink and runner layers of a grid phase,
// per pass.
func (ph *gridPhase) setGridLayers(rep *report, traced *gridPhase) {
	passes := float64(max(ph.passes, 1))
	rep.layers["sweep.cache.hits"] = float64(ph.hits) / passes
	rep.layers["sweep.cache.misses"] = float64(ph.misses) / passes
	rep.layers["runner.steals"] = ph.steals / passes
	rep.layers["runner.failed_steal_scans"] = ph.failedScans / passes
	rep.layers["runner.mean_queue_depth"] = ph.queueDepth / passes
	rep.layers["runner.cpu_utilisation"] = ratio(ph.stats.cpu.Seconds(), sweepWorkers*ph.stats.wall.Seconds())
	rep.layers["sweep.sink.write_us"] = ratio(us(traced.sinkWriteT), float64(traced.sinkWrites))
	rep.notef("sink: %d writes at %.2f us, %d flushes at %.2f us (traced phase)",
		traced.sinkWrites, rep.layers["sweep.sink.write_us"], traced.sinkFlushes, ratio(us(traced.sinkFlushT), float64(traced.sinkFlushes)))
	rep.layers["sweep.sink.bytes"] = float64(ph.sinkBytes) / passes
	rep.setRuntime(ph.stats)
	rep.setOverhead(median(ph.opMs), median(traced.opMs))
}

// timeCacheCalls times direct Cache.Put and Cache.Get calls over the
// grid's canonical cells, with the stored results of ref.
func timeCacheCalls(rep *report, caches *tempCaches, ref []sweep.Result) error {
	c, err := caches.open()
	if err != nil {
		return err
	}
	defer dropCache(c)
	const rounds = 3
	var put, get time.Duration
	var calls int
	for r := 0; r < rounds; r++ {
		for _, res := range ref {
			t0 := time.Now()
			if err := c.Put("sweep", res.Scenario, res.Metrics, res.Series); err != nil {
				return err
			}
			t1 := time.Now()
			_, _, ok := c.Get("sweep", res.Scenario)
			t2 := time.Now()
			if !ok {
				rep.fault("cache: Get missed a cell just Put")
			}
			put += t1.Sub(t0)
			get += t2.Sub(t1)
			calls++
		}
	}
	rep.layers["sweep.cache.put_us"] = ratio(us(put), float64(calls))
	rep.layers["sweep.cache.get_us"] = ratio(us(get), float64(calls))
	return nil
}

// countGrid simulates the grid's canonical cells once more through
// experiments.RunFlood, outside any timing, for the simulated per-layer
// counts RunSweep does not expose. Each cell must measure exactly as the
// swept one did.
func countGrid(rep *report, ref []sweep.Result) error {
	cells := make([]experiments.Scenario, len(ref))
	for i, r := range ref {
		cells[i] = r.Scenario
	}
	runs, err := experiments.RunScenarios(sweepWorkers, cells)
	if err != nil {
		return err
	}
	total := counts{}
	var extract []float64
	for i, run := range runs {
		chk, err := checkFlood(run)
		if err != nil {
			return err
		}
		want, err := sinkOutput(ref[i : i+1])
		if err != nil {
			return err
		}
		if !bytes.Equal(chk.out, want) {
			rep.fault("cell %q measures differently through RunFlood than through RunSweep", ref[i].Scenario.Label)
		}
		total.add(chk.counts)
		extract = append(extract, ms(chk.extract))
	}
	rep.setCounts(total.scale(1 / float64(max(len(runs), 1))))
	rep.layers["stats.extract_ms"] = median(extract)
	return nil
}

// rerunPasses is how many cached replays of the grid one sim-rerun op
// makes. A single replay takes a few milliseconds, and its time swung with
// each garbage collection. An op of ten replays (about 55 ms) still put
// the host's scheduling hiccups into the tail: its p90 spread by up to 28%
// between runs of the same code. Forty in a row (about 210 ms, as long as
// the other simulator ops) time steadily.
const rerunPasses = 40

// setUpGrid makes setupRepeats cold passes of grid, each into a fresh
// cache, and returns their median time, the first pass's output, and the
// cache the last pass filled. Every pass must write the same output.
func setUpGrid(rep *report, name string, caches *tempCaches, grid sweep.Grid) (float64, *gridRun, *sweep.Cache, error) {
	var setups []float64
	var ref *gridRun
	var filled *sweep.Cache
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c, err := caches.open()
		if err != nil {
			return 0, nil, filled, err
		}
		if filled != nil {
			dropCache(filled)
		}
		filled = c
		g, err := sweepOp(grid, c, 1, false)
		if err != nil {
			return 0, nil, filled, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref == nil {
			ref = g
		} else if !bytes.Equal(g.outs[0], ref.outs[0]) {
			rep.fault("%s: set-up passes differ between repeats", name)
		}
	}
	return median(setups), ref, filled, nil
}

func simSweep(cfg runCfg) (*report, error) {
	rep := newReport()
	caches := &tempCaches{dir: cfg.workDir}
	grid := sweepGrid(cfg.seed, false)
	setup, ref, filled, err := setUpGrid(rep, "sim-sweep", caches, grid)
	if filled != nil {
		dropCache(filled)
	}
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.pin("sim-sweep", cfg.seed, digest(ref.outs[0]))
	cells := int64(ref.cells)

	coldPass := func(g sweep.Grid, traceSinks bool) func() (*gridRun, error) {
		return func() (*gridRun, error) {
			c, err := caches.open()
			if err != nil {
				return nil, err
			}
			defer dropCache(c)
			return sweepOp(g, c, 1, traceSinks)
		}
	}
	ph, err := runGridOps(rep, "sim-sweep", ref.outs[0], cells, 1, cfg.phase(), false, 0, cells, coldPass(grid, false))
	if err != nil {
		return nil, err
	}
	ph.setE2E(rep)
	rep.notef("passes=%d of %d cells, %d runner workers", ph.passes, cells, sweepWorkers)
	if !cfg.trace {
		return rep, nil
	}
	tph, err := runGridOps(rep, "sim-sweep traced", ref.outs[0], cells, 1, cfg.phase(), true, 0, cells,
		coldPass(sweepGrid(cfg.seed, true), true))
	if err != nil {
		return nil, err
	}
	ph.setGridLayers(rep, tph)
	rep.setSpans(tph.spans, float64(tph.cells))
	if err := timeCacheCalls(rep, caches, ref.results); err != nil {
		return nil, err
	}
	if err := countGrid(rep, ref.results); err != nil {
		return nil, err
	}
	// The grid's cells run on sweepWorkers workers at once: events per
	// second is the whole grid's rate, time per event a worker's share.
	eventsPerS := rep.layers["netsim.events"] * rep.e2e["throughput_per_s"]
	rep.layers["netsim.events_per_s"] = eventsPerS
	rep.layers["netsim.ns_per_event"] = ratio(1e9*sweepWorkers, eventsPerS)
	return rep, nil
}

func simRerun(cfg runCfg) (*report, error) {
	rep := newReport()
	caches := &tempCaches{dir: cfg.workDir}
	grid := sweepGrid(cfg.seed, false)
	setup, cold, filled, err := setUpGrid(rep, "sim-rerun", caches, grid)
	if filled != nil {
		defer dropCache(filled)
	}
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	// The cold pass is the sim-sweep workload's output for this seed.
	rep.pin("sim-sweep", cfg.seed, digest(cold.outs[0]))
	cells := int64(cold.cells)

	replay := func(traceSinks bool) func() (*gridRun, error) {
		return func() (*gridRun, error) { return sweepOp(grid, filled, rerunPasses, traceSinks) }
	}
	ph, err := runGridOps(rep, "sim-rerun", cold.outs[0], cells, rerunPasses, cfg.phase(), false, cells, 0, replay(false))
	if err != nil {
		return nil, err
	}
	ph.setE2E(rep)
	rep.notef("ops=%d of %d replays of %d cached cells, %d runner workers", len(ph.opMs), rerunPasses, cells, sweepWorkers)
	if !cfg.trace {
		return rep, nil
	}
	tph, err := runGridOps(rep, "sim-rerun traced", cold.outs[0], cells, rerunPasses, cfg.phase(), true, cells, 0, replay(true))
	if err != nil {
		return nil, err
	}
	ph.setGridLayers(rep, tph)
	if err := timeCacheCalls(rep, caches, cold.results); err != nil {
		return nil, err
	}
	return rep, nil
}
