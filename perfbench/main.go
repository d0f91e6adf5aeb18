// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload for a fixed time, checks that
// every output is correct, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run measures an untraced and a traced phase, prints a per-layer
// table with the tracing overhead, and the metrics are the per-layer
// metrics. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload sim-flood --seed 1 --seconds 15 --trace 0
//
// Everything it writes stays under .bench_build/ in the current
// directory. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times each run sets up; setup_s is the median.
const setupRepeats = 7

// defaultSeed is the seed whose simulator outputs are pinned.
const defaultSeed = 1

// pinnedDigests are the SHA-256 digests of each simulator workload's sink
// output (NDJSON then CSV) for the default seed. sim-rerun replays the
// sim-sweep grid and must reproduce its output, so it shares that digest.
// A change that moves simulated results must say why and update them.
var pinnedDigests = map[string]string{
	"sim-flood": "68df27d56dbf5160ca0773373013831d828cae3f1ca65a0f7af3810aec9391f4",
	"sim-sweep": "24e4aa507448a758ed4e9ac6be06c87767bca71afc1311ece5f5756bbfe01564",
}

type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workDir string
}

// phase is how long one measured phase runs: the whole run, or half of it
// for each of the untraced and traced phases of a traced run.
func (c runCfg) phase() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

type workload struct {
	name, why string
	run       func(runCfg) (*report, error)
}

var workloads = []workload{
	{"sim-flood", "one large puzzle-defended connection flood per cell: engine, packet path, tcpopt, defense hooks and host models do nearly all the work", simFlood},
	{"sim-sweep", "a 48-cell defense x attack x seed grid through sim.RunSweep with 2 workers, sinks and an empty cache: every defense path plus runner, cache writes and sinks", simSweep},
	{"sim-rerun", "the sim-sweep grid replayed against a filled cache: every cell is a hit, so cache reads and sinks do the work and nothing is simulated", simRerun},
	{"net-handshake", "two closed-loop honest dialers through a loopback puzzlenet proxy at k=1 m=8 with a 16 B echo: per-handshake issue, verify, accept and backend-dial cost", netWorkload(false)},
	{"net-flood", "one honest dialer open loop at 1000/s while an attacker abandons challenges at 2000/s, one connection at a time: the listener issue and abandoned-preamble paths", netWorkload(true)},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from (>= 0)")
	seconds := fs.Float64("seconds", 15, "how long the run measures")
	trace := fs.Int("trace", 0, "1 measures per-layer metrics in a separate traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seed >= 0, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	workDir := filepath.Join(base, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := runCfg{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workDir: workDir,
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	tracePath := ""
	if cfg.trace {
		tracePath = filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.ndjson", w.name, cfg.seed))
		if err := rep.spans.writeTo(tracePath); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	printHuman(stdout, w, cfg, rep, tracePath)
	line, err := resultLine(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the run's final JSON line: every end-to-end metric,
// or with trace every per-layer metric.
func resultLine(rep *report, trace bool) (string, error) {
	defs, vals := e2eMetrics, rep.e2e
	if trace {
		defs, vals = layerMetrics, rep.layers
	}
	res := result{
		Correct:   rep.correct() && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !trace && !ok {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// printHuman prints the host stamp, notes, faults and metric tables, each
// line starting with "#".
func printHuman(w io.Writer, wl *workload, cfg runCfg, rep *report, tracePath string) {
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v\n", wl.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	fmt.Fprintf(w, "# host: %s\n", hostStamp())
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# proc.cpu_utilisation=%.3f runtime.gc_cpu_share=%.3f runtime.gc_cycles=%.0f wall=%.3fs samples=%d tail=p%.1f\n",
		rep.stats.procUtilisation(), rep.stats.rt.gcShare(), rep.stats.rt.gcCycles, rep.stats.wall.Seconds(), rep.samples, rep.tailP)
	for _, d := range e2eMetrics {
		if v, ok := rep.e2e[d.name]; ok {
			fmt.Fprintf(w, "# %-22s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if cfg.trace {
		fmt.Fprintf(w, "# per-layer (%s):\n", wl.name)
		names := make([]string, 0, len(layerMetrics))
		for _, d := range layerMetrics {
			names = append(names, d.name)
		}
		sort.Strings(names)
		units := map[string]string{}
		for _, d := range layerMetrics {
			units[d.name] = d.unit
		}
		for _, n := range names {
			if v := rep.layers[n]; v != 0 {
				fmt.Fprintf(w, "#   %-38s %14.6g %s\n", n, v, units[n])
			}
		}
		for _, l := range rep.spanTable {
			fmt.Fprintf(w, "#   %s\n", l)
		}
		fmt.Fprintf(w, "# spans: %s, written to %s\n", rep.spans.summary(), tracePath)
	}
	for _, f := range rep.faults {
		fmt.Fprintf(w, "# FAULT: %s\n", f)
	}
}
