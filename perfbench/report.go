package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are printed by every workload with --trace 0. An "item" is
// a simulated cell or an honest handshake; an "op" is what one latency
// sample times (see README.md). op_ms_tail is p90, or on runs with
// fewer than 100 samples the highest percentile with ten samples above
// it.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_tail", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"allocs_per_item", "count", "lower"},
	{"alloc_kib_per_item", "KiB", "lower"},
	{"retained_heap_mib", "MiB", "lower"},
}

// layerMetrics are printed by every workload with --trace 1; a layer the
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"netsim.events", "count", "lower"},
	{"netsim.ns_per_event", "ns", "lower"},
	{"netsim.events_per_s", "1/s", "higher"},
	{"netsim.packets_sent", "count", "lower"},
	{"netsim.packets_dropped", "count", "lower"},
	{"netsim.unroutable", "count", "lower"},
	{"defense.on_syn_calls", "count", "lower"},
	{"defense.on_syn_self_ms", "ms", "lower"},
	{"defense.on_ack_calls", "count", "lower"},
	{"defense.on_ack_self_ms", "ms", "lower"},
	{"defense.on_tick_calls", "count", "lower"},
	{"pzengine.issue_calls", "count", "lower"},
	{"pzengine.issue_ms", "ms", "lower"},
	{"pzengine.verify_calls", "count", "lower"},
	{"pzengine.verify_ms", "ms", "lower"},
	{"serversim.synack_ms", "ms", "lower"},
	{"serversim.normal_syn_ms", "ms", "lower"},
	{"serversim.establish_ms", "ms", "lower"},
	{"serversim.syns_received", "count", "lower"},
	{"serversim.syn_drop_ratio", "ratio", "lower"},
	{"serversim.accept_overflow", "count", "lower"},
	{"serversim.solution_valid_ratio", "ratio", "higher"},
	{"serversim.requests_served", "count", "higher"},
	{"clientsim.completed_ratio", "ratio", "higher"},
	{"attacksim.sent", "count", "lower"},
	{"attacksim.established_ratio", "ratio", "lower"},
	{"stats.extract_ms", "ms", "lower"},
	{"sweep.cache.hits", "count", "higher"},
	{"sweep.cache.misses", "count", "lower"},
	{"sweep.cache.get_us", "us", "lower"},
	{"sweep.cache.put_us", "us", "lower"},
	{"sweep.sink.write_us", "us", "lower"},
	{"sweep.sink.bytes", "B", "lower"},
	{"runner.steals", "count", "lower"},
	{"runner.failed_steal_scans", "count", "lower"},
	{"runner.mean_queue_depth", "count", "higher"},
	{"runner.cpu_utilisation", "ratio", "higher"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"puzzlenet.listener.issue_us_p50", "us", "lower"},
	{"puzzlenet.listener.verify_us_p50", "us", "lower"},
	{"puzzlenet.listener.accepted", "count", "higher"},
	{"puzzlenet.listener.challenged", "count", "higher"},
	{"puzzlenet.listener.verified", "count", "higher"},
	{"puzzlenet.listener.rejected", "count", "lower"},
	{"puzzlenet.listener.shed", "count", "lower"},
	{"puzzlenet.listener.errors", "count", "lower"},
	{"puzzle.solve_hashes_mean", "count", "lower"},
	{"puzzlenet.client.solve_gap_us_p50", "us", "lower"},
	{"puzzlenet.proxy.backend_dial_us_p50", "us", "lower"},
	{"puzzlenet.proxy.splice_rtt_us_p50", "us", "lower"},
	{"puzzlenet.proxy.spliced", "count", "higher"},
	{"puzzlenet.proxy.backend_failures", "count", "lower"},
	{"gen.lag_ms_p99", "ms", "lower"},
	{"gen.attack_conns_per_s", "1/s", "higher"},
	{"proc.cpu_utilisation", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{failDialRefused, "count", "lower"},
	{failDialTimeout, "count", "lower"},
	{failDialAddr, "count", "lower"},
	{failReset, "count", "lower"},
	{failPreamble, "count", "lower"},
	{failRejectedPrefix + "rejected", "count", "lower"},
	{failRejectedPrefix + "bad-solution", "count", "lower"},
	{failRejectedPrefix + "expired", "count", "lower"},
	{failRejectedPrefix + "busy", "count", "lower"},
	{failRejectedPrefix + "throttled", "count", "lower"},
	{failEcho, "count", "lower"},
	{failUnknown, "count", "lower"},
}

// report is the outcome of one benchmark run.
type report struct {
	attempted, failed int64
	// faults are correctness failures: wrong output, or simulated counts
	// that differ between runs of the same cell. Any fault fails the run.
	faults  []string
	e2e     map[string]float64
	layers  map[string]float64
	spans   *spanLog
	samples int     // latency samples behind op_ms_*
	tailP   float64 // the percentile op_ms_tail reports
	stats   phaseStats
	notes   []string
	// spanTable holds per-item span totals for the printed layer table.
	spanTable []string
}

func newReport() *report {
	return &report{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		spans:  newSpanLog(50_000),
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fault records a correctness failure that is not one operation's.
func (r *report) fault(format string, args ...any) {
	r.faults = append(r.faults, fmt.Sprintf(format, args...))
}

// fail records one failed operation whose output was wrong.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *report) failN(n int64, format string, args ...any) {
	r.failed += n
	r.fault(format, args...)
}

// correct reports whether every output checked out.
func (r *report) correct() bool { return len(r.faults) == 0 }

// pin checks a workload's output digest against the one pinned for the
// default seed.
func (r *report) pin(workload string, seed int64, got string) {
	if seed != defaultSeed {
		return
	}
	if want := pinnedDigests[workload]; got != want {
		r.fault("%s: output digest for seed %d is %s, pinned %s", workload, seed, got, want)
	}
}

// counts are the simulated per-layer counts of a cell. They are a pure
// function of the scenario, so two runs of one cell must agree exactly.
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) scale(f float64) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v * f
	}
	return out
}

// guard is the determinism guard: a differing simulated count is a
// benchmark fault, never noise.
func (r *report) guard(what string, want, got counts) {
	var diff []string
	for k, v := range want {
		if got[k] != v {
			diff = append(diff, fmt.Sprintf("%s %v != %v", k, got[k], v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, k+" unexpected")
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		r.fault("determinism: %s counts differ: %s", what, strings.Join(diff, ", "))
	}
}

// floodCounts reads the simulated per-layer counts of a finished cell
// from the run's engine, network, server, clients and bots.
func floodCounts(run *experiments.FloodRun) counts {
	var events uint64
	for i := 0; i < run.Net.Shards(); i++ {
		events += run.Net.Engine(i).Fired()
	}
	addrs := []netsim.Addr{run.Server.Addr()}
	var started, completed uint64
	for _, cl := range run.Clients {
		addrs = append(addrs, cl.Addr())
		started += cl.Metrics().Started
		completed += cl.Metrics().Completed
	}
	m := run.Server.Metrics()
	var atkSent, atkEstablished float64
	if run.Botnet != nil {
		atkSent = run.Botnet.TotalSent(0, run.Cfg.Duration)
		for _, b := range run.Botnet.Bots {
			addrs = append(addrs, b.Addr())
			if s := m.EstablishedBySrc[b.Addr()]; s != nil {
				atkEstablished += s.Sum()
			}
		}
	}
	var sent, dropped uint64
	for _, a := range addrs {
		if up, down, ok := run.Net.Stats(a); ok {
			sent += up.SentPackets
			dropped += up.Dropped + down.Dropped
		}
	}
	return counts{
		"netsim.events":                float64(events),
		"netsim.packets_sent":          float64(sent),
		"netsim.packets_dropped":       float64(dropped),
		"netsim.unroutable":            float64(run.Net.Unroutable()),
		"serversim.syns_received":      float64(m.SYNsReceived),
		"serversim.syns_dropped":       float64(m.SYNsDropped),
		"serversim.accept_overflow":    float64(m.AcceptOverflow),
		"serversim.solutions_verified": float64(m.SolutionsVerified),
		"serversim.solutions_invalid":  float64(m.SolutionInvalid + m.SolutionMalformed),
		"serversim.requests_served":    float64(m.RequestsServed),
		"clientsim.started":            float64(started),
		"clientsim.completed":          float64(completed),
		"attacksim.sent":               atkSent,
		"attacksim.established":        atkEstablished,
	}
}

// setCounts reports per-cell simulated counts as per-layer metrics.
func (r *report) setCounts(c counts) {
	for _, k := range []string{
		"netsim.events", "netsim.packets_sent", "netsim.packets_dropped", "netsim.unroutable",
		"serversim.syns_received", "serversim.accept_overflow", "serversim.requests_served",
		"attacksim.sent",
	} {
		r.layers[k] = c[k]
	}
	r.layers["serversim.syn_drop_ratio"] = ratio(c["serversim.syns_dropped"], c["serversim.syns_received"])
	r.layers["serversim.solution_valid_ratio"] = ratio(c["serversim.solutions_verified"],
		c["serversim.solutions_verified"]+c["serversim.solutions_invalid"])
	r.layers["clientsim.completed_ratio"] = ratio(c["clientsim.completed"], c["clientsim.started"])
	r.layers["attacksim.established_ratio"] = ratio(c["attacksim.established"], c["attacksim.sent"])
}

// setSpans reports simulator span totals per item (cell).
func (r *report) setSpans(t spanTotals, items float64) {
	per := func(v float64) float64 { return ratio(v, items) }
	calls := func(k spanKind) float64 { return per(float64(t.calls[k])) }
	selfMs := func(k spanKind) float64 { return per(ms(t.self[k])) }
	r.layers["defense.on_syn_calls"] = calls(kOnSYN)
	r.layers["defense.on_syn_self_ms"] = selfMs(kOnSYN)
	r.layers["defense.on_ack_calls"] = calls(kOnACK)
	r.layers["defense.on_ack_self_ms"] = selfMs(kOnACK)
	r.layers["defense.on_tick_calls"] = calls(kOnTick)
	r.layers["pzengine.issue_calls"] = calls(kIssue)
	r.layers["pzengine.issue_ms"] = selfMs(kIssue)
	r.layers["pzengine.verify_calls"] = calls(kVerify)
	r.layers["pzengine.verify_ms"] = selfMs(kVerify)
	r.layers["serversim.synack_ms"] = selfMs(kSynAck)
	r.layers["serversim.normal_syn_ms"] = selfMs(kNormalSYN)
	r.layers["serversim.establish_ms"] = selfMs(kEstablish)
	r.spanTable = append(r.spanTable, fmt.Sprintf("%-26s %12s %12s %12s", "span (per cell)", "calls", "total_ms", "self_ms"))
	for k := spanKind(0); k < numSimKinds; k++ {
		r.spanTable = append(r.spanTable, fmt.Sprintf("%-26s %12.1f %12.3f %12.3f",
			simKindNames[k], calls(k), per(ms(t.total[k])), selfMs(k)))
	}
}

// setTail reports op_ms_tail over the phase's latency samples.
func (r *report) setTail(samples []float64) {
	r.e2e["op_ms_tail"], r.tailP = tail(samples)
	r.samples = len(samples)
}

// setRuntime reports the process and Go runtime figures of a phase.
func (r *report) setRuntime(p phaseStats) {
	r.layers["runtime.gc_cpu_share"] = p.rt.gcShare()
	r.layers["runtime.gc_cycles"] = p.rt.gcCycles
	r.layers["proc.cpu_utilisation"] = p.procUtilisation()
}

// setOverhead reports how much slower the traced phase ran than the
// untraced one, per operation.
func (r *report) setOverhead(untracedMs, tracedMs float64) {
	r.layers["trace.overhead_share"] = ratio(tracedMs-untracedMs, untracedMs)
	r.notef("trace overhead: op p50 %.4f ms untraced, %.4f ms traced (%+.1f%%)",
		untracedMs, tracedMs, 100*ratio(tracedMs-untracedMs, untracedMs))
}
