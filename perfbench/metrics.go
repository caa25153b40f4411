package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one metric the benchmark can print. BENCHMARK.json at
// the repository root carries the same names, units and directions (the
// self-test pins the two together).
type metricDef struct {
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. Every workload
// prints every one of them; primary_ms and secondary_ms are the medians of
// the workload's two headline operations (see headlines).
var endToEnd = map[string]metricDef{
	"setup_s":      {"s", "lower"},
	"heap_mb":      {"MB", "lower"},
	"primary_ms":   {"ms", "lower"},
	"secondary_ms": {"ms", "lower"},
}

// headlines says, per workload, what primary_ms and secondary_ms time.
var headlines = map[string][2]string{
	"interactive-read":  {"served complex read, from its due time", "served short-read walk, from its due time"},
	"interactive-write": {"served complex read, from its due time", "served single insert, from its due time"},
	"replay":            {"one replay of the whole update stream (wall time)", "store.Open of the replay's data directory"},
	"analytics":         {"one RunPar pass over BI1-BI8", "one round of declarative Q1, Q2 and Q8"},
}

// perLayer are the per-layer metrics of the result line of a traced run:
// those every workload measures, so that every traced run prints each of
// them. The traced run prints the rest of layerCatalog, which depends on
// the layers the workload exercises, as detail lines above the result.
var perLayer = []string{
	"setup.gen_s", "setup.load_s", "setup.pools_s", "setup.view_build_s",
	"view.acquire_p50_us", "view.acquire_p99_us", "view.hit_ratio",
	"view.refreshes", "view.rebuilds", "view.era_bumps", "view.overflows",
	"exec.read_p50_us", "self_ms.view", "self_ms.exec", "trace.overhead_pct",
}

// layerCatalog is every per-module metric a traced run can print. Names
// carry the module they belong to as their first component.
var layerCatalog = func() map[string]metricDef {
	m := map[string]metricDef{}
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			m[n] = metricDef{Unit: unit, Better: better}
		}
	}
	// Harness: the benchmark's own generator and the protocol client.
	add("us", "lower", "gen.lag_p50_us", "gen.lag_p99_us", "client.ping_p50_us")
	add("count", "lower", "client.retries", "gen.backlog_max")
	// The served tails and closed-loop rate (see servedEndToEnd).
	add("ms", "lower", "client.short_p50_ms", "client.complex_p99_ms", "client.short_p99_ms", "client.write_p99_ms")
	add("1/s", "higher", "client.sat_rps")
	// internal/server.
	for _, c := range []string{"complex", "short", "write"} {
		add("us", "lower", "server.time_p50_us."+c, "wire.p50_us."+c)
	}
	add("us", "lower", "server.overhead_p50_us.complex", "server.overhead_p50_us.short")
	add("count", "lower", "server.shed", "server.timed_out", "server.bad_frames")
	// internal/store: view maintenance.
	add("us", "lower", "view.acquire_p50_us", "view.acquire_p99_us")
	add("ratio", "higher", "view.hit_ratio")
	add("count", "lower", "view.refreshes", "view.rebuilds", "view.era_bumps", "view.overflows")
	add("ms", "lower", "view.rebuild_p50_ms")
	// internal/store: commit pipeline and WAL.
	add("us", "lower", "commit.p50_us", "commit.p99_us")
	add("ratio", "lower", "wal.fsyncs_per_commit")
	add("ratio", "higher", "wal.recs_per_batch")
	add("B", "lower", "wal.bytes_per_commit")
	add("count", "lower", "wal.checkpoints")
	// internal/store: recovery.
	add("count", "lower", "recovery.replayed", "recovery.segments_scanned")
	add("1/s", "higher", "recovery.records_per_s")
	// internal/workload.
	for q := 1; q <= 14; q++ {
		add("us", "lower", fmt.Sprintf("exec.Q%d_p50_us", q))
	}
	add("us", "lower", "exec.walk_p50_us", "exec.read_p50_us")
	add("ms", "lower", "exec.replay_read_p50_ms")
	// internal/driver.
	for u := 1; u <= 8; u++ {
		add("us", "lower", fmt.Sprintf("driver.U%d_p50_us", u))
	}
	// internal/bi and internal/exec.
	for q := 1; q <= 8; q++ {
		add("ms", "lower", fmt.Sprintf("bi.BI%d_ms", q))
	}
	add("x", "higher", "exec.par_speedup")
	// internal/query.
	add("us", "lower", "query.parse_us", "query.compile_us")
	for _, q := range []string{"Q1", "Q2", "Q8"} {
		add("us", "lower", "query.run_us."+q)
		add("x", "lower", "query.decl_over_hand."+q)
	}
	// Set-up: internal/datagen, internal/schema, internal/params.
	add("s", "lower", "setup.gen_s", "setup.load_s", "setup.pools_s", "setup.checkpoint_s", "setup.view_build_s")
	// Self time per layer from the traced spans, and the tracing overhead.
	for _, l := range spanLayers {
		add("ms", "lower", "self_ms."+l)
	}
	add("%", "lower", "trace.overhead_pct")
	return m
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and outcome counts. End-to-end and
// per-layer metrics are kept apart: an untraced run prints the first, a
// traced run the second.
type report struct {
	e2e       map[string]metricValue
	layers    map[string]metricValue
	attempted int64
	failed    int64
	problems  []string // correctness failures; any one fails the run
	notes     []string // how a tail was taken, counts behind a ratio
}

func newReport() *report {
	return &report{e2e: map[string]metricValue{}, layers: map[string]metricValue{}}
}

// set records an end-to-end metric.
func (r *report) set(name string, v float64) { record(r.e2e, endToEnd, name, v) }

// layer records a per-layer metric.
func (r *report) layer(name string, v float64) { record(r.layers, layerCatalog, name, v) }

// record stores a metric; a name outside the catalog is a bug in the
// benchmark itself and panics.
func record(dst map[string]metricValue, defs map[string]metricDef, name string, v float64) {
	d, ok := defs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	dst[name] = metricValue{Value: v, Unit: d.Unit}
}

// fail records a correctness failure.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// chosen returns the result line's metrics: every end-to-end metric, or
// every per-layer metric of BENCHMARK.json. A metric the run did not
// measure, or an end-to-end metric that reads 0, is an error: the result
// line must hold all of them, each as measured.
func (r *report) chosen(traced bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	if traced {
		for _, n := range perLayer {
			v, ok := r.layers[n]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", n)
			}
			out[n] = v
		}
		return out, nil
	}
	for n := range endToEnd {
		v, ok := r.e2e[n]
		if !ok || !(v.Value > 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (%v)", n, v.Value)
		}
		out[n] = v
	}
	return out, nil
}

// writeHuman prints one "name value unit" line per metric, sorted, then the
// notes and any correctness failure. A traced run prints every per-layer
// metric it measured; those outside the result line are marked "detail".
func (r *report) writeHuman(w io.Writer, traced bool) {
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	inResult := map[string]bool{}
	for _, n := range perLayer {
		inResult[n] = true
	}
	for _, n := range sortedKeys(ms) {
		mark := ""
		if traced && !inResult[n] {
			mark = "detail "
		}
		fmt.Fprintf(w, "%-7s%-34s %14.6g %s\n", mark, n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) resultJSON(traced bool) (string, error) {
	metrics, err := r.chosen(traced)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	return string(b), err
}
