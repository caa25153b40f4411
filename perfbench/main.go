// Command perfbench is the repository's benchmark: one command that runs
// one of four workloads against the SNB reproduction, checks its answers
// and the durability of acknowledged writes, and prints the workload's
// metrics by name and unit. The last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// It drives the program only through its public entry points and the wire
// protocol (server.New and client.Client.Do, driver.RunMixed, store.Open /
// AcquireView / Begin / Commit, the workload.Complex, bi.Registry and
// query.Registry specs, bench.NewEnvData) and reads the counters they
// expose (server.Stats, client.Counters, store.ViewStats,
// Persistent.Stats, RecoveryInfo, MixedReport).
//
// Workloads (1000 persons generated from -data-seed; -seed drives the
// request streams and parameter bindings):
//
//	interactive-read   served reads over loopback TCP on an in-memory store:
//	                   open loop at -read-rate, then a closed loop
//	interactive-write  the same plus single-insert writes on a durable store
//	                   (walSync, one WAL lane), open loop at -write-rate;
//	                   restart check of every acknowledged write
//	replay             the update stream through driver.RunMixed on a
//	                   durable store, one view-path reader alongside, then
//	                   close without a checkpoint and store.Open; repeated
//	                   on freshly loaded stores for the measured seconds
//	analytics          BI1-BI8 morsel-parallel plus the declarative Q1/Q2/Q8
//	                   in a closed loop on a warm read-only view
//
// With -trace 0 the run prints the end-to-end metrics, the same four on
// every workload: setup_s, heap_mb, and primary_ms and secondary_ms, the
// medians of the workload's two headline operations (headlines in
// metrics.go). With -trace 1 it runs the workload once untraced and once
// traced, prints the per-layer metrics, self time per layer and the tracing
// overhead, and writes the spans to <out>/trace/. The result line holds the
// per-layer metrics every workload measures; the workload's own (server,
// WAL, driver, BI, query, ...) are printed above it as detail lines.
//
// The data seed, the held-out seed and the arrival rates have no defaults:
// BENCHMARK.json's command states them, so the parent and a change see the
// same load. Usage (from the repository root; run.sh builds the binary
// first, and the BENCHMARK.json command adds the fixed flags):
//
//	bash perfbench/run.sh --data-seed 1 --read-rate 1500 --write-rate 1000 \
//		--heldout-seed 90001 --workload replay --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ldbcsnb/internal/store"
)

type config struct {
	workload  string
	seed      uint64
	dataSeed  uint64
	heldout   uint64
	seconds   float64
	trace     bool
	out       string
	persons   int
	readRate  float64
	writeRate float64
	setups    int
	conns     int
}

const (
	// persons is the dataset scale of every workload.
	persons = 1000
	// setups is how many times a run builds its environment; setup_s is
	// the median.
	setups = 2
	// walSync is the WAL policy of the durable workloads, with one lane:
	// every commit is written to the OS, none is fsynced. With an fsync per
	// commit, the disk's own latency spread decides the write latency and
	// the replay's wall time.
	walSync = store.SyncFlush
)

// persistOptions opens every durable store of the benchmark.
var persistOptions = store.PersistOptions{WALSync: walSync, WALLanes: 1}

// workloads maps each workload to its runner.
var workloads = map[string]func(*config, *report) error{
	"interactive-read":  func(c *config, r *report) error { return runServed(c, false, r) },
	"interactive-write": func(c *config, r *report) error { return runServed(c, true, r) },
	"replay":            runReplay,
	"analytics":         runAnalytics,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	var line string
	if err == nil {
		line, err = rep.resultJSON(cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{persons: persons, setups: setups}
	fs.StringVar(&cfg.workload, "workload", "", "interactive-read | interactive-write | replay | analytics")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: request streams, parameter binding, reader and BI/declarative bindings")
	fs.Uint64Var(&cfg.dataSeed, "data-seed", 0, "dataset generation seed (required)")
	fs.Uint64Var(&cfg.heldout, "heldout-seed", 0, "the seed reserved for held-out confirmation, recorded in the stamp (required)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds of each workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for data directories and traces")
	fs.Float64Var(&cfg.readRate, "read-rate", 0, "open-loop arrival rate of interactive-read, requests/s (required)")
	fs.Float64Var(&cfg.writeRate, "write-rate", 0, "open-loop arrival rate of interactive-write, requests/s (required)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.trace = *trace == 1
	if cfg.dataSeed == 0 || cfg.heldout == 0 || cfg.readRate <= 0 || cfg.writeRate <= 0 {
		return nil, fmt.Errorf("-data-seed, -heldout-seed, -read-rate and -write-rate are required (BENCHMARK.json's command gives them)")
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	// Load comes from this one process: one client connection, update
	// stream and BI worker per CPU.
	cfg.conns = runtime.NumCPU()
	return cfg, nil
}

// run executes the workload, printing the stamp, the metrics and the notes
// to w; the caller prints the result line.
func run(cfg *config, w io.Writer) (*report, error) {
	stamp := stampOf(cfg)
	b, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(b))
	rep := newReport()
	start := time.Now()
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		return nil, err
	}
	h := headlines[cfg.workload]
	rep.note("primary_ms: %s; secondary_ms: %s", h[0], h[1])
	rep.note("run took %s", time.Since(start).Round(time.Millisecond))
	rep.writeHuman(w, cfg.trace)
	return rep, nil
}

// dataDir is the i-th data directory of this run.
func (cfg *config) dataDir(i int) string {
	return filepath.Join(cfg.out, "data", fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), i))
}

// stampOf records what a result depends on besides the code under test.
func stampOf(cfg *config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"data_seed":    cfg.dataSeed,
		"heldout_seed": cfg.heldout,
		"persons":      cfg.persons,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu":          cpuModel(),
		"go":           runtime.Version(),
		"commit":       commit,
		"source":       sourceHash("."),
		"read_rate":    cfg.readRate,
		"write_rate":   cfg.writeRate,
		"wal_sync":     walSync.String(),
		"wal_lanes":    persistOptions.WALLanes,
		"conns":        cfg.conns,
		"setups":       cfg.setups,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash identifies the program's sources when no commit is known (a
// checkout without git metadata): SHA-256 over the path and content of
// every Go source and module file under root, build output excluded.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
