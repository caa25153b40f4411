package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/store"
)

// okRead builds a one-request phase whose OK response carries rows.
func okRead(class, op byte, seed uint64, rows uint32) *phase {
	return &phase{
		reqs: []request{{Request: server.Request{Class: class, Op: op, Seed: seed}}},
		outs: []outcome{{resp: server.Response{Status: server.StatusOK, Rows: rows}}},
	}
}

func TestCheckRowsRejectsWrongRowCount(t *testing.T) {
	ref := func(k rowKey) uint32 { return uint32(k.seed % 7) }
	good := []*phase{okRead(server.ClassComplex, 3, 12, 5), okRead(server.ClassShort, 0, 13, 6)}
	if n, err := checkRows(good, ref); err != nil || n != 2 {
		t.Fatalf("matching rows: checked %d, err %v", n, err)
	}
	bad := append(good, okRead(server.ClassComplex, 3, 12, 4))
	if _, err := checkRows(bad, ref); err == nil {
		t.Fatal("a response with a wrong row count passed the check")
	}
	// Writes carry no rows to compare, and failed reads have no answer.
	shed := okRead(server.ClassComplex, 1, 1, 99)
	shed.outs[0].resp.Status = server.StatusRetryAfter
	if _, err := checkRows([]*phase{okRead(server.ClassWrite, 0, 1, 1), shed}, ref); err != nil {
		t.Fatalf("writes and shed reads were compared: %v", err)
	}
}

func TestCheckServedRejectsFailedRequest(t *testing.T) {
	ok := okRead(server.ClassShort, 0, 1, 3)
	if err := checkServed([]*phase{ok}); err != nil {
		t.Fatalf("an all-OK phase failed the check: %v", err)
	}
	for _, bad := range []outcome{
		{resp: server.Response{Status: server.StatusRetryAfter}},
		{resp: server.Response{Status: server.StatusTimeout}},
		{err: io.ErrUnexpectedEOF},
	} {
		ph := okRead(server.ClassComplex, 2, 7, 1)
		ph.outs[0] = bad
		if err := checkServed([]*phase{ok, ph}); err == nil {
			t.Fatalf("a request ending in %+v passed the check", bad)
		}
	}
}

func person(i uint32) ids.ID { return ids.Compose(ids.KindPerson, 1, i) }

func TestCheckAckedPersonsRejectsMissingWrite(t *testing.T) {
	live := []ids.ID{person(1), person(2), person(3)}
	if err := checkAckedPersons(live, []ids.ID{person(3), person(1), person(2)}, 1, 2); err != nil {
		t.Fatalf("every acknowledged write present: %v", err)
	}
	if err := checkAckedPersons(live, []ids.ID{person(1), person(2)}, 1, 2); err == nil {
		t.Fatal("a missing acknowledged write passed the check")
	}
	if err := checkAckedPersons(live, []ids.ID{person(1), person(2), person(4)}, 1, 2); err == nil {
		t.Fatal("a missing acknowledged write replaced by another person passed the check")
	}
	if err := checkAckedPersons(live, live, 1, 3); err == nil {
		t.Fatal("an acknowledged write the live store never showed passed the check")
	}
	if err := checkClock(10, 9); err == nil {
		t.Fatal("a recovered clock behind the live one passed the check")
	}
}

func TestCheckUpdatesRejectsMissingWrite(t *testing.T) {
	st := store.New()
	tx := st.Begin()
	for i := uint32(1); i <= 3; i++ {
		if err := tx.CreateNode(person(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.AddKnows(person(1), person(2), 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _ := st.AcquireView()
	applied := []schema.Update{
		{Type: schema.UpdateAddPerson, Person: &schema.Person{ID: person(3)}},
		{Type: schema.UpdateAddFriendship, Friendship: &schema.Knows{A: person(1), B: person(2)}},
	}
	if err := checkUpdates(v, applied); err != nil {
		t.Fatalf("every update present: %v", err)
	}
	for _, lost := range []schema.Update{
		{Type: schema.UpdateAddPerson, Person: &schema.Person{ID: person(4)}},
		{Type: schema.UpdateAddFriendship, Friendship: &schema.Knows{A: person(1), B: person(3)}},
	} {
		if err := checkUpdates(v, append(applied, lost)); err == nil {
			t.Fatalf("missing %s update passed the check", lost.Type)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric check reads.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// TestCatalogMatchesBenchmarkJSON pins the metric catalog to BENCHMARK.json:
// the same names, units and directions in both, and the same workloads.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	same := func(kind string, catalog map[string]metricDef, names []string, declared []struct{ Name, Unit, Better string }) {
		seen := map[string]bool{}
		for _, d := range declared {
			seen[d.Name] = true
			c, ok := catalog[d.Name]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but the benchmark never prints it", kind, d.Name)
				continue
			}
			if c.Unit != d.Unit || c.Better != d.Better {
				t.Errorf("%s metric %s: BENCHMARK.json says %s/%s, the benchmark %s/%s", kind, d.Name, d.Unit, d.Better, c.Unit, c.Better)
			}
		}
		for _, n := range names {
			if !seen[n] {
				t.Errorf("%s metric %s is missing from BENCHMARK.json", kind, n)
			}
		}
		if len(declared) != len(names) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the result line holds %d", len(declared), kind, len(names))
		}
	}
	same("end-to-end", endToEnd, sortedKeys(endToEnd), bj.EndToEnd)
	same("per-layer", layerCatalog, perLayer, bj.PerLayer)
	for name := range workloads {
		if _, ok := headlines[name]; !ok {
			t.Errorf("workload %s does not say what primary_ms and secondary_ms time", name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s in BENCHMARK.json is unknown to the benchmark", w.Name)
		}
	}
	// The command's own flags must parse.
	args := append(bj.Command[2:], "--workload", bj.Workloads[0].Name)
	if _, err := parseFlags(args); err != nil {
		t.Errorf("BENCHMARK.json command flags: %v", err)
	}
}

// TestPrintedMetricsAreDeclared runs every workload at a small scale, traced
// and untraced, and checks its result line against BENCHMARK.json: exactly
// the metrics of the section, each with the declared unit, end-to-end ones
// never 0.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	units := func(list []struct{ Name, Unit, Better string }) map[string]string {
		m := map[string]string{}
		for _, d := range list {
			m[d.Name] = d.Unit
		}
		return m
	}
	sections := map[bool]map[string]string{false: units(bj.EndToEnd), true: units(bj.PerLayer)}
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			cfg, err := parseFlags(append(bj.Command[2:], "--workload", w.Name, "--out", t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			cfg.persons, cfg.seconds, cfg.setups, cfg.trace = 150, 1, 1, traced
			start := time.Now()
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if len(rep.problems) > 0 {
				t.Fatalf("%s trace=%v: incorrect: %s", w.Name, traced, strings.Join(rep.problems, "; "))
			}
			js, err := rep.resultJSON(traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var line resultLine
			if err := json.Unmarshal([]byte(js), &line); err != nil {
				t.Fatal(err)
			}
			if line.Attempted < 1 {
				t.Fatalf("%s trace=%v: nothing attempted: %+v", w.Name, traced, line)
			}
			if len(line.Metrics) != len(sections[traced]) {
				t.Errorf("%s trace=%v prints %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(line.Metrics), len(sections[traced]))
			}
			for name, m := range line.Metrics {
				unit, ok := sections[traced][name]
				if !ok {
					t.Errorf("%s trace=%v prints %s, which BENCHMARK.json does not declare there", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v prints %s in %s, BENCHMARK.json says %s", w.Name, traced, name, m.Unit, unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s prints end-to-end %s = %v", w.Name, name, m.Value)
				}
			}
			t.Logf("%s trace=%v: %d metrics in %s", w.Name, traced, len(line.Metrics), time.Since(start).Round(time.Millisecond))
		}
	}
}

// TestResultRefusesMissingMetric: a run that did not measure a declared
// metric prints no result line.
func TestResultRefusesMissingMetric(t *testing.T) {
	rep := newReport()
	rep.set("setup_s", 1)
	rep.set("heap_mb", 1)
	rep.set("primary_ms", 1)
	if _, err := rep.resultJSON(false); err == nil {
		t.Fatal("a result without secondary_ms was printed")
	}
	rep.set("secondary_ms", 0)
	if _, err := rep.resultJSON(false); err == nil {
		t.Fatal("a result with an end-to-end metric of 0 was printed")
	}
	rep.set("secondary_ms", 0.5)
	if _, err := rep.resultJSON(false); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.resultJSON(true); err == nil {
		t.Fatal("a traced result without per-layer metrics was printed")
	}
}
