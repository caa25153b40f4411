package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanLayers are the layers a traced run attributes time to, in report
// order:
//
//	gen       the benchmark's own open-loop generator (due -> release)
//	client    the wait for a free connection (release -> send) and
//	          client.Client.Do minus the server's own time: the wire
//	server    ServerMicros minus the in-process execution of the same request
//	view      store.AcquireView (hit, delta refresh or rebuild)
//	exec      query kernels: workload.Complex, short-read walks, bi.Registry
//	query     the declarative layer: parse, compile, run
//	store     Begin..Commit of single writes
//	driver    driver.RunMixed update replay
//	recovery  store.Open of an existing data directory
var spanLayers = []string{"gen", "client", "server", "view", "exec", "query", "store", "driver", "recovery"}

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one (-1 for roots).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(parent int32, req uint64, layer, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
	return id
}

// close sets the end of a span recorded before its end was known.
func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace records the traced pass's self time per layer and the tracing
// overhead, and writes the spans. The overhead compares the traced pass's
// primary_ms with the untraced pass's (rep holds the untraced end-to-end
// metrics). The two passes run one after the other on the same environment
// doing the same work, so the figure holds the cost of recording spans plus
// the drift between two passes; on interactive-write the second pass also
// runs on a store grown by the first pass's writes.
func finishTrace(cfg *config, rep *report, tr *tracer, traced *report) error {
	self := tr.selfTimes()
	for _, l := range spanLayers {
		if d, ok := self[l]; ok {
			rep.layer("self_ms."+l, ms(d))
		}
	}
	u, t := rep.e2e["primary_ms"].Value, traced.e2e["primary_ms"].Value
	rep.layer("trace.overhead_pct", 100*(t-u)/u)
	rep.note("trace.overhead_pct: traced against untraced primary_ms, two passes in a row; includes the drift between passes")
	for _, n := range sortedKeys(traced.e2e) {
		if n == "setup_s" || n == "heap_mb" {
			continue
		}
		rep.note("untraced %s %.6g, traced %.6g", n, rep.e2e[n].Value, traced.e2e[n].Value)
	}
	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	rep.note("%d spans written to %s", len(tr.spans), path)
	return tr.write(path)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
