package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/server/client"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// The served workloads: an in-process server over loopback TCP, driven by
// the benchmark's own generator through client.Client.Do. Phase 1 is an
// open loop on an absolute Poisson schedule at a fixed rate; phase 2 a
// closed loop with one outstanding request per connection. Latency is
// measured from each request's due time, so a stalled server or a late
// generator shows as latency. The generator's own lateness (time.Sleep
// overshoot, about half a millisecond on a shared 2-vCPU host, more than
// the server spends on most requests) is reported apart as gen.lag, and
// the latency from the generator's release of each request in the notes.

// requestMix weights the request classes. The read classes keep the
// complex:short share of client.DefaultMix (30:50); writes add its 15.
type requestMix struct{ complex, short, write float64 }

var (
	readMix  = requestMix{complex: 30, short: 50}
	writeMix = requestMix{complex: 30, short: 50, write: 15}
)

const (
	// seedPool is how many distinct parameter seeds a run draws from. The
	// server binds parameters from (class, op, seed), so a bounded pool
	// lets the correctness check compute each distinct answer once and
	// still compare every response.
	seedPool = 512
	// deadlineMs is the per-request deadline sent on the wire: far above
	// any query at this scale, so a timeout means a stall, not a slow
	// template.
	deadlineMs = 2000
	// benchWriteBucket namespaces the IDs of the benchmark's own in-process
	// writes (traced runs), far from the dataset and from the server's.
	benchWriteBucket = int64(1) << 35
	// warmup is the unmeasured closed loop before each served pass.
	warmup = time.Second
)

// request is one generated request with its due time (offset from the
// start of its phase; zero in the closed loop).
type request struct {
	server.Request
	due time.Duration
}

// outcome is what the client saw for one request.
type outcome struct {
	sent, done time.Duration // offsets from the start of the phase
	resp       server.Response
	err        error
	span       int32 // the client.Do span of a traced request, else -1
}

// generator draws requests deterministically from the run seed.
type generator struct {
	mu    sync.Mutex
	rnd   *xrand.Rand
	seeds []uint64
	mix   requestMix
	next  uint64
}

func newGenerator(seed uint64, tag uint64, mix requestMix) *generator {
	rnd := xrand.New(seed, xrand.PurposeShortRead, tag)
	seeds := make([]uint64, seedPool)
	for i := range seeds {
		seeds[i] = rnd.Uint64()
	}
	return &generator{rnd: rnd, seeds: seeds, mix: mix}
}

// draw returns the next request of the mix.
func (g *generator) draw() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	r := request{Request: server.Request{ReqID: g.next, DeadlineMs: deadlineMs}}
	x := g.rnd.Float64() * (g.mix.complex + g.mix.short + g.mix.write)
	switch {
	case x < g.mix.complex:
		r.Class, r.Op = server.ClassComplex, byte(1+g.rnd.Intn(workload.NumComplexQueries))
	case x < g.mix.complex+g.mix.short:
		r.Class = server.ClassShort
	default:
		r.Class = server.ClassWrite
	}
	r.Seed = g.seeds[g.rnd.Intn(len(g.seeds))]
	return r
}

// schedule draws the open loop's requests with Poisson arrivals at rate
// per second over d.
func (g *generator) schedule(rate float64, d time.Duration) []request {
	var out []request
	var t float64
	for {
		g.mu.Lock()
		t += g.rnd.Exp(1e9 / rate)
		g.mu.Unlock()
		if time.Duration(t) > d {
			return out
		}
		r := g.draw()
		r.due = time.Duration(t)
		out = append(out, r)
	}
}

// phase is one load phase's requests and outcomes.
type phase struct {
	start      time.Time
	reqs       []request
	released   []time.Duration // open loop: when the generator queued each request
	outs       []outcome
	elapsed    time.Duration
	backlogMax int
}

// openLoop sends reqs at their due times over at most conns connections.
// A request that is due while every connection is busy waits in the
// generator's queue; the deepest that queue got is reported. With a tracer,
// each request's generator wait and client call are recorded as spans as
// soon as it completes, inside the measured interval.
func openLoop(cl *client.Client, reqs []request, conns int, tr *tracer) *phase {
	ph := &phase{reqs: reqs, outs: make([]outcome, len(reqs)), released: make([]time.Duration, len(reqs))}
	queue := make(chan int, len(reqs))
	start := time.Now()
	ph.start = start
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i].Request
				sent := time.Since(start)
				resp, err := cl.Do(&r)
				done := time.Since(start)
				rel := start.Add(ph.released[i])
				tr.add(-1, r.ReqID, "gen", "due-to-release", start.Add(reqs[i].due), rel)
				root := tr.add(-1, r.ReqID, "client", "release-to-done", rel, start.Add(done))
				span := tr.add(root, r.ReqID, "client", "client.Do", start.Add(sent), start.Add(done))
				ph.outs[i] = outcome{sent: sent, done: done, resp: resp, err: err, span: span}
			}
		}()
	}
	// The schedule is absolute: a late wake-up sends everything that has
	// come due, so lateness never lowers the offered rate. The wait is a
	// plain sleep: a goroutine that spins or yields to wait more precisely
	// keeps the runtime from polling the network, which stalls every
	// response in the process. What the sleep oversleeps is reported as
	// gen.lag.
	for i := range reqs {
		if d := reqs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		ph.released[i] = time.Since(start)
		queue <- i
		ph.backlogMax = max(ph.backlogMax, len(queue))
	}
	close(queue)
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// closedLoop keeps one request outstanding per connection for d.
func closedLoop(cl *client.Client, g *generator, conns int, d time.Duration) *phase {
	ph := &phase{}
	var mu sync.Mutex
	start := time.Now()
	ph.start = start
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reqs []request
			var outs []outcome
			for time.Since(start) < d {
				r := g.draw()
				sent := time.Since(start)
				resp, err := cl.Do(&r.Request)
				reqs = append(reqs, r)
				outs = append(outs, outcome{sent: sent, done: time.Since(start), resp: resp, err: err, span: -1})
			}
			mu.Lock()
			ph.reqs = append(ph.reqs, reqs...)
			ph.outs = append(ph.outs, outs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// ok reports whether the outcome is a final OK response.
func (o *outcome) ok() bool { return o.err == nil && o.resp.Status == server.StatusOK }

// tally counts attempted and failed (error, shed or timed out) requests.
func (ph *phase) tally() (attempted, failed int64) {
	for i := range ph.outs {
		attempted++
		if !ph.outs[i].ok() {
			failed++
		}
	}
	return attempted, failed
}

// cycles is how many (open loop, closed loop) cycles one served pass
// alternates through, so that each loop's samples come from across the
// whole pass. Latencies pool the open-loop cycles' samples; the closed-loop
// rate is the median of the per-cycle rates.
const cycles = 5

// okRate is OK responses per second of a closed-loop phase.
func (ph *phase) okRate() float64 {
	attempted, failed := ph.tally()
	return float64(attempted-failed) / ph.elapsed.Seconds()
}

// latency returns the due-to-done latency of one class's OK responses in
// an open-loop phase. A run with any other response fails (checkServed),
// so no sample is missing from a result.
func (ph *phase) latency(class byte) samples {
	var s samples
	for i := range ph.reqs {
		if ph.reqs[i].Class == class && ph.outs[i].ok() {
			s = append(s, ph.outs[i].done-ph.reqs[i].due)
		}
	}
	return s
}

// fromRelease is latency measured from the generator's release of each
// request instead, its lateness left out.
func (ph *phase) fromRelease(class byte) samples {
	var s samples
	for i := range ph.reqs {
		if ph.reqs[i].Class == class && ph.outs[i].ok() {
			s = append(s, ph.outs[i].done-ph.released[i])
		}
	}
	return s
}

// servedPass is one pass of alternating open- and closed-loop cycles plus,
// when traced, the ping floor and the in-process re-execution of the
// open-loop streams.
type servedPass struct {
	warm          *phase
	opens, closed []*phase
	ping          *phase
	retries       int64
	stats         server.Stats
	views         store.ViewStatsSnapshot // view-maintenance counters over the pass
	commits       int64                   // store commits over the pass
	persist       store.PersistStats      // durability counters over the pass
	inproc        *inprocRun
}

// runServedPass drives one pass against the environment's server: a
// warm-up, then cycles of an open loop at rate followed by a closed loop.
// A traced pass records the open loops' client-side spans as they run;
// the server-side spans come from the re-execution after the cycles.
func runServedPass(cfg *config, e *env, mix requestMix, rate float64, pass uint64, tr *tracer) (*servedPass, error) {
	cl := client.New(client.Options{Addr: e.addr, RetryMax: 3, Seed: cfg.seed})
	defer cl.Close()
	g := newGenerator(cfg.seed, 0x5e4e0+pass, mix)
	total := time.Duration(cfg.seconds * float64(time.Second))
	openDur := total * 6 / 10 / cycles
	closedDur := total * 4 / 10 / cycles

	// The warm-up fills the lazily decoded adjacency rows and the
	// connection pool; the forced collection starts the measured cycles
	// from the same heap state in every run.
	sp := &servedPass{warm: closedLoop(cl, g, cfg.conns, warmup)}
	v0, c0, p0 := e.st.ViewStats(), e.st.Commits(), e.persistStats()
	runtime.GC()
	for c := 0; c < cycles; c++ {
		sp.opens = append(sp.opens, openLoop(cl, g.schedule(rate, openDur), cfg.conns, tr))
		sp.closed = append(sp.closed, closedLoop(cl, g, cfg.conns, closedDur))
	}
	v1, c1, p1 := e.st.ViewStats(), e.st.Commits(), e.persistStats()
	sp.views = store.ViewStatsSnapshot{
		Refreshes: v1.Refreshes - v0.Refreshes, Rebuilds: v1.Rebuilds - v0.Rebuilds,
		EraBumps: v1.EraBumps - v0.EraBumps, Overflows: v1.Overflows - v0.Overflows,
	}
	sp.commits = c1 - c0
	sp.persist = store.PersistStats{
		Fsyncs: p1.Fsyncs - p0.Fsyncs, Batches: p1.Batches - p0.Batches,
		BatchedRecords: p1.BatchedRecords - p0.BatchedRecords, WALBytes: p1.WALBytes - p0.WALBytes,
		Checkpoints: p1.Checkpoints - p0.Checkpoints,
	}
	sp.retries = cl.Counters().Retries
	sp.stats = e.srv.Stats()

	if tr != nil {
		// The harness floor: pings at the same rate bypass admission and
		// execution, leaving generator, client and loopback.
		pg := newGenerator(cfg.seed, 0x9149, mix)
		pings := pg.schedule(rate, openDur)
		for i := range pings {
			pings[i].Class, pings[i].Op = server.ClassPing, 0
		}
		sp.ping = openLoop(cl, pings, cfg.conns, nil)
		sp.inproc = reexecute(cfg, e, sp.opens, tr)
	}
	return sp, nil
}

func (e *env) persistStats() store.PersistStats {
	if e.persist == nil {
		return store.PersistStats{}
	}
	return e.persist.Stats()
}

// phases returns every phase of the pass that carried requests.
func (sp *servedPass) phases() []*phase {
	return append(append([]*phase{sp.warm}, sp.opens...), sp.closed...)
}

// servedEndToEnd records the metrics of one pass that a client of the
// server sees: primary_ms is the complex-read median, secondary_ms the
// write median on interactive-write and the short-read median on
// interactive-read, all from due time. The tails and the closed-loop rate
// are recorded per layer, under client.: on a shared 2-CPU host they move
// with the host's own stalls by more than any bound a regression check
// could use (see CHANGES.md), so they are reported but not gated.
func servedEndToEnd(rep *report, sp *servedPass, writes bool) {
	// put returns the median and tail of one class's latency from due time
	// over the samples of every open-loop cycle, and notes them beside the
	// median from release.
	put := func(class byte, name string) (p50, tail float64) {
		var due, rel samples
		for _, ph := range sp.opens {
			due = append(due, ph.latency(class)...)
			rel = append(rel, ph.fromRelease(class)...)
		}
		d := summarize(due)
		rep.note("%s latency over %d open-loop cycles from due time: %s; p50 %.4g ms from release",
			name, cycles, d, ms(summarize(rel).P50))
		return ms(d.P50), ms(d.Tail)
	}
	p50, tail := put(server.ClassComplex, "complex")
	rep.set("primary_ms", p50)
	rep.layer("client.complex_p99_ms", tail)
	p50, tail = put(server.ClassShort, "short")
	rep.layer("client.short_p50_ms", p50)
	rep.layer("client.short_p99_ms", tail)
	if writes {
		p50, tail = put(server.ClassWrite, "write")
		rep.set("secondary_ms", p50)
		rep.layer("client.write_p99_ms", tail)
	} else {
		rep.set("secondary_ms", p50)
	}
	var rates []float64
	for _, ph := range sp.closed {
		rates = append(rates, ph.okRate())
	}
	rep.layer("client.sat_rps", median(rates))
	rep.note("closed loop: %.0f OK responses/s, median over %d cycles", median(rates), cycles)

	var attempted, failed int64
	backlog := 0
	for _, ph := range append(append([]*phase{}, sp.opens...), sp.closed...) {
		a, f := ph.tally()
		attempted += a
		failed += f
		backlog = max(backlog, ph.backlogMax)
	}
	rep.note("%d measured requests, %d failed; deepest open-loop generator backlog %d", attempted, failed, backlog)
}

// servedLayers records the traced pass's per-layer metrics.
func servedLayers(rep *report, sp *servedPass, writes bool) {
	var lag samples
	backlog := 0
	for _, ph := range sp.opens {
		for i := range ph.reqs {
			lag = append(lag, ph.released[i]-ph.reqs[i].due)
		}
		backlog = max(backlog, ph.backlogMax)
	}
	l := summarize(lag)
	rep.layer("gen.lag_p50_us", us(l.P50))
	rep.layer("gen.lag_p99_us", us(l.Tail))
	rep.layer("gen.backlog_max", float64(backlog))
	var ping samples
	for i := range sp.ping.outs {
		if sp.ping.outs[i].ok() {
			ping = append(ping, sp.ping.outs[i].done-sp.ping.outs[i].sent)
		}
	}
	rep.layer("client.ping_p50_us", us(summarize(ping).P50))
	rep.layer("client.retries", float64(sp.retries))

	classes := []struct {
		class byte
		name  string
	}{{server.ClassComplex, "complex"}, {server.ClassShort, "short"}, {server.ClassWrite, "write"}}
	for _, c := range classes {
		if c.class == server.ClassWrite && !writes {
			continue
		}
		var srv, wire, over samples
		for _, ph := range sp.opens {
			for i := range ph.reqs {
				o := &ph.outs[i]
				if ph.reqs[i].Class != c.class || !o.ok() {
					continue
				}
				st := time.Duration(o.resp.ServerMicros) * time.Microsecond
				srv = append(srv, st)
				wire = append(wire, o.done-o.sent-st)
				if x, ok := sp.inproc.exec[ph.reqs[i].ReqID]; ok && c.class != server.ClassWrite {
					over = append(over, st-x)
				}
			}
		}
		rep.layer("server.time_p50_us."+c.name, us(summarize(srv).P50))
		rep.layer("wire.p50_us."+c.name, us(summarize(wire).P50))
		if c.class != server.ClassWrite {
			rep.layer("server.overhead_p50_us."+c.name, us(summarize(over).P50))
		}
	}
	rep.layer("server.shed", float64(sp.stats.Shed))
	rep.layer("server.timed_out", float64(sp.stats.TimedOut))
	rep.layer("server.bad_frames", float64(sp.stats.BadFrames))

	// View maintenance over the served pass, from the store's counters;
	// every served read acquires the view once.
	var reads int64
	for _, ph := range sp.phases()[1:] {
		for i := range ph.reqs {
			if ph.reqs[i].Class != server.ClassWrite {
				reads++
			}
		}
	}
	viewLayers(rep, sp.views, reads)
	sp.inproc.layers(rep)
	if writes {
		walLayers(rep, sp.persist, sp.commits)
	}
}

// viewLayers records the view-maintenance counters of a measured interval
// with acquires view acquisitions.
func viewLayers(rep *report, vs store.ViewStatsSnapshot, acquires int64) {
	if acquires > 0 {
		rep.layer("view.hit_ratio", 1-float64(vs.Refreshes+vs.Rebuilds)/float64(acquires))
	}
	rep.layer("view.refreshes", float64(vs.Refreshes))
	rep.layer("view.rebuilds", float64(vs.Rebuilds))
	rep.layer("view.era_bumps", float64(vs.EraBumps))
	rep.layer("view.overflows", float64(vs.Overflows))
}

// walLayers records the commit pipeline's amortisation over an interval.
func walLayers(rep *report, ps store.PersistStats, commits int64) {
	if commits > 0 {
		rep.layer("wal.fsyncs_per_commit", float64(ps.Fsyncs)/float64(commits))
		rep.layer("wal.bytes_per_commit", float64(ps.WALBytes)/float64(commits))
	}
	if ps.Batches > 0 {
		rep.layer("wal.recs_per_batch", float64(ps.BatchedRecords)/float64(ps.Batches))
	}
	rep.layer("wal.checkpoints", float64(ps.Checkpoints))
}

// inprocRun is the open-loop stream re-executed in process with the
// server's exact parameter binding, which splits ServerMicros into
// execution and server overhead without tracing inside the server.
type inprocRun struct {
	exec     map[uint64]time.Duration // request ID -> bind + acquire + run
	acquire  samples
	rebuilds samples
	commits  samples
	byQuery  [workload.NumComplexQueries]samples
	walk     samples
	writes   int64 // commits the re-execution added to the store
}

func reexecute(cfg *config, e *env, opens []*phase, tr *tracer) *inprocRun {
	run := &inprocRun{exec: map[uint64]time.Duration{}}
	sc := workload.NewScratch()
	for _, open := range opens {
		run.replay(cfg, e, open, sc, tr)
	}
	return run
}

// replay re-executes one open-loop phase's requests in order.
func (run *inprocRun) replay(cfg *config, e *env, open *phase, sc *workload.Scratch, tr *tracer) {
	for i := range open.reqs {
		r := &open.reqs[i]
		o := &open.outs[i]
		// Place the server's time inside the client call the open loop
		// traced (its position inside the round trip is not observable, so
		// it is centred), holding the re-executed view and kernel calls.
		st := time.Duration(o.resp.ServerMicros) * time.Microsecond
		srvStart := open.start.Add(o.sent + (o.done-o.sent-st)/2)
		srv := tr.add(o.span, r.ReqID, "server", "server.dispatch", srvStart, srvStart.Add(st))

		switch r.Class {
		case server.ClassComplex, server.ClassShort:
			a := time.Now()
			read := bindRead(e.pools, cfg.seed, rowKey{r.Class, r.Op, r.Seed})
			b := time.Now()
			v, ev := e.st.AcquireView()
			c := time.Now()
			read.run(v, sc)
			d := time.Now()
			run.exec[r.ReqID] = d.Sub(a)
			run.acquire = append(run.acquire, c.Sub(b))
			if ev == store.ViewRebuilt {
				run.rebuilds = append(run.rebuilds, c.Sub(b))
			}
			if read.spec != nil {
				run.byQuery[r.Op-1] = append(run.byQuery[r.Op-1], d.Sub(c)+b.Sub(a))
			} else {
				run.walk = append(run.walk, d.Sub(c)+b.Sub(a))
			}
			tr.add(srv, r.ReqID, "exec", "bind", srvStart, srvStart.Add(b.Sub(a)))
			tr.add(srv, r.ReqID, "view", "AcquireView", srvStart.Add(b.Sub(a)), srvStart.Add(c.Sub(a)))
			tr.add(srv, r.ReqID, "exec", "run", srvStart.Add(c.Sub(a)), srvStart.Add(d.Sub(a)))
		case server.ClassWrite:
			run.writes++
			id := ids.Compose(ids.KindPerson, benchWriteBucket+run.writes>>16, uint32(run.writes&0xffff))
			a := time.Now()
			tx := e.st.Begin()
			err := tx.CreateNode(id, store.Props{
				{Key: store.PropFirstName, Val: store.String("perfbench")},
				{Key: store.PropCreationDate, Val: store.Int64(run.writes)},
			})
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			b := time.Now()
			if err != nil {
				panic(fmt.Sprintf("perfbench: in-process write: %v", err))
			}
			run.commits = append(run.commits, b.Sub(a))
			tr.add(srv, r.ReqID, "store", "Begin..Commit", srvStart, srvStart.Add(b.Sub(a)))
		}
	}
}

func (run *inprocRun) layers(rep *report) {
	a := summarize(run.acquire)
	rep.layer("view.acquire_p50_us", us(a.P50))
	rep.layer("view.acquire_p99_us", us(a.Tail))
	if len(run.rebuilds) > 0 {
		rep.layer("view.rebuild_p50_ms", ms(summarize(run.rebuilds).P50))
	}
	for q := range run.byQuery {
		if len(run.byQuery[q]) > 0 {
			rep.layer(fmt.Sprintf("exec.Q%d_p50_us", q+1), us(summarize(run.byQuery[q]).P50))
		}
	}
	rep.layer("exec.walk_p50_us", us(summarize(run.walk).P50))
	var reads samples
	for q := range run.byQuery {
		reads = append(reads, run.byQuery[q]...)
	}
	rep.layer("exec.read_p50_us", us(summarize(reads).P50))
	if len(run.commits) > 0 {
		c := summarize(run.commits)
		rep.layer("commit.p50_us", us(c.P50))
		rep.layer("commit.p99_us", us(c.Tail))
	}
}

// runServed runs interactive-read (writes false) or interactive-write.
func runServed(cfg *config, writes bool, rep *report) error {
	e, err := setupRepeated(cfg, setupKind{durable: writes, serve: true}, cfg.dataDir, rep)
	if err != nil {
		return err
	}
	defer e.close()
	mix, rate := readMix, cfg.readRate
	if writes {
		mix, rate = writeMix, cfg.writeRate
	}

	sp, err := runServedPass(cfg, e, mix, rate, 0, nil)
	if err != nil {
		return err
	}
	servedEndToEnd(rep, sp, writes)
	passes := []*servedPass{sp}
	if cfg.trace {
		tr := newTracer()
		tp, err := runServedPass(cfg, e, mix, rate, 1, tr)
		if err != nil {
			return err
		}
		traced := newReport()
		servedEndToEnd(traced, tp, writes)
		for k, v := range traced.layers {
			rep.layers[k] = v
		}
		servedLayers(rep, tp, writes)
		if err := finishTrace(cfg, rep, tr, traced); err != nil {
			return err
		}
		passes = append(passes, tp)
	}

	// Every request must have ended OK, and every OK read response must
	// match the in-process reference. The write class only inserts persons
	// without edges, which no read template reaches, so the references are
	// taken on the final view.
	v, _ := e.st.AcquireView()
	sc := workload.NewScratch()
	var phases []*phase
	var acked int64
	for _, p := range passes {
		phases = append(phases, p.phases()...)
		for _, ph := range p.phases() {
			rep.count(ph.tally())
			for i := range ph.reqs {
				if ph.reqs[i].Class == server.ClassWrite && ph.outs[i].ok() {
					acked++
				}
			}
		}
		if p.inproc != nil {
			acked += p.inproc.writes
		}
	}
	if err := checkServed(phases); err != nil {
		rep.fail("%v", err)
	}
	n, err := checkRows(phases, func(k rowKey) uint32 {
		read := bindRead(e.pools, cfg.seed, k)
		return read.run(v, sc)
	})
	if err != nil {
		rep.fail("%v", err)
	}
	rep.note("compared %d read responses with the in-process reference", n)
	if !writes {
		return nil
	}

	// Every acknowledged write survives Shutdown and a fresh store.Open.
	if err := e.shutdown(); err != nil {
		return err
	}
	liveClock := e.st.LastCommit()
	lv, _ := e.st.AcquireView()
	p2, info, err := store.Open(e.dir, persistOptions, schema.RegisterIndexes)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer p2.Close()
	rv, _ := p2.AcquireView()
	if err := checkClock(liveClock, info.Clock); err != nil {
		rep.fail("%v", err)
	}
	if err := checkAckedPersons(lv.NodesOfKind(ids.KindPerson), rv.NodesOfKind(ids.KindPerson), e.persons, acked); err != nil {
		rep.fail("%v", err)
	}
	rep.note("%d acknowledged writes present after restart at commit %d", acked, info.Clock)
	return nil
}
