package main

import (
	"fmt"
	"reflect"
	"time"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/exec"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/query"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// The analytics workload: the paper's BI side, in process on a warm
// read-only view. One client cycles BI1-BI8 on the morsel-parallel path
// (RunPar with one worker per CPU), each round followed by the declarative
// Q1, Q2 and Q8 of query.Registry. No server and no WAL are involved.

// analyticsPass is one closed-loop pass.
type analyticsPass struct {
	rounds  samples                 // one RunPar pass over BI1-BI8
	perBI   [bi.NumQueries]samples  // per-query RunPar time
	decl    samples                 // one round of declarative Q1, Q2 and Q8
	perDecl map[string]samples      // declarative time by query name
	hand    map[string]samples      // hand-written workload.Complex time (traced)
	traced  []declBinding           // every declarative execution's binding (traced)
	serial  samples                 // one RunView pass over BI1-BI8 (traced)
	acquire samples                 // AcquireView before each BI query
	biSeen  map[biBinding]bool      // distinct BI bindings, for the check
	decls   map[string]declBinding  // distinct declarative bindings and results
	views   store.ViewStatsSnapshot // view maintenance over the pass
}

type biBinding struct {
	q int
	p bi.Params
}

type declBinding struct {
	spec   *query.Spec
	params query.Params
	rows   [][]store.Value
}

func runAnalytics(cfg *config, rep *report) error {
	e, err := setupRepeated(cfg, setupKind{}, nil, rep)
	if err != nil {
		return err
	}
	defer e.close()
	ap, err := analyticsOnce(cfg, e, 0, nil)
	if err != nil {
		return err
	}
	analyticsEndToEnd(rep, ap)
	passes := []*analyticsPass{ap}
	if cfg.trace {
		tr := newTracer()
		tp, err := analyticsOnce(cfg, e, 1, tr)
		if err != nil {
			return err
		}
		traced := newReport()
		analyticsEndToEnd(traced, tp)
		analyticsLayers(rep, tp)
		if err := finishTrace(cfg, rep, tr, traced); err != nil {
			return err
		}
		passes = append(passes, tp)
	}
	for _, p := range passes {
		n := int64(len(p.rounds)*bi.NumQueries + len(p.decl)*len(query.Registry))
		rep.count(n, 0)
		if err := checkAnalytics(e, cfg.conns, p); err != nil {
			rep.fail("%v", err)
		}
		rep.note("checked %d BI bindings (parallel vs serial) and %d declarative bindings (vs hand-written)", len(p.biSeen), len(p.decls))
	}
	return nil
}

func analyticsOnce(cfg *config, e *env, pass uint64, tr *tracer) (*analyticsPass, error) {
	ap := &analyticsPass{
		perDecl: map[string]samples{}, hand: map[string]samples{},
		biSeen: map[biBinding]bool{}, decls: map[string]declBinding{},
	}
	par := exec.Config{Workers: cfg.conns}
	rnd := xrand.New(cfg.seed, xrand.PurposeShortRead, 0xb1+pass)
	sc := workload.NewScratch()
	qsc := query.WrapScratch(sc)
	d := time.Duration(cfg.seconds * float64(time.Second))
	v0 := e.st.ViewStats()
	start := time.Now()
	for req := uint64(1); time.Since(start) < d; req++ {
		r0 := time.Now()
		round := tr.add(-1, req, "exec", "BI round", r0, r0)
		for q := range bi.Registry {
			spec := &bi.Registry[q]
			p := spec.Bind(e.pools, rnd)
			ap.biSeen[biBinding{q, p}] = true
			a := time.Now()
			v, _ := e.st.AcquireView()
			b := time.Now()
			spec.RunPar(v, par, p)
			c := time.Now()
			ap.acquire = append(ap.acquire, b.Sub(a))
			ap.perBI[q] = append(ap.perBI[q], c.Sub(b))
			tr.add(round, req, "view", "AcquireView", a, b)
			tr.add(round, req, "exec", spec.Name, b, c)
		}
		r1 := time.Now()
		ap.rounds = append(ap.rounds, r1.Sub(r0))
		tr.close(round, r1)

		v, _ := e.st.AcquireView()
		var declRound time.Duration
		for i := range query.Registry {
			spec := &query.Registry[i]
			params := spec.Bind(e.pools, rnd)
			a := time.Now()
			res, err := spec.RunView(v, qsc, params)
			b := time.Now()
			if err != nil {
				return nil, fmt.Errorf("declarative %s: %w", spec.Name, err)
			}
			declRound += b.Sub(a)
			ap.perDecl[spec.Name] = append(ap.perDecl[spec.Name], b.Sub(a))
			tr.add(-1, req, "query", spec.Name, a, b)
			key := spec.Name + fmt.Sprint(params)
			if _, ok := ap.decls[key]; !ok {
				ap.decls[key] = declBinding{spec: spec, params: params, rows: res.Rows}
			}
			if tr != nil {
				ap.traced = append(ap.traced, declBinding{spec: spec, params: params})
			}
		}
		ap.decl = append(ap.decl, declRound)
	}
	v1 := e.st.ViewStats()
	ap.views = store.ViewStatsSnapshot{
		Refreshes: v1.Refreshes - v0.Refreshes, Rebuilds: v1.Rebuilds - v0.Rebuilds,
		EraBumps: v1.EraBumps - v0.EraBumps, Overflows: v1.Overflows - v0.Overflows,
	}
	if tr != nil {
		// After the measured loop, so that the traced loop does the same work
		// as the untraced one: the hand-written query each declarative one
		// mirrors, on the same bindings (the base of query.decl_over_hand),
		// and serial rounds for exec.par_speedup.
		v, _ := e.st.AcquireView()
		for _, d := range ap.traced {
			cp := handParams(d.params)
			hs := handSpec(d.spec.Name)
			h0 := time.Now()
			hs.RunView(v, sc, cp)
			ap.hand[d.spec.Name] = append(ap.hand[d.spec.Name], time.Since(h0))
		}
		for i := 0; i < 5; i++ {
			a := time.Now()
			for q := range bi.Registry {
				spec := &bi.Registry[q]
				spec.RunView(v, sc, spec.Bind(e.pools, rnd))
			}
			ap.serial = append(ap.serial, time.Since(a))
		}
	}
	return ap, nil
}

// handSpec is the workload.Complex template a declarative query mirrors.
func handSpec(name string) *workload.ComplexSpec {
	switch name {
	case "Q1":
		return &workload.Complex[0]
	case "Q2":
		return &workload.Complex[1]
	}
	return &workload.Complex[7]
}

// handParams maps a declarative binding onto the hand-written parameters.
func handParams(p query.Params) workload.ComplexParams {
	cp := workload.ComplexParams{Person: ids.ID(uint64(p["person"].Int()))}
	if v, ok := p["name"]; ok {
		cp.FirstName = v.Str()
	}
	if v, ok := p["maxDate"]; ok {
		cp.MaxDate = v.Int()
	}
	return cp
}

// checkAnalytics compares, on the pass's view, RunPar rows with serial
// rows for every BI binding the pass used, and every declarative result
// with the hand-written query's rows projected onto its columns.
func checkAnalytics(e *env, workers int, ap *analyticsPass) error {
	v, _ := e.st.AcquireView()
	sc := workload.NewScratch()
	par := exec.Config{Workers: workers}
	for b := range ap.biSeen {
		ser, prl := biRows(v, sc, par, b, false), biRows(v, sc, par, b, true)
		if !reflect.DeepEqual(ser, prl) {
			return fmt.Errorf("BI%d %+v: parallel rows differ from serial rows", b.q+1, b.p)
		}
	}
	for _, d := range ap.decls {
		want := handRows(v, sc, d.spec.Name, handParams(d.params))
		if err := sameRows(d.spec.Name, d.rows, want); err != nil {
			return err
		}
	}
	return nil
}

// sameRows compares a declarative result with the hand-written rows.
func sameRows(name string, got, want [][]store.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("declarative %s returned %d rows, hand-written %d", name, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("declarative %s row %d is %v, hand-written %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// handRows runs the hand-written query and projects its rows onto the
// declarative query's return columns.
func handRows(v *store.SnapshotView, sc *workload.Scratch, name string, p workload.ComplexParams) [][]store.Value {
	id := func(x ids.ID) store.Value { return store.Int64(int64(uint64(x))) }
	var out [][]store.Value
	switch name {
	case "Q1":
		for _, r := range workload.Q1(v, sc, p.Person, p.FirstName) {
			out = append(out, []store.Value{id(r.Person), store.Int64(int64(r.Distance)), store.String(r.LastName)})
		}
	case "Q2":
		for _, r := range workload.Q2(v, sc, p.Person, p.MaxDate) {
			out = append(out, []store.Value{id(r.Message), id(r.Creator), store.Int64(r.CreationDate)})
		}
	default:
		for _, r := range workload.Q8(v, sc, p.Person) {
			out = append(out, []store.Value{id(r.Comment), id(r.Replier), store.Int64(r.CreationDate)})
		}
	}
	return out
}

// biRows returns the full rows of one BI binding on the serial or the
// morsel-parallel view path.
func biRows(v *store.SnapshotView, sc *workload.Scratch, par exec.Config, b biBinding, parallel bool) any {
	p := b.p
	switch b.q + 1 {
	case 1:
		if parallel {
			return bi.BI1Par(v, par)
		}
		return bi.BI1(v)
	case 2:
		if parallel {
			return bi.BI2Par(v, par, p.WindowStart, p.WindowMillis, p.Limit)
		}
		return bi.BI2(v, p.WindowStart, p.WindowMillis, p.Limit)
	case 3:
		if parallel {
			return bi.BI3Par(v, par)
		}
		return bi.BI3(v)
	case 4:
		if parallel {
			return bi.BI4Par(v, par, p.Limit)
		}
		return bi.BI4(v, p.Limit)
	case 5:
		if parallel {
			return bi.BI5Par(v, par)
		}
		return bi.BI5(v)
	case 6:
		if parallel {
			return bi.BI6Par(v, par, p.CreatedBefore, p.MaxMessages)
		}
		return bi.BI6(v, p.CreatedBefore, p.MaxMessages)
	case 7:
		if parallel {
			return bi.BI7Par(v, par, p.Limit)
		}
		return bi.BI7(v, sc, p.Limit)
	default:
		if parallel {
			return bi.BI8Par(v, par)
		}
		return bi.BI8(v)
	}
}

func analyticsEndToEnd(rep *report, ap *analyticsPass) {
	rep.set("primary_ms", ms(summarize(ap.rounds).P50))
	rep.set("secondary_ms", ms(summarize(ap.decl).P50))
	rep.note("primary_ms: median of %d BI rounds; secondary_ms: median of %d declarative rounds", len(ap.rounds), len(ap.decl))
}

func analyticsLayers(rep *report, ap *analyticsPass) {
	var reads samples
	for q := range ap.perBI {
		rep.layer(fmt.Sprintf("bi.BI%d_ms", q+1), ms(summarize(ap.perBI[q]).P50))
		reads = append(reads, ap.perBI[q]...)
	}
	rep.layer("exec.read_p50_us", us(summarize(reads).P50))
	rep.layer("exec.par_speedup", float64(summarize(ap.serial).P50)/float64(summarize(ap.rounds).P50))
	for name, s := range ap.perDecl {
		d := summarize(s).P50
		rep.layer("query.run_us."+name, us(d))
		rep.layer("query.decl_over_hand."+name, float64(d)/float64(summarize(ap.hand[name]).P50))
	}
	a := summarize(ap.acquire)
	rep.layer("view.acquire_p50_us", us(a.P50))
	rep.layer("view.acquire_p99_us", us(a.Tail))
	viewLayers(rep, ap.views, int64(len(ap.acquire)))

	// Parse and compile cost of the registry texts.
	var parse, compile samples
	for i := 0; i < 200; i++ {
		for j := range query.Registry {
			a := time.Now()
			q, err := query.Parse(query.Registry[j].Text)
			b := time.Now()
			if err != nil {
				panic(err)
			}
			if _, err := query.Compile(q); err != nil {
				panic(err)
			}
			parse = append(parse, b.Sub(a))
			compile = append(compile, time.Since(b))
		}
	}
	rep.layer("query.parse_us", us(summarize(parse).P50))
	rep.layer("query.compile_us", us(summarize(compile).P50))
}
