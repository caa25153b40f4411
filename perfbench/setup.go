package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"ldbcsnb/internal/bench"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/server"
	"ldbcsnb/internal/server/client"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// setupKind says what a workload needs built before it is measured.
type setupKind struct {
	durable bool // store.Open on a fresh data directory, post-load checkpoint
	serve   bool // server.New over loopback TCP, answered ping
	updates bool // keep the dataset and update stream (the replay needs them)
}

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	gen, load, checkpoint, pools, view, total time.Duration
}

// env is one built environment.
type env struct {
	st      *store.Store
	persist *store.Persistent // nil for in-memory stores
	dir     string
	pools   *workload.ParamPools
	data    *bench.Env // dataset and updates; kept only when setupKind.updates
	persons int        // persons visible right after set-up

	srv      *server.Server
	addr     string
	serveErr chan error

	times setupTimes
}

// setup builds one environment: generate, load (logged, then checkpointed,
// for durable stores), curate the parameter pools, build the view, and for
// served workloads start the server and wait for it to answer a ping.
func setup(cfg *config, kind setupKind, dir string) (*env, error) {
	e := &env{dir: dir}
	t0 := time.Now()
	data := bench.NewEnvData(cfg.persons, cfg.dataSeed)
	t1 := time.Now()
	e.times.gen = t1.Sub(t0)

	if kind.durable {
		if err := e.loadDurable(data, dir); err != nil {
			return nil, err
		}
	} else {
		st := store.New()
		schema.RegisterIndexes(st)
		if err := data.LoadInto(st); err != nil {
			return nil, err
		}
		e.st = st
		e.times.load = time.Since(t1)
	}

	t3 := time.Now()
	e.pools = driver.PreparePools(data.Full, cfg.seed, false)
	t4 := time.Now()
	e.times.pools = t4.Sub(t3)
	v, _ := e.st.AcquireView()
	t5 := time.Now()
	e.times.view = t5.Sub(t4)
	e.persons = v.NumOfKind(ids.KindPerson)
	if kind.updates {
		e.data = data
	}

	if kind.serve {
		if err := e.startServer(cfg); err != nil {
			e.close()
			return nil, err
		}
	}
	e.times.total = time.Since(t0)
	return e, nil
}

// loadDurable opens a durable store on a fresh data directory, loads the
// dataset into it and writes the post-load checkpoint, recording the load
// and checkpoint times.
func (e *env) loadDurable(data *bench.Env, dir string) error {
	t0 := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	p, _, err := store.Open(dir, persistOptions, schema.RegisterIndexes)
	if err != nil {
		return err
	}
	e.persist, e.st, e.dir = p, p.Store, dir
	if err := data.LoadInto(p.Store); err != nil {
		return err
	}
	t1 := time.Now()
	e.times.load = t1.Sub(t0)
	if err := p.Checkpoint(); err != nil {
		return fmt.Errorf("post-load checkpoint: %w", err)
	}
	e.times.checkpoint = time.Since(t1)
	return nil
}

func (e *env) startServer(cfg *config) error {
	e.srv = server.New(server.Config{
		Store:   e.st,
		Persist: e.persist,
		Pools:   e.pools,
		Seed:    cfg.seed,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.addr = ln.Addr().String()
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.srv.Serve(ln) }()
	cl := client.New(client.Options{Addr: e.addr, RetryMax: 20, RetryBase: time.Millisecond})
	defer cl.Close()
	resp, err := cl.Do(&server.Request{Class: server.ClassPing})
	if err != nil {
		return err
	}
	if resp.Status != server.StatusOK {
		return fmt.Errorf("ping answered with status %d", resp.Status)
	}
	return nil
}

// shutdown drains the server (which closes a durable store) or closes the
// store directly, and waits for the accept loop to end.
func (e *env) shutdown() error {
	if e.srv == nil {
		if e.persist != nil {
			return e.persist.Close()
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveErr; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// close shuts the environment down and removes its data directory.
func (e *env) close() {
	if err := e.shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: shutdown: %v\n", err)
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setupRepeated builds the environment cfg.setups times, keeping the last
// and closing the others, and reports the median of each phase: set-up is a
// metric, so it is measured like one.
func setupRepeated(cfg *config, kind setupKind, dirFor func(int) string, rep *report) (*env, error) {
	var totals, gens, loads, ckpts, pools, views []float64
	var e *env
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		dir := ""
		if kind.durable {
			dir = dirFor(i)
		}
		var err error
		e, err = setup(cfg, kind, dir)
		if err != nil {
			return nil, err
		}
		t := e.times
		totals = append(totals, t.total.Seconds())
		gens = append(gens, t.gen.Seconds())
		loads = append(loads, t.load.Seconds())
		ckpts = append(ckpts, t.checkpoint.Seconds())
		pools = append(pools, t.pools.Seconds())
		views = append(views, t.view.Seconds())
	}
	rep.set("setup_s", median(totals))
	rep.layer("setup.gen_s", median(gens))
	rep.layer("setup.load_s", median(loads))
	if kind.durable {
		rep.layer("setup.checkpoint_s", median(ckpts))
	}
	rep.layer("setup.pools_s", median(pools))
	rep.layer("setup.view_build_s", median(views))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	return e, nil
}
