package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/dserve"
	"dmdc/internal/experiments"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
)

// serviceClients is the closed-loop client count: dmdcd's callers each
// wait for their reply.
const serviceClients = 2

// timedStore wraps the server's result store to time every Get and Put.
type timedStore struct {
	inner resultcache.Store

	mu         sync.Mutex
	getUS      []float64
	putUS      []float64
	gets, hits int
}

func (t *timedStore) Get(key string) (*core.Result, bool) {
	t0 := time.Now()
	r, ok := t.inner.Get(key)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.getUS = append(t.getUS, float64(d.Nanoseconds())/1e3)
	t.gets++
	if ok {
		t.hits++
	}
	return r, ok
}

func (t *timedStore) Put(key string, r *core.Result) error {
	t0 := time.Now()
	err := t.inner.Put(key, r)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.putUS = append(t.putUS, float64(d.Nanoseconds())/1e3)
	return err
}

func (t *timedStore) Stats() resultcache.Stats { return t.inner.Stats() }

// serviceEnv is one running dmdcd set-up: a disk result cache warmed with
// the corpus, an fsynced job journal, a one-worker server on a loopback
// listener and the clients that drive it.
type serviceEnv struct {
	dir     string
	journal *jobstore.Store
	srv     *dserve.Server
	hs      *http.Server
	serveCh chan error
	tr      *http.Transport
	remotes []*dserve.Remote
	store   *timedStore // nil untraced
	// warm holds the encoding of every corpus result as first computed,
	// keyed by universe index: every later hit must match it byte for byte.
	warm map[int][]byte
}

// startService builds the server the dmdcd defaults describe. The warm
// corpus is computed in process (ExecuteJob + Cache.Put) so set-up does no
// HTTP or journal work.
func startService(ctx context.Context, workRoot string, corpus []int, traced bool) (*serviceEnv, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "svc-")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{dir: dir, warm: map[int][]byte{}}
	fail := func(err error) (*serviceEnv, error) {
		e.close()
		return nil, err
	}
	cache, err := resultcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return fail(err)
	}
	for _, idx := range corpus {
		spec := universeSpec(idx)
		r, err := experiments.ExecuteJob(ctx, spec)
		if err != nil {
			return fail(fmt.Errorf("corpus %d: %w", idx, err))
		}
		if err := cache.Put(spec.CacheKey(), r); err != nil {
			return fail(err)
		}
		if _, e.warm[idx], err = digest(r); err != nil {
			return fail(err)
		}
	}
	var store resultcache.Store = cache
	if traced {
		e.store = &timedStore{inner: cache}
		store = e.store
	}
	e.journal, _, err = jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{Sync: true})
	if err != nil {
		return fail(err)
	}
	e.srv, err = dserve.NewServer(dserve.ServerConfig{Workers: 1, Cache: store, Store: e.journal, Instance: "perfbench"})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.hs = &http.Server{Handler: e.srv}
	e.serveCh = make(chan error, 1)
	go func() { e.serveCh <- e.hs.Serve(ln) }()
	e.tr = &http.Transport{MaxIdleConnsPerHost: serviceClients}
	client := &http.Client{Transport: e.tr}
	for c := 0; c < serviceClients; c++ {
		e.remotes = append(e.remotes, dserve.NewRemote("http://"+ln.Addr().String(), client))
	}
	return e, nil
}

// close stops the listener, the server and the journal, waits for the
// serving goroutine and removes the directory.
func (e *serviceEnv) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.hs.Shutdown(ctx) // idle keep-alive connections only; nothing is in flight
		cancel()
		<-e.serveCh
	}
	if e.tr != nil {
		e.tr.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.journal != nil {
		_ = e.journal.Close() // the directory is removed next
	}
	os.RemoveAll(e.dir)
}

// runService measures service-mix: closed-loop requests from two clients
// against an in-process dmdcd, 3 warm repeats for every never-seen job.
func runService(ctx context.Context, pn *pins, workRoot string, corpus []int, plan []serviceOp, cfg passConfig) (*pass, error) {
	p := newPass()
	var env *serviceEnv
	if err := p.timeSetup(cfg.setupReps, true, func() (func(), error) {
		var err error
		env, err = startService(ctx, workRoot, corpus, cfg.traced)
		if err != nil {
			return nil, err
		}
		return env.close, nil
	}); err != nil {
		return nil, fmt.Errorf("service-mix set-up: %w", err)
	}
	defer env.close()

	results := make([]*core.Result, len(plan))
	errs := make([]error, len(plan))
	ran := p.measure(cfg, len(plan), serviceClients, func(i int) opSample {
		op := plan[i]
		t0 := cfg.now()
		r, err := env.remotes[i%serviceClients].Run(ctx, universeSpec(op.Spec))
		dt := cfg.now().Sub(t0)
		results[i], errs[i] = r, err
		var insts uint64
		if err == nil {
			insts = r.Insts
		}
		return opSample{MS: ms(dt), Insts: insts}
	})

	var warmMS, coldMS []float64
	var acc modelAcc
	coldIssued := 0
	k := 0
	for i, did := range ran {
		if !did {
			continue
		}
		op, o := plan[i], p.ops[k]
		k++
		p.jobMS = append(p.jobMS, o.MS)
		if op.Cold {
			coldIssued++
			coldMS = append(coldMS, o.MS)
		} else {
			warmMS = append(warmMS, o.MS)
		}
		err := errs[i]
		if err == nil {
			err = checkService(pn, env, op, results[i])
		}
		if err == nil {
			acc.add(results[i])
		}
		p.tally.record(err)
	}
	p.modelBlock = acc.stats()
	// Every cold request must have simulated exactly once, and nothing
	// else: the corpus was computed in process, so the server's own count
	// is the cold count.
	st := env.srv.Stats()
	if st.Executed != uint64(coldIssued) {
		p.tally.record(fmt.Errorf("service-mix: server executed %d simulations for %d cold requests", st.Executed, coldIssued))
	}
	p.sims = int(st.Executed)
	p.layer["dserve.executed"] = float64(st.Executed)
	p.layer["dserve.cache_hits"] = float64(st.CacheHits)
	p.layer["dserve.rejected"] = float64(st.Rejected)
	p.layer["dserve.warm_rtt_us_p50"] = percentile(warmMS, 50) * 1e3
	p.layer["dserve.cold_rtt_ms_p50"] = percentile(coldMS, 50)
	p.layer["experiments.sims_per_op"] = ratio(float64(st.Executed), float64(len(p.ops)))
	if jobs := len(env.journal.Jobs()); jobs > 0 {
		p.layer["jobstore.bytes_per_job"] = float64(env.journal.Size()) / float64(jobs)
	}
	if s := env.store; s != nil {
		s.mu.Lock()
		p.layer["resultcache.get_us_p50"] = percentile(s.getUS, 50)
		p.layer["resultcache.put_us_p50"] = percentile(s.putUS, 50)
		p.layer["resultcache.hit_frac"] = ratio(float64(s.hits), float64(s.gets))
		p.layer["dserve.overhead_us"] = p.layer["dserve.warm_rtt_us_p50"] - p.layer["resultcache.get_us_p50"]
		s.mu.Unlock()
	}
	if err := p.timeSetup(cfg.setupAfter, false, func() (func(), error) {
		e, err := startService(ctx, workRoot, corpus, false)
		if err != nil {
			return nil, err
		}
		return e.close, nil
	}); err != nil {
		return nil, fmt.Errorf("service-mix set-up: %w", err)
	}
	p.notes = append(p.notes, fmt.Sprintf("service-mix: %d warm / %d cold requests, cold p50 %.3f ms, warm p50 %.3f ms, executed %d",
		len(warmMS), len(coldMS), percentile(coldMS, 50), percentile(warmMS, 50), st.Executed))
	return p, nil
}

// checkService verifies one delivered result: its digest against the
// universe pins, and for a warm request byte equality with the result as
// first computed.
func checkService(pn *pins, env *serviceEnv, op serviceOp, r *core.Result) error {
	d, b, err := digest(r)
	if err != nil {
		return err
	}
	if want := pn.Service[op.Spec]; d != want {
		return fmt.Errorf("service-mix spec %d: result digest %s, pinned %s", op.Spec, d, want)
	}
	if !op.Cold {
		first, ok := env.warm[op.Spec]
		if !ok {
			return errors.New("service-mix: warm request outside the corpus")
		}
		if !bytes.Equal(b, first) {
			return fmt.Errorf("service-mix spec %d: warm hit differs from the result first computed", op.Spec)
		}
	}
	return nil
}
