package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/client"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/service"
	"powder/internal/sta"
	"powder/internal/store"
)

// serviceWorkers is the daemon's worker-pool size and the number of
// closed-loop clients: one per CPU of the two-CPU reference host.
const serviceWorkers = 2

// pollInterval is how often a client polls a running job; it bounds the
// quantization of miss latencies.
const pollInterval = 5 * time.Millisecond

// countingTransport counts HTTP round trips so client retries show as
// round trips beyond the logical requests made.
type countingTransport struct {
	base  *http.Transport
	trips atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	return t.base.RoundTrip(r)
}

// daemon is an in-process powderd: the service with a memory-only
// result cache, served over loopback HTTP.
//
// It runs without the WAL journal. With one, every cache hit appends
// and fsyncs the full cached result, BLIF and ledger (about 100 KB per
// record here); on the reference host that moved hit_p50_ms between
// 5.8 and 9.1 ms from run to run, against 2.7 to 3.1 ms without it.
// store.AppendSubmit is timed by the traced run's append probe instead.
type daemon struct {
	reg    *obs.Registry
	svc    *service.Service
	srv    *http.Server
	served chan error
	rt     *countingTransport
	cl     *client.Client
	calls  atomic.Int64 // logical client requests
}

func startDaemon(traceSample int64) (*daemon, error) {
	d := &daemon{reg: obs.NewRegistry()}
	cache, err := store.OpenCache("", 0, d.reg, discardLogger())
	if err != nil {
		return nil, err
	}
	d.svc = service.New(service.Config{
		Workers:     serviceWorkers,
		Registry:    d.reg,
		Cache:       cache,
		TraceSample: traceSample,
		TraceLimit:  1 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.svc.Close()
		return nil, err
	}
	d.srv = &http.Server{Handler: d.svc.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.rt = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * serviceWorkers}}
	d.cl = client.New("http://"+ln.Addr().String(), client.Options{
		HTTPClient: &http.Client{Transport: d.rt},
		BaseDelay:  20 * time.Millisecond,
	})
	return d, nil
}

// close drains the daemon and waits for its server goroutine to end.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Drain(ctx)
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	d.rt.base.CloseIdleConnections()
	return err
}

// jobInfo is what the client saw of one job.
type jobInfo struct {
	status service.Status
	blif   []byte
}

// submitJob submits one BLIF and waits for a terminal state; the
// returned latency is submit-to-terminal as the client sees it.
func (d *daemon) submitJob(ctx context.Context, body []byte, constr bool) (*jobInfo, float64, error) {
	q := url.Values{}
	if constr {
		q.Set("delay-limit", "0")
	}
	ctx, sp := trace.StartSpan(ctx, "bench.job")
	defer sp.End()
	t0 := time.Now()
	d.calls.Add(1)
	st, err := d.cl.Submit(ctx, body, q)
	for err == nil && !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(pollInterval):
		}
		d.calls.Add(1)
		st, err = d.cl.Status(ctx, st.ID)
	}
	lat := time.Since(t0).Seconds()
	if err != nil {
		return nil, lat, err
	}
	d.calls.Add(1)
	out, err := d.cl.ResultBLIF(ctx, st.ID)
	if err != nil {
		return nil, lat, err
	}
	return &jobInfo{status: st, blif: out}, lat, nil
}

// servicePass runs one pass against a fresh daemon with two closed-loop
// clients sharing one job list. First every circuit is submitted free
// and constrained (cache misses: an optimize and a cache fill); once
// all have finished, the renamed twins are submitted (cache hits). Hits
// are timed on an idle pool: served
// next to running optimizations, their latency would measure the Go
// scheduler more than the cache path.
func servicePass(ctx context.Context, ins []*input, traceSample int64, g *gauge) (*passRecord, *daemon, error) {
	d, err := startDaemon(traceSample)
	if err != nil {
		return nil, nil, err
	}
	p := &passRecord{}
	ctx, sp := trace.StartSpan(ctx, "bench.pass")
	defer sp.End()
	// Jobs are taken in circuit-name order, not in the seed's shuffled
	// order: with two clients the pass wall is the makespan of the job
	// list, and a seed-dependent order would move jobs_per_s by which
	// circuits happened to finish last.
	sorted := append([]*input(nil), ins...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	var mu sync.Mutex
	// clients runs f for every (input, mode) on two concurrent
	// closed-loop clients; each takes the next job when its last one
	// has finished.
	clients := func(f func(in *input, m int) []*opRecord) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serviceWorkers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= len(sorted)*len(modes) {
						return
					}
					ops := f(sorted[k/len(modes)], k%len(modes))
					mu.Lock()
					p.ops = append(p.ops, ops...)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	// The gauge samples bracket the pass on an idle daemon.
	g.sample()
	c0 := cpuSeconds()
	t0 := time.Now()
	clients(func(in *input, m int) []*opRecord {
		op := &opRecord{input: in, constr: m == 1}
		op.job, op.wall, op.err = d.submitJob(ctx, in.blif, m == 1)
		return []*opRecord{op}
	})
	runtime.GC()
	clients(func(in *input, m int) []*opRecord {
		var ops []*opRecord
		for _, twin := range in.twins[m] {
			t := &opRecord{input: in, constr: m == 1, cached: true}
			t.job, t.wall, t.err = d.submitJob(ctx, twin, m == 1)
			ops = append(ops, t)
		}
		return ops
	})
	p.wall = time.Since(t0).Seconds()
	p.cpu = cpuSeconds() - c0
	g.sample()
	for _, op := range p.ops {
		if op.cached {
			p.hits = append(p.hits, &hitRecord{latency: op.wall})
		} else if op.err == nil && op.job.status.Result != nil {
			p.optimize += op.job.status.Result.RuntimeSeconds
		}
	}
	return p, d, nil
}

// checkJobs is the service-mix oracle. A fresh job must complete, be
// equivalent to its input, keep its delay constraint and not raise
// power; a twin must be served from the cache with BLIF that hashes
// equal to its fresh twin's.
func checkJobs(p *passRecord, seed int64, eq map[string]error) []error {
	fresh := map[string]string{} // input hash/mode -> served result hash
	errs := make([]error, len(p.ops))
	for i, op := range p.ops {
		if op.cached {
			continue
		}
		errs[i] = checkFreshJob(op, seed, eq)
		if errs[i] == nil {
			nl, _ := blif.Read(bytes.NewReader(op.job.blif), cellib.Lib2())
			fresh[op.input.hash+"/"+modes[b2i(op.constr)]] = nl.StructuralHash()
		}
	}
	for i, op := range p.ops {
		if !op.cached {
			continue
		}
		switch want, ok := fresh[op.input.hash+"/"+modes[b2i(op.constr)]]; {
		case op.err != nil:
			errs[i] = op.err
		case !op.job.status.Cached:
			errs[i] = fmt.Errorf("renamed twin of %s was not served from the cache", op.input.name)
		case !ok:
			errs[i] = fmt.Errorf("renamed twin of %s has no verified fresh result", op.input.name)
		default:
			errs[i] = sameStructure(op.job.blif, want)
		}
	}
	return errs
}

func checkFreshJob(op *opRecord, seed int64, eq map[string]error) error {
	if op.err != nil {
		return op.err
	}
	st := op.job.status
	if st.State != service.StateCompleted || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Cached {
		return fmt.Errorf("fresh submission of %s was served from the cache", op.input.name)
	}
	r := st.Result
	if r.Stopped != "completed" {
		return fmt.Errorf("job %s stopped: %s", st.ID, r.Stopped)
	}
	if r.FinalPower > r.InitialPower {
		return fmt.Errorf("job %s: final power above initial", st.ID)
	}
	// The result is checked as the daemon saw the input: parsed from the
	// submitted BLIF, with its output ports restored (see withInputPorts).
	in, err := blif.Read(bytes.NewReader(op.input.blif), cellib.Lib2())
	if err != nil {
		return err
	}
	out, err := blif.Read(bytes.NewReader(op.job.blif), cellib.Lib2())
	if err != nil {
		return fmt.Errorf("job %s result: %w", st.ID, err)
	}
	key := op.input.hash + "/" + out.StructuralHash()
	err, seen := eq[key]
	if !seen {
		var ported *netlist.Netlist
		ported, err = withInputPorts(in, out, seed)
		if err == nil {
			err = checkEquivalent(in, ported, seed)
		}
		if err == nil && op.constr {
			limit := sta.New(in, 0).Delay()
			if d := sta.New(ported, 0).Delay(); d > limit+1e-9 || r.FinalDelay > r.InitialDelay+1e-9 {
				err = fmt.Errorf("job %s: delay %.6g above constraint %.6g", st.ID, d, limit)
			}
		}
		eq[key] = err
	}
	return err
}
