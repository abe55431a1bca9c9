// Command perfbench is the repository benchmark: one command that runs a
// workload, checks every output, and prints every end-to-end (--trace 0)
// or per-layer (--trace 1) metric with its unit. The last line of
// standard output is the JSON result. See README.md for the workloads,
// the metric map and the reference numbers.
//
//	bash perfbench/run.sh --workload heavy-seq --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"powder/internal/client"
	"powder/internal/obs"
	"powder/internal/obs/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	heldOut  bool
	out      string
	dir      string // scratch directory for journals and traces
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: heavy-seq, heavy-par2, xor-random or service-mix")
	fs.Int64Var(&o.seed, "seed", 1, "run seed: circuit order, renamed twins and oracle vectors")
	fs.Float64Var(&o.seconds, "seconds", 25, "measurement window; whole passes run until the next would overrun it")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.heldOut, "held-out", false, "use the held-out xor-random generator family")
	fs.StringVar(&o.out, "out", "", "also write the full report (host facts, samples, self times) as JSON here")
	cmp := fs.Bool("compare", false, "compare two --out reports given as arguments, refusing on differing host facts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two report files")
			return 2
		}
		if err := compareReports(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o.dir = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.dir)

	host := collectHost()
	fmt.Fprintf(stdout, "perfbench %s seed %d trace %t held-out %t\n", w.name, o.seed, o.trace, o.heldOut)
	fmt.Fprintf(stdout, "host: nproc %d GOMAXPROCS %d %s cpu %q rev %s\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.GitRev)

	var rep *report
	if o.trace {
		rep, err = tracedRun(context.Background(), w, o, stdout)
	} else {
		rep, err = measuredRun(context.Background(), w, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Host = host
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their checks\n", rep.Result.Failed, rep.Result.Attempted)
		return 1
	}
	return 0
}

// setup runs the workload's set-up setupReps times and returns the last
// inputs with the per-repetition times. For service-mix a set-up also
// starts (and stops) the daemon with its store.
func setup(w *workload, o options, g *gauge) ([]*input, []float64, error) {
	var ins []*input
	var times []float64
	for r := 0; r < setupReps; r++ {
		g.sample()
		t0 := time.Now()
		var err error
		ins, err = w.inputs(o.heldOut)
		if err == nil {
			err = prepare(ins, o.seed)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if w.svc {
			d, err := startDaemon(0)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			times = append(times, time.Since(t0).Seconds())
			if err := d.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			continue
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ins, times, nil
}

// onePass runs one pass of the workload. A service-mix pass runs on a
// fresh daemon that is closed before onePass returns unless keep is set.
func onePass(ctx context.Context, w *workload, ins []*input, traceSample int64, ob *obs.Observer, reg *obs.Registry, keep bool, g *gauge) (*passRecord, *daemon, error) {
	if !w.svc {
		p, err := corePass(ctx, w, ins, ob, reg, g)
		return p, nil, err
	}
	p, d, err := servicePass(ctx, ins, traceSample, g)
	if err != nil {
		return nil, nil, err
	}
	if keep {
		return p, d, nil
	}
	return p, nil, d.close()
}

// checkPass runs the oracle over a pass and returns one error slot per
// operation, followed by one per cache hit for core workloads.
func checkPass(w *workload, p *passRecord, seed int64, eq map[string]error) []error {
	if w.svc {
		return checkJobs(p, seed, eq)
	}
	var errs []error
	for _, op := range p.ops {
		errs = append(errs, checkOp(op, seed, eq))
	}
	for _, h := range p.hits {
		errs = append(errs, h.err)
	}
	return errs
}

// signature is an operation's deterministic outcome: power figures,
// work counters and output structure must repeat bit for bit.
func signature(op *opRecord) string {
	if op.job != nil {
		r := op.job.status.Result
		if r == nil {
			return "no result"
		}
		return fmt.Sprintf("%x %x %d %x", math.Float64bits(r.InitialPower), math.Float64bits(r.FinalPower), r.Applied, sha256.Sum256(op.job.blif))
	}
	if op.res == nil {
		return "no result"
	}
	r := op.res
	return fmt.Sprintf("%x %x %d %d %d %+v %s", math.Float64bits(r.Initial.Power), math.Float64bits(r.Final.Power),
		r.Applied, r.Candidates, r.Harvests, r.CheckStats, op.out.StructuralHash())
}

// opKey names a fresh operation independently of the order in which
// concurrent clients finished it.
func opKey(op *opRecord) string {
	return op.input.name + "/" + modes[b2i(op.constr)]
}

// determinismErrors compares every fresh operation of later passes with
// the first pass.
func determinismErrors(passes []*passRecord) []error {
	first := map[string]string{}
	var errs []error
	for i, p := range passes {
		for _, op := range p.ops {
			if op.cached || op.err != nil {
				continue
			}
			sig := signature(op)
			if i == 0 {
				first[opKey(op)] = sig
			} else if first[opKey(op)] != sig {
				errs = append(errs, fmt.Errorf("%s: pass %d differs from pass 0", opKey(op), i))
			}
		}
	}
	return errs
}

// measuredRun is the untraced run: set-up, whole passes for the
// measurement window, the oracle, and the end-to-end metrics.
func measuredRun(ctx context.Context, w *workload, o options, stdout io.Writer) (*report, error) {
	g := &gauge{}
	ins, setups, err := setup(w, o, g)
	if err != nil {
		return nil, err
	}
	var passes []*passRecord
	start := time.Now()
	for {
		p, _, err := onePass(ctx, w, ins, 0, nil, nil, false, g)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.wall > o.seconds {
			break
		}
	}
	rss := peakRSSMB()

	eq := map[string]error{}
	var jobs, hits, optimize, cpu, wall []float64
	attempted, failed := 0, 0
	for i, p := range passes {
		errs := checkPass(w, p, mix(o.seed, 7, i), eq)
		attempted += len(errs)
		for _, e := range errs {
			if e != nil {
				failed++
				fmt.Fprintf(stdout, "FAIL pass %d: %v\n", i, e)
			}
		}
		// A job is one optimization; renamed twins only feed hit_p50_ms.
		for _, op := range p.ops {
			if !op.cached {
				jobs = append(jobs, op.wall*1e3)
			}
		}
		var ph []float64
		for _, h := range p.hits {
			ph = append(ph, h.latency*1e3)
		}
		hits = append(hits, ph...)
		fmt.Fprintf(stdout, "pass %d: wall %.3f s, optimize %.3f s, hit p50 %.3f ms\n", i, p.wall, p.optimize, median(ph))
		optimize = append(optimize, p.optimize)
		wall = append(wall, p.wall)
		if w.svc {
			cpu = append(cpu, p.cpu)
		} else {
			c := 0.0
			for _, op := range p.ops {
				c += op.cpu
			}
			cpu = append(cpu, c)
		}
	}
	for _, e := range determinismErrors(passes) {
		failed++
		fmt.Fprintf(stdout, "FAIL %v\n", e)
	}
	last := passes[len(passes)-1]
	free, constr := powerReduction(last)
	totalWall := sum(wall)
	// Time metrics as measured, then in reference seconds (calib.go).
	raw := map[string]float64{
		"setup_s":    median(setups),
		"optimize_s": median(optimize),
		"cpu_s":      median(cpu),
		"jobs_per_s": ratio(float64(len(jobs)), totalWall),
		"job_p50_ms": quantile(jobs, 0.5),
		"job_p90_ms": quantile(jobs, 0.9),
		"hit_p50_ms": median(hits),
	}
	slow := g.slowdown()
	vals := map[string]float64{
		"power_reduction_pct":        free,
		"constr_power_reduction_pct": constr,
		"peak_rss_mb":                rss,
		"ok_frac":                    ratio(float64(attempted-failed), float64(attempted)),
	}
	for k, v := range raw {
		if k == "jobs_per_s" {
			vals[k] = v * slow
		} else {
			vals[k] = v / slow
		}
	}
	writeOps(stdout, last)
	samples := map[string]int{
		"passes": len(passes), "setups": len(setups), "jobs": len(jobs), "hits": len(hits),
		"jobs_beyond_p90": beyond(jobs, raw["job_p90_ms"]), "gauge": len(g.samples),
	}
	fmt.Fprintf(stdout, "samples: %v\n", samples)
	fmt.Fprintf(stdout, "host slow-down %.4f (gauge median %.4f s over %d samples); raw: %v\n", slow, median(g.samples), len(g.samples), raw)
	acct := map[string]float64{"wall_s": totalWall, "cpu_s": sum(cpu), "host_slowdown": slow}
	var phases, runtime float64
	for _, p := range passes {
		for _, op := range p.ops {
			if op.res != nil {
				phases += op.res.Phases.Seconds()
				runtime += op.res.Runtime.Seconds()
			}
		}
	}
	if runtime > 0 {
		acct["core.phase_sum_over_wall"] = phases / runtime
	}
	fmt.Fprintf(stdout, "accounting: %v\n", acct)
	rep, err := finish(w, o, vals, endToEnd, attempted, failed, samples, nil, stdout)
	if rep != nil {
		rep.Accounting = acct
		rep.Raw = raw
	}
	return rep, err
}

// finish attaches units and builds the report; a metric the run failed
// to produce is a benchmark failure.
func finish(w *workload, o options, vals map[string]float64, specs []metricSpec, attempted, failed int, samples map[string]int, self map[string]float64, stdout io.Writer) (*report, error) {
	metrics, missing := withUnits(specs, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not produced: %v", missing)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return &report{
		Workload: w.name, Seed: o.seed, Trace: o.trace,
		Result:  result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		Samples: samples, SelfTime: self,
	}, nil
}

// powerReduction returns Σ(initial−final)/Σinitial in percent over the
// pass's fresh free and constrained operations.
func powerReduction(p *passRecord) (free, constr float64) {
	var init, fin [2]float64
	for _, op := range p.ops {
		if op.cached || op.err != nil {
			continue
		}
		m := b2i(op.constr)
		switch {
		case op.job != nil && op.job.status.Result != nil:
			init[m] += op.job.status.Result.InitialPower
			fin[m] += op.job.status.Result.FinalPower
		case op.res != nil:
			init[m] += op.res.Initial.Power
			fin[m] += op.res.Final.Power
		}
	}
	return 100 * ratio(init[0]-fin[0], init[0]), 100 * ratio(init[1]-fin[1], init[1])
}

func writeOps(w io.Writer, p *passRecord) {
	for _, op := range p.ops {
		if op.cached {
			continue
		}
		switch {
		case op.res != nil:
			r := op.res
			fmt.Fprintf(w, "op %-10s %-6s %8.3f s  applied %3d  checks %4d  conflicts %7d  power %.4f -> %.4f\n",
				op.input.name, modes[b2i(op.constr)], op.wall, r.Applied, r.CheckStats.Checks, r.CheckStats.Conflicts, r.Initial.Power, r.Final.Power)
		case op.job != nil && op.job.status.Result != nil:
			r := op.job.status.Result
			fmt.Fprintf(w, "job %-10s %-6s %8.3f s  applied %3d  run %.3f s  power %.4f -> %.4f\n",
				op.input.name, modes[b2i(op.constr)], op.wall, r.Applied, r.RuntimeSeconds, r.InitialPower, r.FinalPower)
		}
	}
}

func beyond(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// tracedRun is the per-layer run: an untraced pass as the overhead
// reference, a traced pass with a span tracer and metrics registry, the
// replay probes, and the self-time table. The Perfetto trace is written
// to .bench_build/.
func tracedRun(ctx context.Context, w *workload, o options, stdout io.Writer) (*report, error) {
	ins, _, err := setup(w, o, nil)
	if err != nil {
		return nil, err
	}
	ref, _, err := onePass(ctx, w, ins, 0, nil, nil, false, nil)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ob := obs.New(nil, reg)
	tr := trace.New("perfbench-"+w.name, trace.Options{Limit: 1 << 20, Base: client.SpanIDBase})
	tctx := trace.NewContext(ctx, tr)
	p, d, err := onePass(tctx, w, ins, 1, ob, reg, true, nil)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	engineOps := p.ops
	var spans []trace.Record
	if w.svc {
		var queue, run []float64
		for _, op := range p.ops {
			if op.cached || op.err != nil {
				continue
			}
			st := op.job.status
			if st.StartedAt != nil && st.FinishedAt != nil {
				queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds()*1e3)
				run = append(run, st.FinishedAt.Sub(*st.StartedAt).Seconds()*1e3)
			}
			// Every job tracer numbers its spans from 1 under the
			// client's trace ID, so each job becomes its own trace here.
			if j, ok := d.svc.Job(st.ID); ok {
				for _, r := range j.Tracer().Snapshot() {
					r.Trace = st.ID
					spans = append(spans, r)
				}
			}
		}
		vals["service.queue_wait_ms"] = median(queue)
		vals["service.run_ms"] = median(run)
		vals["store.cache_hits"] = float64(d.reg.Counter("store.cache.hits").Value())
		vals["store.cache_misses"] = float64(d.reg.Counter("store.cache.misses").Value())
		vals["client.retries"] = float64(d.rt.trips.Load() - d.calls.Load())
		if err := d.close(); err != nil {
			return nil, err
		}
		// The daemon does not expose its engine accounting per job, so the
		// fresh jobs are replayed through OptimizeCtx in-process with the
		// daemon's engine options.
		engineOps = nil
		for _, in := range ins {
			for m := range modes {
				engineOps = append(engineOps, runOp(tctx, in, m == 1, w.par, ob))
			}
		}
	} else {
		vals["store.cache_hits"] = float64(reg.Counter("store.cache.hits").Value())
		vals["store.cache_misses"] = float64(reg.Counter("store.cache.misses").Value())
		vals["client.retries"] = 0
		q, r, err := serviceProbe(tctx, ins)
		if err != nil {
			return nil, err
		}
		vals["service.queue_wait_ms"] = q
		vals["service.run_ms"] = r
	}
	probes, err := runProbes(tctx, ins, o.dir)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		vals[k] = v
	}
	for k, v := range engineMetrics(engineOps, reg) {
		vals[k] = v
	}
	spans = append(spans, tr.Snapshot()...)
	vals["atpg.check_p50_ms"] = spanQuantile(spans, "prove", 0.5)
	vals["atpg.check_p90_ms"] = spanQuantile(spans, "prove", 0.9)
	vals["trace_overhead_pct"] = 100 * ratio(p.optimize-ref.optimize, ref.optimize)

	eq := map[string]error{}
	attempted, failed := 0, 0
	for i, q := range []*passRecord{ref, p} {
		for _, e := range checkPass(w, q, mix(o.seed, 7, i), eq) {
			attempted++
			if e != nil {
				failed++
				fmt.Fprintf(stdout, "FAIL pass %d: %v\n", i, e)
			}
		}
	}
	if w.svc {
		for _, op := range engineOps {
			attempted++
			if e := checkOp(op, o.seed, eq); e != nil {
				failed++
				fmt.Fprintf(stdout, "FAIL replay: %v\n", e)
			}
		}
	}
	for _, e := range determinismErrors([]*passRecord{ref, p}) {
		failed++
		fmt.Fprintf(stdout, "FAIL %v\n", e)
	}

	self := selfTime(spans)
	writeSelfTimes(stdout, self)
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(stdout, "warning: %d spans dropped by the recorder\n", n)
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", w.name, o.seed))
	if err := writePerfetto(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfetto trace: %s (%d spans)\n", path, len(spans))
	samples := map[string]int{"spans": len(spans), "engine_ops": len(engineOps)}
	return finish(w, o, vals, perLayer, attempted, failed, samples, self, stdout)
}
