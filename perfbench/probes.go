package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/partition"
	"powder/internal/power"
	"powder/internal/service"
	"powder/internal/sta"
	"powder/internal/store"
	"powder/internal/transform"
)

// Replay-probe sample limits, per input netlist: enough calls for a
// steady mean, few enough to keep a traced run short.
const (
	probeCandidates = 256 // candidates fed to AnalyzeAB/AnalyzeC/Reaches
	probeAppends    = 32  // journal records appended
)

// timer accumulates the wall time of repeated calls.
type timer struct {
	total time.Duration
	n     int
}

func (t *timer) time(f func()) {
	t0 := time.Now()
	f()
	t.total += time.Since(t0)
	t.n++
}

// mean returns the mean call time in the given unit.
func (t *timer) mean(unit time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n) / float64(unit)
}

// runProbes times calls into each layer's public functions on the
// workload's initial netlists and returns the mean call times, keyed
// by per-layer metric name. Every probe runs under its own span.
func runProbes(ctx context.Context, ins []*input, dir string) (map[string]float64, error) {
	var est, stat, dec, gen, ab, cc, cone, reach, wr, rd, hash timer
	probe := func(name string, f func()) {
		_, sp := trace.StartSpan(ctx, "probe."+name)
		f()
		sp.End()
	}
	lib := cellib.Lib2()
	for _, in := range ins {
		nl := in.nl
		var pm *power.Model
		probe("power.estimate", func() { est.time(func() { pm = power.Estimate(nl, power.Options{}) }) })
		probe("sta.new", func() { stat.time(func() { sta.New(nl, 0) }) })
		probe("partition.decompose", func() { dec.time(func() { partition.Decompose(nl, 2) }) })
		var cands []*transform.Substitution
		probe("transform.generate", func() {
			gen.time(func() { cands = transform.Generate(nl, pm, transform.Config{AllowInverted: true}) })
		})
		if len(cands) > probeCandidates {
			cands = cands[:probeCandidates]
		}
		an := transform.NewAnalyzer(nl, pm)
		probe("transform.analyze", func() {
			for _, s := range cands {
				ab.time(func() { an.AnalyzeAB(s) })
				cc.time(func() { an.AnalyzeC(s) })
			}
		})
		probe("netlist.dead-cone", func() {
			nl.LiveNodes(func(n *netlist.Node) {
				if !n.IsInput() {
					cone.time(func() { nl.DeadConeIfDetached(n.ID(), n.Fanouts()) })
				}
			})
		})
		probe("netlist.reaches", func() {
			for _, s := range cands {
				root := s.A
				if s.IsBranchSub() {
					root = s.G
				}
				reach.time(func() { nl.Reaches(root, s.Src.B) })
			}
		})
		var buf bytes.Buffer
		var err error
		probe("blif.write", func() { wr.time(func() { err = blif.Write(&buf, nl) }) })
		if err != nil {
			return nil, err
		}
		probe("blif.read", func() { rd.time(func() { _, err = blif.Read(bytes.NewReader(buf.Bytes()), lib) }) })
		if err != nil {
			return nil, err
		}
		probe("netlist.structhash", func() { hash.time(func() { nl.StructuralHash() }) })
	}
	appendUS, err := probeAppend(ctx, ins, dir)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"power.estimate_ms":       est.mean(time.Millisecond),
		"sta.analysis_ms":         stat.mean(time.Millisecond),
		"partition.decompose_ms":  dec.mean(time.Millisecond),
		"transform.generate_ms":   gen.mean(time.Millisecond),
		"transform.analyze_ab_us": ab.mean(time.Microsecond),
		"transform.analyze_c_us":  cc.mean(time.Microsecond),
		"netlist.dead_cone_us":    cone.mean(time.Microsecond),
		"netlist.reaches_us":      reach.mean(time.Microsecond),
		"blif.write_ms":           wr.mean(time.Millisecond),
		"blif.read_ms":            rd.mean(time.Millisecond),
		"netlist.structhash_ms":   hash.mean(time.Millisecond),
		"store.append_us":         appendUS,
	}, nil
}

// probeAppend times store.AppendSubmit of the inputs' BLIF on a
// temporary journal (each append is written and fsynced).
func probeAppend(ctx context.Context, ins []*input, dir string) (float64, error) {
	_, sp := trace.StartSpan(ctx, "probe.store.append")
	defer sp.End()
	jdir := filepath.Join(dir, "append-probe")
	st, err := store.Open(store.Options{Dir: jdir, SnapshotEvery: 1 << 30, Log: discardLogger()})
	if err != nil {
		return 0, err
	}
	var t timer
	for i := 0; i < probeAppends; i++ {
		in := ins[i%len(ins)]
		rec := store.JobRecord{ID: fmt.Sprintf("p%06d", i), State: store.StateQueued, Circuit: in.name, Input: in.blif, SubmittedAt: time.Now()}
		t.time(func() { st.AppendSubmit(rec) })
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	if st.Degraded() {
		return 0, fmt.Errorf("append probe: journal degraded")
	}
	return t.mean(time.Microsecond), os.RemoveAll(jdir)
}

// serviceProbe measures the service layer on a workload that does not
// run through the daemon: each input is submitted once to an in-process
// service (no HTTP, no store) as a one-substitution job, and the median
// queue wait and run time of those jobs are returned in milliseconds.
func serviceProbe(ctx context.Context, ins []*input) (queueMS, runMS float64, err error) {
	_, sp := trace.StartSpan(ctx, "probe.service")
	defer sp.End()
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	var queue, run []float64
	for _, in := range ins {
		j, err := svc.Submit(in.blif, service.JobOptions{DelayLimitPct: -1, MaxSubstitutions: 1})
		if err != nil {
			return 0, 0, err
		}
		st := j.Status()
		for !st.State.Terminal() {
			time.Sleep(time.Millisecond)
			st = j.Status()
		}
		if st.State != service.StateCompleted || st.StartedAt == nil || st.FinishedAt == nil {
			return 0, 0, fmt.Errorf("service probe job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds()*1e3)
		run = append(run, st.FinishedAt.Sub(*st.StartedAt).Seconds()*1e3)
	}
	return median(queue), median(run), nil
}
