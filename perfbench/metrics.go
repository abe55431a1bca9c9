package main

import (
	"math"

	"powder/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0); they must
// match BENCHMARK.json's end_to_end list.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"optimize_s", "s"},
	{"cpu_s", "s"},
	{"power_reduction_pct", "%"},
	{"constr_power_reduction_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1), grouped by the
// layer they measure; they must match BENCHMARK.json's per_layer list.
var perLayer = []metricSpec{
	// Scoring.
	{"core.ab_analysis_s", "s"},
	{"core.harvest_s", "s"},
	{"core.stale_rejects", "count"},
	{"core.candidates", "count"},
	{"core.harvests", "count"},
	{"transform.generate_ms", "ms"},
	{"transform.analyze_ab_us", "us"},
	{"transform.analyze_c_us", "us"},
	{"netlist.dead_cone_us", "us"},
	{"netlist.reaches_us", "us"},
	// Proofs.
	{"core.atpg_check_s", "s"},
	{"atpg.checks", "count"},
	{"atpg.permissible", "count"},
	{"atpg.refuted", "count"},
	{"atpg.aborted", "count"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"atpg.check_p50_ms", "ms"},
	{"atpg.check_p90_ms", "ms"},
	{"core.proof_yield", "frac"},
	// Delay path.
	{"core.pgc_reestimate_s", "s"},
	{"core.delay_check_s", "s"},
	{"core.delay_rejects", "count"},
	{"sta.analysis_ms", "ms"},
	{"sta.rebuilds", "count"},
	// Power and simulation.
	{"power.estimate_ms", "ms"},
	{"core.power_resync_s", "s"},
	{"power.resyncs", "count"},
	// BSP engine.
	{"par.rounds", "count"},
	{"par.proposals", "count"},
	{"par.conflicts", "count"},
	{"par.replays", "count"},
	{"par.sigcache_hits", "count"},
	{"par.worker_busy_frac", "frac"},
	{"par.commit_share", "frac"},
	{"par.barrier_skew_frac", "frac"},
	{"partition.decompose_ms", "ms"},
	// Service.
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"store.cache_hits", "count"},
	{"store.cache_misses", "count"},
	{"store.append_us", "us"},
	{"client.retries", "count"},
	{"blif.read_ms", "ms"},
	{"blif.write_ms", "ms"},
	{"netlist.structhash_ms", "ms"},
	// Accounting.
	{"core.phase_sum_over_wall", "ratio"},
	{"trace_overhead_pct", "%"},
}

// withUnits attaches each spec's unit to the computed values. Every
// spec must have a finite value; a missing one is a benchmark bug.
func withUnits(specs []metricSpec, vals map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.name)
			v = 0
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, missing
}

// engineMetrics sums the engine's own accounting over the traced
// operations: Result phases, rejects, CheckStats and Parallel, plus the
// registry the operations reported into.
func engineMetrics(ops []*opRecord, reg *obs.Registry) map[string]float64 {
	m := map[string]float64{}
	phase := map[string]string{
		"ab-analysis":    "core.ab_analysis_s",
		"harvest":        "core.harvest_s",
		"atpg-check":     "core.atpg_check_s",
		"pgc-reestimate": "core.pgc_reestimate_s",
		"delay-check":    "core.delay_check_s",
		"power-resync":   "core.power_resync_s",
	}
	for _, name := range phase {
		m[name] = 0
	}
	for _, k := range []string{"par.rounds", "par.proposals", "par.conflicts", "par.replays", "par.sigcache_hits"} {
		m[k] = 0
	}
	var applied, phaseSum, wall float64
	var busy, capacity, commit, parWall float64
	for _, op := range ops {
		r := op.res
		if r == nil {
			continue
		}
		for _, ps := range r.Phases {
			if name, ok := phase[ps.Name]; ok {
				m[name] += ps.Seconds
			}
		}
		phaseSum += r.Phases.Seconds()
		wall += r.Runtime.Seconds()
		m["core.stale_rejects"] += float64(r.Rejects["stale"])
		m["core.delay_rejects"] += float64(r.Rejects["delay"])
		m["core.candidates"] += float64(r.Candidates)
		m["core.harvests"] += float64(r.Harvests)
		applied += float64(r.Applied)
		cs := r.CheckStats
		m["atpg.checks"] += float64(cs.Checks)
		m["atpg.permissible"] += float64(cs.Permissible)
		m["atpg.refuted"] += float64(cs.Refuted)
		m["atpg.aborted"] += float64(cs.Aborted)
		m["sat.conflicts"] += float64(cs.Conflicts)
		m["sat.decisions"] += float64(cs.Decisions)
		p := r.Parallel
		if p == nil {
			continue
		}
		m["par.rounds"] += float64(p.Rounds)
		m["par.proposals"] += float64(p.Proposals)
		m["par.conflicts"] += float64(p.Conflicts)
		m["par.replays"] += float64(p.Replays)
		m["par.sigcache_hits"] += float64(p.SigCacheHits)
		busy += p.WorkerBusySeconds
		capacity += float64(p.Workers) * p.ParallelSeconds
		commit += p.CommitSeconds
		parWall += p.ParallelSeconds
	}
	m["core.proof_yield"] = ratio(applied, m["atpg.checks"])
	m["core.phase_sum_over_wall"] = ratio(phaseSum, wall)
	m["par.worker_busy_frac"] = ratio(busy, capacity)
	m["par.commit_share"] = ratio(commit, parWall+commit)
	// Per-round skew (first to last worker at the barrier) summed over
	// rounds, as a share of the concurrent-phase wall: the part of it
	// lost to load imbalance.
	m["par.barrier_skew_frac"] = ratio(reg.Histogram("core.par.barrier.skew.seconds").Sum(), parWall)
	h := reg.Histogram("atpg.check.seconds")
	m["atpg.check_p50_ms"] = h.Quantile(0.5) * 1e3
	m["atpg.check_p90_ms"] = h.Quantile(0.9) * 1e3
	m["sta.rebuilds"] = float64(reg.Counter("sta.rebuilds").Value())
	m["power.resyncs"] = float64(reg.Counter("power.resyncs").Value())
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
