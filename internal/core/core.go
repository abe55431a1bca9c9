// Package core implements POWDER, the paper's power optimization algorithm
// (Figure 5): a greedy sequence of permissible signal substitutions, each
// selected for maximum estimated power gain, optionally under a delay
// constraint.
//
// One optimization round:
//
//	power_estimate(netlist)
//	do {
//	  cand = get_candidate_substitutions(netlist)      // transform.Generate
//	  while repeat > 0 && cand != {} {
//	    good = select_power_red_subst(cand)            // PG_A+PG_B pre-select, PG_C reestimate
//	    if increases_delay(good) continue              // transform.DelayOK
//	    if !check_candidate(good) continue             // atpg.Checker (abort => reject)
//	    perform_substitution(good)                     // transform.Apply
//	    power_estimate_update(good)                    // power.Model refresh
//	  }
//	} while cand != {}
//
// The package writes each stage once (pipeline.go) and drives it with two
// engines. A run owns the shared prologue and epilogue; lane.greedy is the
// repeat window above, with lane.prove as check_candidate and its budget
// escalation ladder; run.commit performs a substitution on the master as
// one transaction. The sequential engine (Parallelism <= 1) runs greedy on
// the master and commits every accepted move. The parallel engine
// (parallel.go) runs greedy on region replicas, where accepting applies to
// the replica and emits a proposal, and then commits the proposals through
// the same run.commit. TestEngineGolden pins both engines' output.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"powder/internal/atpg"
	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/transform"
)

// Options configures one POWDER run.
type Options struct {
	// DelayConstraint is an absolute required time at the primary outputs;
	// <= 0 disables it unless DelayFactor is set.
	DelayConstraint float64
	// DelayFactor, when positive, sets the constraint to
	// initial_delay * DelayFactor (1.0 reproduces the paper's "with delay
	// constraints" mode; 1.2 allows a 20% delay increase, matching the
	// labels of the paper's Figure 6).
	DelayFactor float64
	// Repeat is the number of substitutions performed per candidate
	// harvest (the paper's `repeat` parameter). Default 10.
	Repeat int
	// PreselectK is how many of the best PG_A+PG_B candidates receive the
	// expensive PG_C reestimation per selection. Default 12.
	PreselectK int
	// DisablePreselect reestimates PG_C for every candidate (the ablation
	// of the paper's pre-selection heuristic).
	DisablePreselect bool
	// MinGain is the smallest acceptable power gain; selection stops when
	// no candidate exceeds it. Default 1e-9.
	MinGain float64
	// MaxSubstitutions caps the total number of performed substitutions
	// (0 = unlimited).
	MaxSubstitutions int
	// CheckBudget is the conflict budget per permissibility proof
	// (0 = checker default). Budget exhaustion rejects the candidate.
	CheckBudget int64
	// MaxRetries is the per-run quota of budget-escalation retries: when
	// a proof aborts on budget exhaustion, the candidate is re-proved
	// with a geometrically larger budget (×4 per step, at most 3 steps
	// per candidate) until the quota runs out. 0 disables escalation and
	// aborted candidates are rejected immediately, as in the paper.
	MaxRetries int
	// Timeout is the wall-clock budget of the whole run; when it
	// expires the run stops cleanly — in-flight SAT proofs are
	// interrupted, no substitution is left half-applied, and Result
	// reports the best netlist found so far with Stopped set. 0 means
	// no deadline (an externally cancelled context behaves the same).
	Timeout time.Duration
	// Parallelism is the worker count of the intra-circuit parallel
	// engine: the netlist is decomposed into that many fanout regions
	// (internal/partition) and harvest/analysis/proving run concurrently
	// per region on replica netlists, with applies serialized through the
	// transactional journal on the master (see parallel.go). <= 1 runs
	// the sequential engine on the master netlist alone.
	Parallelism int
	// VerifyEvery refreshes the last-good safety-net snapshot after
	// this many applied substitutions by proving the current netlist
	// equivalent to the input (atpg.Equivalent). The snapshot is what a
	// recovered panic restores. 0 uses the default of 25; negative
	// disables periodic refresh (the input itself remains the
	// safety-net snapshot).
	VerifyEvery int
	// Inject carries fault-injection hooks for robustness tests; nil
	// (the production configuration) disables all injection.
	Inject *faultinject.Hooks
	// InputDrive is the drive resistance assumed for primary inputs in the
	// timing model; extra load on an input then shifts its arrival time.
	// Zero models ideal input drivers.
	InputDrive float64
	// Power configures the probability estimation.
	Power power.Options
	// Activity describes the workload activity model behind
	// Power.InputProbs/InputToggles, recorded in the run ledger so
	// realized gains are attributed under the model that produced them.
	// Empty means the uniform temporal-independence assumption.
	Activity string
	// Transform configures candidate generation.
	Transform transform.Config
	// LedgerLimit bounds the run ledger's retained entries per outcome
	// class (applied moves and rejected attempts are bounded
	// independently, so a reject flood cannot evict the attribution
	// table). 0 uses the default of 4096; negative disables the ledger
	// entirely, leaving Result.Ledger nil.
	LedgerLimit int
	// Obs, when non-nil, receives structured run events (harvest, check,
	// apply, reject with reason codes) and per-phase metrics. A nil
	// observer disables all event construction at near-zero cost.
	Obs *obs.Observer
	// Progress, when non-nil, receives a compact run snapshot after the
	// initial estimates, after every applied substitution, and once more
	// when the run ends (Done set). It is invoked synchronously on the
	// optimization goroutine — callbacks must be fast and must not touch
	// the netlist. Serving layers use it to publish live job status.
	Progress func(Progress)
	// Trace, when non-nil, receives one line per performed substitution.
	// Deprecated compatibility adapter: it is wired onto the event sink;
	// prefer Obs for structured events.
	Trace func(string)
}

// observer returns the effective observer: Obs, plus the legacy Trace
// callback adapted as a sink that renders apply events in the historical
// "apply <substitution>" line format.
func (o *Options) observer() *obs.Observer {
	eff := o.Obs
	if o.Trace != nil {
		tr := o.Trace
		eff = obs.Tee(eff, obs.New(obs.SinkFunc(func(e obs.Event) {
			if e.Name == "apply" {
				tr(fmt.Sprintf("apply %v", e.Fields["sub"]))
			}
		}), nil))
	}
	return eff
}

func (o *Options) normalize() {
	if o.Repeat <= 0 {
		o.Repeat = 10
	}
	if o.PreselectK <= 0 {
		o.PreselectK = 12
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-9
	}
	if o.VerifyEvery == 0 {
		o.VerifyEvery = 25
	}
}

// ClassStats aggregates the effect of one substitution class, feeding the
// paper's Table 2.
type ClassStats struct {
	Count     int
	PowerGain float64
	AreaDelta float64
}

// Reject reason codes recorded in Result.Rejects and emitted on "reject"
// events.
const (
	// RejectStale marks candidates invalidated by an earlier substitution
	// (nodes removed or rewired, or a cycle would form).
	RejectStale = "stale"
	// RejectLowGain marks the selection stopping because the best
	// remaining candidate's gain fell below MinGain.
	RejectLowGain = "low-gain"
	// RejectDelay marks candidates that would violate the delay
	// constraint.
	RejectDelay = "delay"
	// RejectRefuted marks candidates the exact ATPG check disproved.
	RejectRefuted = "refuted"
	// RejectAborted marks candidates whose proof exhausted the budget
	// (treated as not permissible, per the paper).
	RejectAborted = "aborted"
	// RejectApplyConflict marks candidates whose application failed due a
	// structural conflict with an earlier substitution.
	RejectApplyConflict = "apply-conflict"
	// RejectRollback marks candidates whose application was undone by
	// the transactional apply protocol: the post-apply re-validation
	// (netlist invariants or primary-output signature re-simulation)
	// detected damage and the edit was rolled back.
	RejectRollback = "rollback"
)

// Progress is the point-in-time run snapshot delivered to
// Options.Progress.
type Progress struct {
	// Applied is the number of substitutions performed so far.
	Applied int `json:"applied"`
	// Harvests is the number of candidate harvests completed so far.
	Harvests int `json:"harvests"`
	// Candidates is the total number of candidates examined so far.
	Candidates int `json:"candidates"`
	// InitialPower is the power estimate of the input circuit.
	InitialPower float64 `json:"initial_power"`
	// Power is the current power estimate.
	Power float64 `json:"power"`
	// Done is set on the final callback of the run.
	Done bool `json:"done"`
}

// StopReason explains why an optimization run ended.
type StopReason string

const (
	// StopCompleted is the normal termination: no further
	// power-reducing substitution exists.
	StopCompleted StopReason = "completed"
	// StopMaxSubs means the MaxSubstitutions cap was reached.
	StopMaxSubs StopReason = "max-substitutions"
	// StopDeadline means the Timeout (or an ancestor context deadline)
	// expired; the result holds the best netlist found so far.
	StopDeadline StopReason = "deadline"
	// StopCancelled means the caller's context was cancelled (e.g.
	// Ctrl-C); the result holds the best netlist found so far.
	StopCancelled StopReason = "cancelled"
	// StopPanic means a panic in the optimization path was recovered
	// and the netlist was restored to the last verified snapshot.
	StopPanic StopReason = "panic"
)

// EscalationStats records the adaptive proof-budget activity of one
// run: how often aborted proofs were retried with escalated budgets and
// what the retries decided.
type EscalationStats struct {
	// Retries counts escalated re-proofs attempted.
	Retries int `json:"retries"`
	// Permissible counts candidates recovered to a permissible verdict.
	Permissible int `json:"permissible"`
	// Refuted counts candidates an escalated proof disproved.
	Refuted int `json:"refuted"`
	// Exhausted counts candidates still aborted when the per-candidate
	// cap or the run quota ran out.
	Exhausted int `json:"exhausted"`
}

// Budget-escalation policy: each retry multiplies the proof budget by
// escalationFactor, at most escalationSteps times per candidate.
const (
	escalationFactor = 4
	escalationSteps  = 3
)

// Result summarizes an optimization run.
type Result struct {
	Initial      power.Report
	Final        power.Report
	InitialDelay float64
	FinalDelay   float64
	Constraint   float64 // 0 when unconstrained
	Applied      int
	Harvests     int
	Candidates   int // total candidates examined across harvests
	ByClass      map[transform.Kind]*ClassStats
	CheckStats   atpg.CheckStats
	Runtime      time.Duration
	// Phases is the wall-time breakdown of the run; its total accounts
	// for nearly all of Runtime.
	Phases obs.Phases
	// Rejects counts discarded candidates by reason code (the Reject*
	// constants).
	Rejects map[string]int
	// Stopped is why the run ended (StopCompleted for a full run).
	Stopped StopReason
	// Escalation summarizes the adaptive proof-budget retries.
	Escalation EscalationStats
	// SafetyRefreshes counts how often the last-good snapshot was
	// re-proved equivalent to the input and refreshed.
	SafetyRefreshes int
	// Ledger is the run's substitution-provenance record: every selected
	// attempt with its predicted gain, proof effort, and — for applied
	// moves — the realized power drop whose sum telescopes to
	// Initial.Power - Final.Power. Nil when Options.LedgerLimit < 0.
	Ledger *obs.LedgerSummary
	// Parallel summarizes the parallel engine's scheduling activity;
	// nil for sequential runs (Options.Parallelism <= 1).
	Parallel *ParallelStats
}

// ParallelStats summarizes one parallel run's region scheduling: how the
// work was partitioned and how often region-local proofs had to be
// re-examined at commit time.
type ParallelStats struct {
	// Workers is the configured Options.Parallelism.
	Workers int `json:"workers"`
	// Rounds counts the bulk-synchronous rounds executed.
	Rounds int `json:"rounds"`
	// Regions sums the region count over all rounds.
	Regions int `json:"regions"`
	// Proposals counts region-proven substitutions reaching the commit
	// phase.
	Proposals int `json:"proposals"`
	// Conflicts counts proposals whose proof support intersected nodes
	// touched by another region's committed edit (or whose region chain
	// broke), forcing a serial re-proof.
	Conflicts int `json:"conflicts"`
	// Replays counts serial re-proofs run at commit time.
	Replays int `json:"replays"`
	// SigCacheHits counts proofs short-circuited by the shared
	// refuted-miter signature cache.
	SigCacheHits int64 `json:"sigcache_hits"`
	// WorkerBusySeconds sums every region worker's wall time inside its
	// round (replica build through last proposal); ParallelSeconds sums
	// the concurrent-phase walls (first worker start to barrier clear),
	// so Workers*ParallelSeconds is the capacity the round structure
	// offered and BusyFrac is how much of it was used.
	WorkerBusySeconds float64 `json:"worker_busy_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	// CommitSeconds is the serial master-side commit wall time.
	CommitSeconds float64 `json:"commit_seconds"`
	// MaxBarrierSkewSeconds is the largest per-round gap between the
	// first and last worker to reach the round barrier — the
	// load-imbalance ceiling on speedup.
	MaxBarrierSkewSeconds float64 `json:"max_barrier_skew_seconds"`
	// ConflictLedger attributes commit conflicts to (region pair, node)
	// cells; nil when no conflicts were recorded.
	ConflictLedger *obs.ConflictSummary `json:"conflict_ledger,omitempty"`
}

// BusyFrac returns the mean worker utilization of the parallel phases:
// total worker busy time over the capacity Workers*ParallelSeconds
// (0 when nothing ran).
func (p *ParallelStats) BusyFrac() float64 {
	if p == nil || p.Workers == 0 || p.ParallelSeconds <= 0 {
		return 0
	}
	return p.WorkerBusySeconds / (float64(p.Workers) * p.ParallelSeconds)
}

// CommitShare returns the fraction of engine wall time spent in the
// serial commit phase — the Amdahl term that bounds parallel speedup.
func (p *ParallelStats) CommitShare() float64 {
	if p == nil {
		return 0
	}
	total := p.ParallelSeconds + p.CommitSeconds
	if total <= 0 {
		return 0
	}
	return p.CommitSeconds / total
}

// StoppedEarly reports whether the run ended before exhausting the
// candidate space (deadline, cancellation, or a recovered panic).
func (r *Result) StoppedEarly() bool {
	return r.Stopped == StopDeadline || r.Stopped == StopCancelled || r.Stopped == StopPanic
}

// PowerReductionPct returns the percentage power reduction.
func (r *Result) PowerReductionPct() float64 {
	if r.Initial.Power == 0 {
		return 0
	}
	return 100 * (r.Initial.Power - r.Final.Power) / r.Initial.Power
}

// AreaChangePct returns the percentage area change (negative = smaller).
func (r *Result) AreaChangePct() float64 {
	if r.Initial.Area == 0 {
		return 0
	}
	return 100 * (r.Final.Area - r.Initial.Area) / r.Initial.Area
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("power %.3f -> %.3f (-%.1f%%), area %.0f -> %.0f, delay %.2f -> %.2f, %d substitutions",
		r.Initial.Power, r.Final.Power, r.PowerReductionPct(),
		r.Initial.Area, r.Final.Area, r.InitialDelay, r.FinalDelay, r.Applied)
}

// Optimize runs POWDER on the netlist in place and returns the run summary.
// It is OptimizeCtx under a background context.
func Optimize(nl *netlist.Netlist, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), nl, opts)
}

// OptimizeCtx runs POWDER on the netlist in place and returns the run
// summary.
//
// The run is observable end to end: Result.Phases breaks the wall time
// into the pipeline phases (power-estimate, delay-analysis, harvest,
// ab-analysis, preselect, pgc-reestimate, delay-check, atpg-check, apply,
// power-resync, safety-verify, validate), Result.Rejects counts discarded
// candidates by reason code, and Options.Obs streams structured events
// while the run executes.
//
// Robustness guarantees:
//
//   - Cancelling ctx (or exceeding Options.Timeout) stops the run at the
//     next loop boundary — in-flight SAT proofs are interrupted within
//     microseconds of search — and returns the best netlist found so
//     far, never a half-applied state; Result.Stopped records the
//     reason.
//   - Every substitution is applied inside a netlist transaction and
//     re-validated (structural invariants plus a primary-output
//     signature re-simulation); damage rolls the transaction back and
//     the run continues, counting a "rollback" reject.
//   - A panic anywhere in the optimization path is recovered, the
//     netlist is restored to the last snapshot proven equivalent to the
//     input, and the panic is returned as an error.
func OptimizeCtx(ctx context.Context, nl *netlist.Netlist, opts Options) (res *Result, err error) {
	opts.normalize()
	// Root span of the run; every phase, candidate, proof, and SAT solve
	// below nests under it through the context. A context without a
	// tracer makes all of this free.
	ctx, optSpan := trace.StartSpan(ctx, "optimize")
	optSpan.SetAttr("circuit", nl.Name)
	if opts.Parallelism > 1 {
		optSpan.SetAttr("parallelism", opts.Parallelism)
	}
	defer func() {
		if res != nil {
			optSpan.SetAttr("applied", res.Applied)
			optSpan.SetAttr("harvests", res.Harvests)
			optSpan.SetAttr("stopped", string(res.Stopped))
			optSpan.SetAttr("reduction_pct", res.PowerReductionPct())
		}
		optSpan.End()
	}()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	r := newRun(ctx, nl, &opts)
	res = r.res
	defer r.restoreOnPanic(&err)
	r.estimate()
	if opts.Parallelism > 1 {
		r.parallel()
	} else {
		r.sequential()
	}
	return res, r.finish()
}

// sequential is the Parallelism <= 1 driver: harvest on the master, run
// one greedy repeat window committing every accepted move, and repeat
// until a whole harvest makes no progress.
func (r *run) sequential() {
	m := r.master
	commit := func(ctx context.Context, sp *trace.Span, s *transform.Substitution, proof *obs.LedgerProof, _ []netlist.NodeID) (bool, bool) {
		applied, stop := r.commit(ctx, sp, s, proof, -1)
		return applied != nil, stop
	}
	for !r.stopRequested() {
		cands := m.harvest(r.ctx, r.opts.Transform)
		r.res.Harvests++
		r.res.Candidates += len(cands)
		if len(cands) == 0 {
			return
		}
		m.refreshTiming()
		if progress, stop := m.greedy(r.ctx, cands, commit); stop || !progress {
			return
		}
	}
}

// coneLimit caps the per-move attribution entries the ledger retains;
// wider cones are folded into one exact "(other)" remainder entry.
const coneLimit = 32

// coneDeltas diffs two per-node power captures into the attribution of
// one applied substitution: which nodes gained or lost C(i)*E(i), largest
// magnitude first. The entries sum exactly to PowerBefore - PowerAfter.
func coneDeltas(nl *netlist.Netlist, before, after []float64) []obs.LedgerNodeDelta {
	n := len(before)
	if len(after) > n {
		n = len(after)
	}
	at := func(v []float64, i int) float64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	var deltas []obs.LedgerNodeDelta
	for i := 0; i < n; i++ {
		d := at(before, i) - at(after, i)
		if d == 0 {
			continue
		}
		name := ""
		if i < nl.NumNodes() {
			name = nl.Node(netlist.NodeID(i)).Name()
		}
		if name == "" {
			name = fmt.Sprintf("n%d", i)
		}
		deltas = append(deltas, obs.LedgerNodeDelta{Node: name, Delta: d})
	}
	sort.Slice(deltas, func(i, j int) bool {
		di, dj := deltas[i].Delta, deltas[j].Delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return deltas[i].Node < deltas[j].Node
	})
	if len(deltas) > coneLimit {
		rest := 0.0
		for _, d := range deltas[coneLimit:] {
			rest += d.Delta
		}
		deltas = append(deltas[:coneLimit], obs.LedgerNodeDelta{Node: "(other)", Delta: rest})
	}
	return deltas
}

// poSignatures captures the simulated value words of every primary
// output (masked to the valid vectors); a permissible substitution must
// leave them bit-identical.
func poSignatures(pm *power.Model, nl *netlist.Netlist) []uint64 {
	s := pm.Sim()
	sig := make([]uint64, 0, len(nl.Outputs())*s.Words())
	for _, po := range nl.Outputs() {
		for w, word := range s.Value(po.Driver) {
			sig = append(sig, word&s.ValidMask(w))
		}
	}
	return sig
}

// sameSignatures compares two signature captures.
func sameSignatures(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// partialSelectByGainAB moves the k highest-GainAB candidates to the front
// (selection is O(k*n), cheaper than a full sort for small k).
func partialSelectByGainAB(cands []*transform.Substitution, k int) {
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].GainAB > cands[maxJ].GainAB {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
}

// candidateValid re-checks a candidate against the current netlist state:
// earlier substitutions in the same harvest may have removed or rewired
// the nodes it references.
func candidateValid(nl *netlist.Netlist, s *transform.Substitution) bool {
	alive := func(id netlist.NodeID) bool {
		return id >= 0 && int(id) < nl.NumNodes() && !nl.Node(id).Dead()
	}
	if !alive(s.A) || !alive(s.Src.B) {
		return false
	}
	if s.Src.IsThree() && !alive(s.Src.C) {
		return false
	}
	var root netlist.NodeID
	if s.IsBranchSub() {
		if !alive(s.G) {
			return false
		}
		g := nl.Node(s.G)
		if s.Pin >= len(g.Fanins()) || g.Fanins()[s.Pin] != s.A {
			return false
		}
		root = s.G
	} else {
		if nl.Node(s.A).NumFanouts() == 0 {
			return false
		}
		root = s.A
	}
	// Cycle checks against the current structure (early-exit reachability,
	// not a full TFO: this runs for every surviving candidate after every
	// applied substitution).
	if nl.Reaches(root, s.Src.B) {
		return false
	}
	if s.Src.IsThree() && nl.Reaches(root, s.Src.C) {
		return false
	}
	if s.Src.InvertB && s.Inv == transform.InvReuse {
		if !alive(s.InvNode) || nl.Reaches(root, s.InvNode) {
			return false
		}
		inv := nl.Node(s.InvNode)
		if !inv.Cell().IsInverter() || inv.Fanins()[0] != s.Src.B {
			return false
		}
	}
	return true
}
