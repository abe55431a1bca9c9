package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powder/internal/atpg"
	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/sta"
	"powder/internal/transform"
)

// run is one optimization run: the master netlist and its power model,
// the Result and ledger under construction, the instrumentation, and the
// safety-net snapshots. Both engines drive the same stages on it.
type run struct {
	ctx        context.Context // root context: optimize span plus Timeout
	nl         *netlist.Netlist
	opts       *Options
	o          *obs.Observer
	ph         *obs.PhaseSet
	hooks      *faultinject.Hooks
	res        *Result
	led        *obs.Ledger
	pm         *power.Model
	constraint float64
	checker    *atpg.Checker
	master     *lane
	start      time.Time
	// input is the netlist as handed in; lastGood is the newest snapshot
	// proven equivalent to it, restored by a recovered panic.
	input, lastGood *netlist.Netlist
	verifyErr       error
	// Reused per-node power captures bracketing each commit; their diff
	// is the per-node attribution of the realized gain.
	perNodeBefore, perNodeAfter []float64
	// Parallel engine only: the shared refuted-miter cache and the
	// commit-conflict ledger.
	sig  *atpg.SigCache
	conf *obs.ConflictLedger
}

// newRun sets up the Result and the ledger; the input clone is trivially
// the last netlist known equivalent to the input.
func newRun(ctx context.Context, nl *netlist.Netlist, opts *Options) *run {
	o := opts.observer()
	opts.Power.Obs = o
	opts.Transform.Obs = o
	r := &run{
		ctx:   ctx,
		nl:    nl,
		opts:  opts,
		o:     o,
		ph:    obs.NewPhaseSet(),
		hooks: opts.Inject,
		start: time.Now(),
		input: nl.Clone(),
		res: &Result{
			ByClass: map[transform.Kind]*ClassStats{
				transform.OS2: {}, transform.IS2: {}, transform.OS3: {}, transform.IS3: {},
			},
			Rejects: map[string]int{},
			Stopped: StopCompleted,
		},
	}
	r.lastGood = r.input
	if opts.Parallelism > 1 {
		r.res.Parallel = &ParallelStats{Workers: opts.Parallelism}
	}
	// A nil ledger (when disabled) is a no-op on every method.
	if opts.LedgerLimit >= 0 {
		r.led = obs.NewLedger(opts.LedgerLimit)
	}
	return r
}

// estimate is the prologue after panic recovery is armed: the initial
// power and delay estimates, the delay constraint, the first progress
// report, and the master lane with its one-shot checker.
func (r *run) estimate() {
	opts, res := r.opts, r.res
	_, sp := r.phase(r.ctx, "power-estimate")
	r.pm = power.Estimate(r.nl, opts.Power)
	res.Initial = r.pm.Snapshot()
	sp.End()
	_, sp = r.phase(r.ctx, "delay-analysis")
	res.InitialDelay = sta.NewObserved(r.nl, 0, opts.InputDrive, r.o).Delay()
	sp.End()

	r.constraint = opts.DelayConstraint
	if opts.DelayFactor > 0 {
		r.constraint = res.InitialDelay * opts.DelayFactor
	}
	res.Constraint = r.constraint
	r.progress(false)

	// The checker reads the netlist at proof time, so one instance serves
	// the whole run.
	r.checker = atpg.NewChecker(r.nl)
	r.checker.Obs = r.o
	if opts.CheckBudget > 0 {
		r.checker.Budget = opts.CheckBudget
	}
	r.master = &lane{
		r: r, nl: r.nl, pm: r.pm, an: transform.NewAnalyzer(r.nl, r.pm), staObs: r.o,
		prover: oneShot{r.checker}, region: -1,
		rejects: res.Rejects, escal: &res.Escalation, retries: opts.MaxRetries,
		stopped: r.stopRequested,
	}
}

// finish is the shared epilogue: final estimates, validation, the result
// summary, the closing progress report and the optimize-done event.
func (r *run) finish() error {
	res, o := r.res, r.o
	_, sp := r.phase(r.ctx, "power-estimate")
	res.Final = r.pm.Snapshot()
	sp.End()
	_, sp = r.phase(r.ctx, "delay-analysis")
	res.FinalDelay = sta.NewObserved(r.nl, 0, r.opts.InputDrive, o).Delay()
	sp.End()
	addCheckStats(&res.CheckStats, r.checker.Stats)
	stop := r.ph.Start("validate")
	vErr := r.nl.Validate()
	stop()
	r.summarize()
	r.progress(true)
	if o.Tracing() {
		f := obs.Fields{
			"applied":         res.Applied,
			"harvests":        res.Harvests,
			"candidates":      res.Candidates,
			"power_initial":   res.Initial.Power,
			"power_final":     res.Final.Power,
			"reduction_pct":   res.PowerReductionPct(),
			"runtime_seconds": res.Runtime.Seconds(),
			"stopped":         string(res.Stopped),
			"rollbacks":       res.Rejects[RejectRollback],
			"escalations":     res.Escalation.Retries,
		}
		if par := res.Parallel; par != nil {
			f["parallelism"] = par.Workers
			f["rounds"] = par.Rounds
			f["conflicts"] = par.Conflicts
			f["replays"] = par.Replays
			f["sigcache_hits"] = par.SigCacheHits
		}
		o.Emit("optimize-done", f)
	}
	if r.verifyErr != nil {
		return r.verifyErr
	}
	if vErr != nil {
		// Unreachable with the transactional commit in place, but if the
		// invariants are somehow broken, hand back the last verified
		// snapshot rather than a corrupt netlist.
		r.nl.RestoreFrom(r.lastGood)
		return fmt.Errorf("core: netlist invalid after optimization: %v (restored last verified snapshot)", vErr)
	}
	return nil
}

// summarize stamps the run totals: runtime, phases, and the ledger summary
// with the workload activity model its gains were computed under.
func (r *run) summarize() {
	r.res.Runtime = time.Since(r.start)
	r.res.Phases = r.ph.Snapshot()
	r.res.Ledger = r.led.Summary()
	if r.res.Ledger != nil {
		r.res.Ledger.Activity = r.opts.Activity
	}
}

// restoreOnPanic is the run-level panic recovery: the netlist goes back to
// the last verified snapshot and the panic becomes the run's error.
func (r *run) restoreOnPanic(err *error) {
	p := recover()
	if p == nil {
		return
	}
	r.nl.RestoreFrom(r.lastGood)
	r.res.Stopped = StopPanic
	r.summarize()
	// Best-effort final numbers for the restored netlist; a second panic
	// here must not mask the restore.
	func() {
		defer func() { _ = recover() }()
		r.res.Final = power.Estimate(r.nl, r.opts.Power).Snapshot()
		r.res.FinalDelay = sta.NewObserved(r.nl, 0, r.opts.InputDrive, nil).Delay()
	}()
	*err = fmt.Errorf("core: recovered panic in optimization: %v (netlist restored to last verified snapshot)", p)
}

// progress delivers a run snapshot to Options.Progress.
func (r *run) progress(done bool) {
	if r.opts.Progress == nil {
		return
	}
	r.opts.Progress(Progress{
		Applied:      r.res.Applied,
		Harvests:     r.res.Harvests,
		Candidates:   r.res.Candidates,
		InitialPower: r.res.Initial.Power,
		Power:        r.pm.Total(),
		Done:         done,
	})
}

// stopRequested reports (and records) context expiry; every loop
// boundary consults it so cancellation never interrupts an edit.
func (r *run) stopRequested() bool {
	if r.ctx.Err() == nil {
		return false
	}
	if r.res.Stopped == StopCompleted {
		if errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
			r.res.Stopped = StopDeadline
		} else {
			r.res.Stopped = StopCancelled
		}
		r.o.Emit("stopped", obs.Fields{"reason": string(r.res.Stopped), "applied": r.res.Applied})
	}
	return true
}

// phaseSpan is a phase timer and a trace span over one interval.
type phaseSpan struct {
	*trace.Span
	stop func()
}

// End stops the timer and ends the span.
func (p phaseSpan) End() {
	p.stop()
	p.Span.End()
}

// phase opens the named phase timer together with a span of that name.
func (r *run) phase(ctx context.Context, name string) (context.Context, phaseSpan) {
	ctx, sp := trace.StartSpan(ctx, name)
	return ctx, phaseSpan{Span: sp, stop: r.ph.Start(name)}
}

// reject discards a selected candidate: its reason is counted in counts
// (the run's Rejects, or a worker's own map merged at the round
// barrier), recorded in the ledger with the proof when the candidate
// reached the checker, and emitted as an event. region is the parallel
// engine's 0-based region, or -1 on the sequential engine.
func (r *run) reject(counts map[string]int, region int, reason string, s *transform.Substitution, proof *obs.LedgerProof) {
	counts[reason]++
	r.o.Counter("core.rejects." + reason).Inc()
	if r.led != nil {
		r.led.Record(obs.LedgerAttempt{
			Kind:          s.Kind.String(),
			Target:        s.TargetString(),
			Source:        s.SourceString(),
			PredictedGain: s.Gain(),
			Outcome:       obs.LedgerRejected,
			Reason:        reason,
			Proof:         proof,
			Region:        region + 1,
		})
		r.o.Counter("core.ledger.attempts").Inc()
	}
	if r.o.Tracing() {
		r.o.Emit("reject", withRegion(region, obs.Fields{"reason": reason, "kind": s.Kind.String(), "sub": s.String()}))
	}
}

// withRegion adds the region to the event fields of the parallel engine.
func withRegion(region int, f obs.Fields) obs.Fields {
	if region >= 0 {
		f["region"] = region
	}
	return f
}

// startCandidate opens the span of one selected candidate; its proof,
// escalation steps and apply nest under it.
func startCandidate(ctx context.Context, s *transform.Substitution, region int) (context.Context, *trace.Span) {
	ctx, sp := trace.StartSpan(ctx, "candidate")
	sp.SetAttr("kind", s.Kind.String())
	sp.SetAttr("sub", s.String())
	sp.SetAttr("gain", s.Gain())
	if region >= 0 {
		sp.SetAttr("region", region)
	}
	return ctx, sp
}

// endCandidate stamps a candidate span's outcome and ends it.
func endSpan(sp *trace.Span, outcome string) {
	sp.SetAttr("outcome", outcome)
	sp.End()
}

// commit performs one proven substitution on the master netlist as a
// transaction: snapshot the primary-output signatures, apply inside an
// edit transaction, then re-validate the structural invariants and
// re-simulate the signatures. Any damage — a buggy transform, an injected
// corruption, a panic in the apply path — rolls the transaction back. An
// applied move updates the ledger, timing, class stats and progress, then
// the substitution cap and the safety net are checked. commit ends the
// candidate span sp and returns the apply result (nil when the move was
// rolled back) and whether the run must stop.
func (r *run) commit(ctx context.Context, sp *trace.Span, s *transform.Substitution, proof *obs.LedgerProof, region int) (*transform.ApplyResult, bool) {
	nl, pm, hooks, o, res := r.nl, r.pm, r.hooks, r.o, r.res
	if hooks != nil && hooks.Panic != nil && hooks.Panic(res.Applied) {
		panic(fmt.Sprintf("faultinject: injected panic after %d substitutions", res.Applied))
	}
	// Bracket the apply with power captures: their difference is the
	// realized gain, and the per-node diff is its attribution over the
	// touched cone. Simulation is deterministic, so the realized gains of
	// the applied moves telescope exactly to the headline Initial.Power -
	// Final.Power (rollbacks restore prior values).
	var pBefore float64
	if r.led != nil {
		pBefore = pm.Total()
		r.perNodeBefore = pm.PerNode(r.perNodeBefore)
	}
	preSig := poSignatures(pm, nl)
	_, aSpan := trace.StartSpan(ctx, "apply")
	txn := nl.Begin()
	stop := r.ph.Start("apply")
	applied, err := transform.ApplySafe(nl, s)
	stop()
	reason := RejectApplyConflict
	if err == nil && hooks != nil && hooks.CorruptApply != nil {
		if cerr := hooks.CorruptApply(nl, res.Applied); cerr != nil {
			err, reason = cerr, RejectRollback
		}
	}
	if err == nil {
		stop = r.ph.Start("validate")
		if verr := nl.Validate(); verr != nil {
			err, reason = verr, RejectRollback
		}
		stop()
	}
	if err == nil {
		stop = r.ph.Start("power-resync")
		pm.Resync()
		stop()
		if !sameSignatures(preSig, poSignatures(pm, nl)) {
			err = fmt.Errorf("core: primary-output signatures changed after apply of %v", s)
			reason = RejectRollback
		}
	}
	if err != nil {
		txn.Rollback()
		endSpan(aSpan, reason)
		stop = r.ph.Start("power-resync")
		pm.Resync()
		stop()
		r.reject(res.Rejects, region, reason, s, proof)
		if o.Tracing() {
			o.Emit("rollback", withRegion(region, obs.Fields{"sub": s.String(), "error": err.Error()}))
		}
		endSpan(sp, reason)
		return nil, false
	}
	txn.Commit()
	endSpan(aSpan, "applied")
	if r.led != nil {
		pAfter := pm.Total()
		r.perNodeAfter = pm.PerNode(r.perNodeAfter)
		r.led.Record(obs.LedgerAttempt{
			Kind:          s.Kind.String(),
			Target:        s.TargetString(),
			Source:        s.SourceString(),
			PredictedGain: s.Gain(),
			Outcome:       obs.LedgerApplied,
			Proof:         proof,
			PowerBefore:   pBefore,
			PowerAfter:    pAfter,
			RealizedGain:  pBefore - pAfter,
			Cone:          coneDeltas(nl, r.perNodeBefore, r.perNodeAfter),
			Region:        region + 1,
		})
		o.Counter("core.ledger.attempts").Inc()
		o.Counter("core.ledger.applied").Inc()
		o.Histogram("core.ledger.realized_gain").Observe(pBefore - pAfter)
	}
	r.master.refreshTiming()
	cs := res.ByClass[s.Kind]
	cs.Count++
	cs.PowerGain += s.Gain()
	cs.AreaDelta += s.AreaDelta
	res.Applied++
	o.Counter("core.applied").Inc()
	o.Histogram("core.apply.gain").Observe(s.Gain())
	if o.Tracing() {
		o.Emit("apply", withRegion(region, obs.Fields{
			"sub":        s.String(),
			"kind":       s.Kind.String(),
			"gain":       s.Gain(),
			"area_delta": s.AreaDelta,
			"applied":    res.Applied,
		}))
	}
	endSpan(sp, "applied")
	r.progress(false)
	if r.opts.MaxSubstitutions > 0 && res.Applied >= r.opts.MaxSubstitutions {
		res.Stopped = StopMaxSubs
		return applied, true
	}
	// Safety-net refresh: periodically re-prove the current netlist
	// equivalent to the input and advance the last-good snapshot. Runs
	// after the substitution-cap check so a run that just hit its cap
	// does not pay for a proof whose snapshot is never used.
	if r.opts.VerifyEvery > 0 && res.Applied%r.opts.VerifyEvery == 0 && r.ctx.Err() == nil {
		return applied, !r.safetyVerify()
	}
	return applied, false
}

// safetyVerify proves the master equivalent to the input and advances
// the last-good snapshot; an aborted proof keeps the previous one. A
// refutation means a checker or apply bug slipped through every other
// net: the last verified state is restored and safetyVerify returns
// false to stop the run.
func (r *run) safetyVerify() bool {
	ctx, sp := r.phase(r.ctx, "safety-verify")
	eq, err := atpg.EquivalentCtx(ctx, r.input, r.nl, 0)
	sp.End()
	switch {
	case err == nil && eq.Verdict == atpg.Permissible:
		r.lastGood = r.nl.Clone()
		r.res.SafetyRefreshes++
		r.o.Counter("core.safety.refresh").Inc()
	case err == nil && eq.Verdict == atpg.NotPermissible:
		r.nl.RestoreFrom(r.lastGood)
		r.pm.Resync()
		r.verifyErr = fmt.Errorf("core: periodic verification refuted equivalence on output %q; restored last verified snapshot", eq.DifferingOutput)
		return false
	}
	return true
}

// lane is the netlist one greedy loop works on, with what it owns: the
// master netlist on the sequential engine (and for the parallel
// master's re-proofs), or a region worker's replica. A worker lane keeps
// its own reject counts, escalation stats and retry quota, so a fixed
// -par N never depends on scheduling.
type lane struct {
	r      *run
	nl     *netlist.Netlist
	pm     *power.Model
	an     *transform.Analyzer
	staObs *obs.Observer // nil on replicas
	timing *sta.Analysis // nil when unconstrained
	prover prover
	// region is the worker's 0-based region, -1 on the master.
	region  int
	rejects map[string]int
	escal   *EscalationStats
	retries int
	stopped func() bool
}

// harvest is get_candidate_substitutions plus the cheap PG_A+PG_B score
// of every candidate.
func (l *lane) harvest(ctx context.Context, cfg transform.Config) []*transform.Substitution {
	_, sp := l.r.phase(ctx, "harvest")
	cands := transform.Generate(l.nl, l.pm, cfg)
	sp.SetAttr("candidates", len(cands))
	sp.End()
	if len(cands) > 0 {
		stop := l.r.ph.Start("ab-analysis")
		for _, s := range cands {
			l.an.AnalyzeAB(s)
		}
		stop()
	}
	return cands
}

// refreshTiming rebuilds the lane's timing analysis under the delay
// constraint (a no-op when unconstrained).
func (l *lane) refreshTiming() {
	if l.r.constraint <= 0 {
		return
	}
	stop := l.r.ph.Start("delay-analysis")
	l.timing = sta.NewObserved(l.nl, l.r.constraint, l.r.opts.InputDrive, l.staObs)
	stop()
}

// delayOK is increases_delay negated: whether s keeps the lane's netlist
// within the delay constraint.
func (l *lane) delayOK(s *transform.Substitution) bool {
	if l.timing == nil {
		return true
	}
	stop := l.r.ph.Start("delay-check")
	defer stop()
	return transform.DelayOK(l.nl, s, l.timing)
}

// accept performs a proven substitution: commit on the master, apply to
// the replica and propose in a worker. It ends the candidate span and
// reports whether s was performed and whether the run must stop.
type accept func(ctx context.Context, sp *trace.Span, s *transform.Substitution, proof *obs.LedgerProof, support []netlist.NodeID) (ok, stop bool)

// greedy is one repeat window of Figure 5 over cands: pre-select the best
// PG_A+PG_B candidates, re-estimate PG_C for those (paper Section 3.5),
// stop below MinGain, then delay check, proof and accept for the winner,
// and refresh the survivors' stale AB gains after every performed move.
// It reports whether any move was performed and whether the run must
// stop.
func (l *lane) greedy(ctx context.Context, cands []*transform.Substitution, accept accept) (progress, stop bool) {
	opts, ph := l.r.opts, l.r.ph
	for repeat := opts.Repeat; repeat > 0 && len(cands) > 0; {
		if l.stopped() {
			return progress, true
		}
		k := opts.PreselectK
		if opts.DisablePreselect || k > len(cands) {
			k = len(cands)
		}
		done := ph.Start("preselect")
		partialSelectByGainAB(cands, k)
		done()
		var best *transform.Substitution
		bestIdx := -1
		for i, s := range cands[:k] {
			done = ph.Start("preselect")
			valid := candidateValid(l.nl, s)
			done()
			if !valid {
				continue
			}
			done = ph.Start("pgc-reestimate")
			l.an.AnalyzeC(s)
			done()
			if best == nil || s.Gain() > best.Gain() {
				best, bestIdx = s, i
			}
		}
		if best == nil || best.Gain() <= opts.MinGain {
			// No power-reducing substitution in this harvest; a fresh
			// harvest may still find some after the structural changes.
			if best != nil {
				l.reject(RejectLowGain, best, nil)
			}
			break
		}
		// Drop the candidate from the pool whatever happens next.
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)

		cctx, sp := startCandidate(ctx, best, l.region)
		if !l.delayOK(best) {
			l.reject(RejectDelay, best, nil)
			endSpan(sp, RejectDelay)
			continue
		}
		verdict, support, proof := l.prove(cctx, best)
		if verdict != atpg.Permissible {
			reason := rejectReason(verdict)
			l.reject(reason, best, proof)
			endSpan(sp, reason)
			continue
		}
		ok, halt := accept(cctx, sp, best, proof, support)
		if halt {
			return true, true
		}
		if !ok {
			continue
		}
		progress = true
		repeat--

		// Stale AB gains are refreshed for the surviving candidates; this
		// keeps the pre-selection meaningful within the repeat window
		// without a full re-harvest.
		done = ph.Start("ab-analysis")
		kept := cands[:0]
		for _, s := range cands {
			if candidateValid(l.nl, s) {
				l.an.AnalyzeAB(s)
				kept = append(kept, s)
			} else {
				l.rejects[RejectStale]++
				l.r.o.Counter("core.rejects." + RejectStale).Inc()
				l.r.led.CountReject(RejectStale)
			}
		}
		cands = kept
		done()
	}
	return progress, false
}

// reject records a rejection in the lane's own counts.
func (l *lane) reject(reason string, s *transform.Substitution, proof *obs.LedgerProof) {
	l.r.reject(l.rejects, l.region, reason, s, proof)
}

// rejectReason names the reject of a verdict that is not Permissible.
func rejectReason(v atpg.Verdict) string {
	if v == atpg.Aborted {
		return RejectAborted
	}
	return RejectRefuted
}

// prove is check_candidate: one proof of s (an abort counts as not
// permissible). While the lane's retry quota lasts, an aborted proof
// climbs the escalation ladder — budget ×escalationFactor per step, at
// most escalationSteps steps. prove returns the final verdict, the
// proof's support set (nil from the one-shot checker) and the ledger
// record of the SAT effort summed over all steps.
func (l *lane) prove(ctx context.Context, s *transform.Substitution) (atpg.Verdict, []netlist.NodeID, *obs.LedgerProof) {
	proof := &obs.LedgerProof{}
	verdict, support := l.check(ctx, s, proof)
	if verdict == atpg.Aborted && l.retries > 0 && ctx.Err() == nil {
		a := l.prover.accounting()
		base := a.Budget
		for step := 1; step <= escalationSteps && verdict == atpg.Aborted && l.retries > 0 && ctx.Err() == nil; step++ {
			a.Budget *= escalationFactor
			l.retries--
			l.escal.Retries++
			l.r.o.Counter("core.escalation.retries").Inc()
			// Each retry gets its own child span so a ladder is visible
			// as stacked re-proofs under the candidate.
			ectx, sp := trace.StartSpan(ctx, "escalate")
			sp.SetAttr("step", step)
			sp.SetAttr("budget", a.Budget)
			verdict, support = l.check(ectx, s, proof)
			proof.Escalations++
			sp.SetAttr("verdict", verdict.String())
			sp.End()
		}
		outcome := "exhausted"
		switch verdict {
		case atpg.Permissible:
			l.escal.Permissible++
			outcome = "permissible"
		case atpg.NotPermissible:
			l.escal.Refuted++
			outcome = "refuted"
		default:
			l.escal.Exhausted++
		}
		l.r.o.Counter("core.escalation." + outcome).Inc()
		if l.r.o.Tracing() {
			l.r.o.Emit("escalate", withRegion(l.region, obs.Fields{
				"sub":          s.String(),
				"verdict":      verdict.String(),
				"budget":       a.Budget,
				"retries_left": l.retries,
			}))
		}
		a.Budget = base
	}
	proof.Verdict = verdict.String()
	return verdict, support, proof
}

// check runs one proof of s under ctx and folds its SAT effort into
// proof; the ForceAbort hook may override the verdict.
func (l *lane) check(ctx context.Context, s *transform.Substitution, proof *obs.LedgerProof) (atpg.Verdict, []netlist.NodeID) {
	a := l.prover.accounting()
	a.Ctx = ctx
	stop := l.r.ph.Start("atpg-check")
	verdict, support := l.prover.prove(s)
	stop()
	d := a.LastCheck
	proof.Conflicts += d.Conflicts
	proof.Decisions += d.Decisions
	proof.Seconds += d.Seconds
	proof.Budget = d.Budget
	if h := l.r.hooks; h != nil && h.ForceAbort != nil && h.ForceAbort(a.Stats.Checks) {
		verdict = atpg.Aborted
	}
	return verdict, support
}

// prover is a permissibility checker as the proof stage sees it.
type prover interface {
	// prove checks s against the lane's netlist, returning the verdict
	// and the proof's support set.
	prove(s *transform.Substitution) (atpg.Verdict, []netlist.NodeID)
	// accounting is the checker's budget, context and statistics.
	accounting() *atpg.Accounting
}

// oneShot is the master's prover: the one-shot atpg.Checker, which has
// no support sets.
type oneShot struct{ *atpg.Checker }

func (c oneShot) prove(s *transform.Substitution) (atpg.Verdict, []netlist.NodeID) {
	if s.IsBranchSub() {
		return c.CheckBranch(s.G, s.Pin, s.Src), nil
	}
	return c.CheckStem(s.A, s.Src), nil
}

func (c oneShot) accounting() *atpg.Accounting { return &c.Accounting }
