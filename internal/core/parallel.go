package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"powder/internal/atpg"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/partition"
	"powder/internal/power"
	"powder/internal/transform"
)

// The parallel engine is the second driver of the shared pipeline: it
// runs POWDER as bulk-synchronous rounds:
//
//	round:
//	  partition.Decompose(master, P)            // fanout regions
//	  per region, concurrently on a replica:    // master frozen
//	    lane.harvest (TargetFilter = region) -> lane.greedy with an
//	    incremental prover, accepting = apply on the replica and emit a
//	    proposal
//	  serially on the master, regions in order:
//	    translate proposal IDs, detect conflicts (proof support set vs
//	    nodes touched by other regions), re-prove conflicted proposals
//	    (lane.prove on the master), re-check delay, run.commit
//
// Workers never touch the master netlist: each one clones it (Clone is a
// pure read), estimates its own power model (deterministic, so replica
// values equal the master's), and proves candidates on a per-round
// incremental SAT solver seeded with the shared refuted-miter cache.
//
// Soundness of the conflict rule: a proof's support set (the duplicated
// region plus the fanin closure of everything its miter encoded) contains
// every node whose function or connectivity the verdict depends on. Any
// commit that changes connectivity marks both endpoints of every changed
// edge as touched, so if no support node of a pending proposal is touched
// by another region, the miter the master would build now is isomorphic
// to the one the replica proved, and the verdict carries over. Proposals
// from the same region skip their own region's touches — the replica
// already reflects them — but once one proposal of a region fails to
// commit, the region's chain is broken and every later proposal of that
// region is re-proved.
//
// Determinism: regions commit in region order and proposals in proposal
// order, and decomposition, replica construction, harvesting, and
// selection are all deterministic, so a fixed -par P produces a
// deterministic result up to proof-budget boundary effects (a shared
// cache hit can change how much learning a later borderline proof starts
// with). -par 1 never enters this driver.

// proposal is one region-proven substitution awaiting serial commit. All
// node IDs are in the proposing replica's space, which coincides with the
// master's for nodes that existed at round start; nodes the replica added
// are translated through the region's commit ID map.
type proposal struct {
	sub     *transform.Substitution
	proof   *obs.LedgerProof
	support []netlist.NodeID
	added   []netlist.NodeID // replica IDs of the nodes the replica apply added
}

// workerReport is one region worker's round output, merged into the run
// result on the main goroutine after the round barrier.
type workerReport struct {
	region     int
	proposals  []proposal
	candidates int
	rejects    map[string]int
	stats      atpg.CheckStats
	escal      EscalationStats
	err        error // recovered worker panic
	// start/end bound the worker's busy interval; the master derives
	// utilization, barrier skew, and the retroactive barrier-wait spans
	// from them after the round barrier.
	start, end time.Time
}

// touchMark records which region first touched a node this round; shared
// is set when a second region touches it, after which any support hit
// conflicts regardless of region.
type touchMark struct {
	region int
	shared bool
}

// workerTrack names a region worker's timeline lane; the master's
// commit work renders on masterTrack. Perfetto shows one row per lane.
func workerTrack(region int) string { return fmt.Sprintf("worker-%d", region) }

const masterTrack = "master"

// parallel is the Parallelism > 1 driver; see the comment above for the
// round structure. Its commits go through the same transactional commit
// as the sequential engine's, so rollback on damage, periodic safety-net
// verification, prompt stops and panic recovery hold alike.
func (r *run) parallel() {
	nl, opts, o, res := r.nl, r.opts, r.o, r.res
	par := res.Parallel
	r.sig = atpg.NewSigCache()
	r.conf = obs.NewConflictLedger(0)
	r.master.refreshTiming()

	for round := 1; !r.stopRequested(); round++ {
		par.Rounds++
		o.Counter("core.par.rounds").Inc()
		baseNodes := netlist.NodeID(nl.NumNodes())
		d := partition.Decompose(nl, opts.Parallelism)
		par.Regions += len(d.Regions)
		rctx, rSpan := trace.StartSpan(r.ctx, "round")
		rSpan.SetAttr("round", round)
		rSpan.SetAttr("regions", len(d.Regions))

		// Parallel phase: the master is frozen while the region workers
		// harvest and prove on their replicas.
		stop := r.ph.Start("par-workers")
		parStart := time.Now()
		reports := make([]*workerReport, len(d.Regions))
		var wg sync.WaitGroup
		for i := range d.Regions {
			wg.Add(1)
			go func(region int) {
				defer wg.Done()
				reports[region] = r.runRegion(rctx, d, region)
			}(i)
		}
		wg.Wait()
		barrier := time.Now()
		stop()
		parWall := barrier.Sub(parStart).Seconds()
		r.schedule(rctx, rSpan, reports, barrier, parWall)

		res.Harvests++
		roundCandidates, roundProposals := r.merge(reports)
		res.Candidates += roundCandidates
		par.Proposals += roundProposals
		rSpan.SetAttr("candidates", roundCandidates)
		rSpan.SetAttr("proposals", roundProposals)
		if roundCandidates == 0 {
			rSpan.End()
			break
		}

		// Serial commit phase, rendered on the master lane: conflict
		// checks, re-proofs, and applies all inherit the track.
		cctx, commitSpan := trace.StartSpan(rctx, "commit")
		commitSpan.SetTrack(masterTrack)
		commitStart := time.Now()
		stop = r.ph.Start("par-commit")
		progress, halt := r.commitRound(cctx, reports, baseNodes)
		stop()
		commitSpan.End()
		rSpan.End()
		commitWall := time.Since(commitStart).Seconds()
		par.CommitSeconds += commitWall
		if parWall+commitWall > 0 {
			o.Histogram("core.par.commit.share").Observe(commitWall / (parWall + commitWall))
		}
		if halt || !progress {
			break
		}
	}
	par.SigCacheHits, _, _ = r.sig.Stats()
	if s := r.conf.Summary(); s.Total > 0 {
		par.ConflictLedger = &s
	}
	o.Histogram("core.par.run.busy_frac").Observe(par.BusyFrac())
	o.Histogram("core.par.run.commit_share").Observe(par.CommitShare())
}

// schedule records one round's scheduler metrics: per-worker busy time
// against the capacity the round offered, the spread between the first
// and last worker to reach the barrier, and — on traced runs — a
// retroactive barrier-wait span closing out each worker's lane.
func (r *run) schedule(rctx context.Context, rSpan *trace.Span, reports []*workerReport, barrier time.Time, parWall float64) {
	par := r.res.Parallel
	tr := trace.FromContext(rctx)
	var roundBusy float64
	var firstEnd, lastEnd time.Time
	for _, rep := range reports {
		if rep == nil || rep.end.IsZero() {
			continue
		}
		roundBusy += rep.end.Sub(rep.start).Seconds()
		if firstEnd.IsZero() || rep.end.Before(firstEnd) {
			firstEnd = rep.end
		}
		if rep.end.After(lastEnd) {
			lastEnd = rep.end
		}
		if tr != nil && barrier.After(rep.end) {
			tr.Log("barrier-wait", workerTrack(rep.region), rSpan.ID(), rep.end, barrier,
				map[string]any{"region": rep.region})
		}
	}
	skew := 0.0
	if !firstEnd.IsZero() {
		skew = lastEnd.Sub(firstEnd).Seconds()
	}
	par.WorkerBusySeconds += roundBusy
	par.ParallelSeconds += parWall
	if skew > par.MaxBarrierSkewSeconds {
		par.MaxBarrierSkewSeconds = skew
	}
	if parWall > 0 {
		r.o.Histogram("core.par.worker.busy_frac").Observe(roundBusy / (float64(r.opts.Parallelism) * parWall))
		r.o.Histogram("core.par.barrier.skew.seconds").Observe(skew)
	}
}

// merge folds the workers' own counts into the run result after the
// barrier, returning the round's candidate and proposal totals.
func (r *run) merge(reports []*workerReport) (candidates, proposals int) {
	res := r.res
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		if rep.err != nil {
			// The worker only ever touched its replica, so the master is
			// intact; drop the region's round and continue.
			r.o.Counter("core.par.worker_panics").Inc()
			r.o.Emit("worker-panic", obs.Fields{"region": rep.region, "error": rep.err.Error()})
			continue
		}
		candidates += rep.candidates
		proposals += len(rep.proposals)
		for reason, n := range rep.rejects {
			res.Rejects[reason] += n
		}
		addCheckStats(&res.CheckStats, rep.stats)
		res.Escalation.Retries += rep.escal.Retries
		res.Escalation.Permissible += rep.escal.Permissible
		res.Escalation.Refuted += rep.escal.Refuted
		res.Escalation.Exhausted += rep.escal.Exhausted
	}
	return candidates, proposals
}

// commitRound replays the round's proposals on the master, regions in
// order and proposals in order: translate replica IDs, re-prove on
// conflict, re-check delay, and commit. It reports whether any move was
// applied and whether the run must stop.
func (r *run) commitRound(ctx context.Context, reports []*workerReport, baseNodes netlist.NodeID) (progress, halt bool) {
	nl, master, par := r.nl, r.master, r.res.Parallel
	touched := make(map[netlist.NodeID]touchMark)
	for _, rep := range reports {
		if rep == nil || rep.err != nil {
			continue
		}
		region := rep.region
		idMap := make(map[netlist.NodeID]netlist.NodeID)
		mapID := func(id netlist.NodeID) (netlist.NodeID, bool) {
			if id < baseNodes {
				return id, true
			}
			m, ok := idMap[id]
			return m, ok
		}
		broken := false
		for _, p := range rep.proposals {
			if r.stopRequested() {
				return progress, true
			}
			ms, mapOK := mapSub(p.sub, mapID)
			if !mapOK || !candidateValid(nl, ms) {
				r.reject(r.res.Rejects, region, RejectStale, p.sub, p.proof)
				broken = true
				continue
			}
			conflictKind := r.conflict(region, broken, ms, p.support, mapID, touched)

			pctx, sp := startCandidate(ctx, ms, region)
			proof := p.proof
			if conflictKind != "" {
				par.Conflicts++
				r.o.Counter("core.par.conflicts").Inc()
				sp.SetAttr("conflict", true)
				sp.SetAttr("conflict_kind", conflictKind)
				// Serial re-proof against the actual master state.
				par.Replays++
				r.o.Counter("core.par.replays").Inc()
				rpctx, rpSpan := trace.StartSpan(pctx, "re-proof")
				var verdict atpg.Verdict
				verdict, _, proof = master.prove(rpctx, ms)
				rpSpan.SetAttr("verdict", verdict.String())
				rpSpan.End()
				if verdict != atpg.Permissible {
					reason := rejectReason(verdict)
					r.reject(r.res.Rejects, region, reason, ms, proof)
					endSpan(sp, reason)
					broken = true
					continue
				}
			}
			if !master.delayOK(ms) {
				r.reject(r.res.Rejects, region, RejectDelay, ms, proof)
				endSpan(sp, RejectDelay)
				broken = true
				continue
			}

			preTouched := preApplyTouched(nl, ms)
			applied, stop := r.commit(pctx, sp, ms, proof, region)
			if applied == nil {
				broken = true
				continue
			}
			progress = true
			if stop {
				return progress, true
			}
			// Extend the region's ID map with the nodes this apply
			// created; the master allocates them in the same order as the
			// replica did.
			if len(applied.Added) != len(p.added) {
				broken = true
			} else {
				for i, replicaID := range p.added {
					idMap[replicaID] = applied.Added[i]
				}
			}
			markTouched(touched, region, preTouched)
			markTouched(touched, region, postApplyTouched(nl, applied))
		}
	}
	return progress, false
}

// conflict decides whether a proposal's replica verdict may be reused on
// the master, returning "" when it may and the conflict kind otherwise.
// The first offending support node names the heatmap cell: which pair of
// regions collided, over what, and how.
func (r *run) conflict(region int, broken bool, ms *transform.Substitution, support []netlist.NodeID,
	mapID func(netlist.NodeID) (netlist.NodeID, bool), touched map[netlist.NodeID]touchMark) string {
	if broken {
		r.recordConflict(region, region, ms.TargetString(), "broken-chain")
		return "broken-chain"
	}
	for _, sid := range support {
		m, ok := mapID(sid)
		if !ok {
			r.recordConflict(region, -1, ms.TargetString(), "stale")
			return "stale"
		}
		if t, hit := touched[m]; hit && (t.shared || t.region != region) {
			kind := "touched"
			if t.shared {
				kind = "shared"
			}
			r.recordConflict(region, t.region, r.nl.Node(m).Name(), kind)
			return kind
		}
	}
	return ""
}

// runRegion is one region worker's round: harvest, analyze, and prove on
// a private replica with the shared greedy loop, returning the proposals
// for the commit phase. It never touches the master netlist; a panic is
// contained to the region.
func (r *run) runRegion(ctx context.Context, d *partition.Decomposition, region int) (rep *workerReport) {
	rep = &workerReport{region: region, rejects: map[string]int{}, start: time.Now()}
	defer func() {
		if p := recover(); p != nil {
			rep.err = fmt.Errorf("region %d worker panic: %v", region, p)
			rep.proposals = nil
		}
	}()
	defer func() { rep.end = time.Now() }()
	wctx, wSpan := trace.StartSpan(ctx, "region")
	wSpan.SetTrack(workerTrack(region))
	wSpan.SetAttr("region", region)
	defer wSpan.End()

	// Replica construction: Clone preserves node IDs and the power
	// estimate is deterministic in (netlist, options), so replica node
	// values coincide with the master's.
	_, repSpan := trace.StartSpan(wctx, "replica")
	stop := r.ph.Start("par-replica")
	replica := r.nl.Clone()
	powerOpts := r.opts.Power
	powerOpts.Obs = nil
	rpm := power.Estimate(replica, powerOpts)
	stop()
	repSpan.End()

	// Each worker gets an independent escalation quota: a shared counter
	// would make worker outcomes depend on scheduling order.
	rp := &replicaProver{nl: replica, sig: r.sig, budget: r.opts.CheckBudget, o: r.o}
	l := &lane{
		r: r, nl: replica, pm: rpm, an: transform.NewAnalyzer(replica, rpm),
		prover: rp, region: region,
		rejects: rep.rejects, escal: &rep.escal, retries: r.opts.MaxRetries,
		stopped: func() bool { return ctx.Err() != nil },
	}
	cfg := r.opts.Transform
	cfg.TargetFilter = func(id netlist.NodeID) bool { return d.RegionOf(id) == region }
	cands := l.harvest(wctx, cfg)
	rep.candidates = len(cands)
	wSpan.SetAttr("candidates", len(cands))
	if len(cands) == 0 {
		return rep
	}
	l.refreshTiming()

	// Apply on the replica so later proofs and gains in this region see
	// the updated structure; the master replays the same edit at commit
	// time under the transactional journal.
	propose := func(_ context.Context, sp *trace.Span, s *transform.Substitution, proof *obs.LedgerProof, support []netlist.NodeID) (bool, bool) {
		stop := r.ph.Start("apply")
		applied, err := transform.ApplySafe(replica, s)
		stop()
		if err != nil {
			l.reject(RejectApplyConflict, s, proof)
			endSpan(sp, RejectApplyConflict)
			return false, false
		}
		stop = r.ph.Start("power-resync")
		rpm.Resync()
		stop()
		l.refreshTiming()
		rep.proposals = append(rep.proposals, proposal{sub: s, proof: proof, support: support, added: applied.Added})
		endSpan(sp, "proposed")
		return true, false
	}
	l.greedy(wctx, cands, propose)
	rep.stats = rp.stats()
	wSpan.SetAttr("proposals", len(rep.proposals))
	return rep
}

// replicaProver proves on a region replica with an IncrementalChecker.
// That checker requires a frozen netlist, so it is rebuilt after each
// replica apply (the shared signature cache and the lazy base-cone
// encoding keep rebuilds cheap); its learned clauses serve the runs of
// consecutive rejections between applies.
type replicaProver struct {
	nl      *netlist.Netlist
	sig     *atpg.SigCache
	budget  int64
	o       *obs.Observer
	c       *atpg.IncrementalChecker
	version int64
	retired atpg.CheckStats // statistics of the rebuilt-away checkers
}

// current returns the checker for the replica's present version.
func (p *replicaProver) current() *atpg.IncrementalChecker {
	if p.c == nil || p.nl.Version() != p.version {
		if p.c != nil {
			addCheckStats(&p.retired, p.c.Stats)
		}
		p.c = atpg.NewIncrementalChecker(p.nl)
		p.c.Obs = p.o
		p.c.Sig = p.sig
		if p.budget > 0 {
			p.c.Budget = p.budget
		}
		p.version = p.nl.Version()
	}
	return p.c
}

func (p *replicaProver) prove(s *transform.Substitution) (atpg.Verdict, []netlist.NodeID) {
	if s.IsBranchSub() {
		return p.current().CheckBranch(s.G, s.Pin, s.Src)
	}
	return p.current().CheckStem(s.A, s.Src)
}

func (p *replicaProver) accounting() *atpg.Accounting { return &p.current().Accounting }

// stats sums the statistics of every checker the prover built.
func (p *replicaProver) stats() atpg.CheckStats {
	st := p.retired
	if p.c != nil {
		addCheckStats(&st, p.c.Stats)
	}
	return st
}

// addCheckStats folds src into dst.
func addCheckStats(dst *atpg.CheckStats, src atpg.CheckStats) {
	dst.Checks += src.Checks
	dst.Permissible += src.Permissible
	dst.Refuted += src.Refuted
	dst.Aborted += src.Aborted
	dst.Conflicts += src.Conflicts
	dst.Decisions += src.Decisions
}

// mapSub translates a replica-space substitution into master IDs through
// the region's commit ID map. It fails when the substitution references a
// replica node the master never materialized (broken region chain).
func mapSub(s *transform.Substitution, mapID func(netlist.NodeID) (netlist.NodeID, bool)) (*transform.Substitution, bool) {
	ms := *s
	ok := true
	translate := func(id netlist.NodeID) netlist.NodeID {
		if id == netlist.InvalidNode {
			return id
		}
		m, found := mapID(id)
		if !found {
			ok = false
		}
		return m
	}
	ms.A = translate(ms.A)
	if ms.IsBranchSub() {
		ms.G = translate(ms.G)
	}
	ms.Src.B = translate(ms.Src.B)
	if ms.Src.IsThree() {
		ms.Src.C = translate(ms.Src.C)
	}
	if ms.Inv == transform.InvReuse {
		ms.InvNode = translate(ms.InvNode)
	}
	return &ms, ok
}

// preApplyTouched lists the master nodes whose connectivity the pending
// apply will change before the apply runs: the substituted stem, the
// gates of every detached branch, and the signals picking up the moved
// load.
func preApplyTouched(nl *netlist.Netlist, s *transform.Substitution) []netlist.NodeID {
	ids := []netlist.NodeID{s.A, s.Src.B}
	if s.Src.IsThree() {
		ids = append(ids, s.Src.C)
	}
	if s.Inv == transform.InvReuse {
		ids = append(ids, s.InvNode)
	}
	if s.IsBranchSub() {
		ids = append(ids, s.G)
	} else {
		for _, b := range nl.Node(s.A).Fanouts() {
			if !b.IsPO() {
				ids = append(ids, b.Gate)
			}
		}
	}
	return ids
}

// postApplyTouched lists the nodes the apply created or destroyed plus
// their neighbours: added nodes and their fanins, removed nodes and the
// fanins whose fanout lists shrank. Dead nodes keep their fanin lists, so
// this is computable after the sweep.
func postApplyTouched(nl *netlist.Netlist, res *transform.ApplyResult) []netlist.NodeID {
	ids := []netlist.NodeID{res.Source}
	for _, id := range res.Added {
		ids = append(ids, id)
		ids = append(ids, nl.Node(id).Fanins()...)
	}
	for _, id := range res.Removed {
		ids = append(ids, id)
		ids = append(ids, nl.Node(id).Fanins()...)
	}
	return ids
}

// recordConflict attributes one commit conflict: regions are the
// engine's 0-based indices (-1 = unknown other party), translated to
// the ledger's 1-based scheme (0 = master/unknown). Each conflict also
// feeds the labeled par.conflicts{kind} counter family.
func (r *run) recordConflict(region, other int, node, kind string) {
	r.conf.Record(region+1, other+1, node, kind)
	r.o.Counter(obs.Labeled("par.conflicts", "kind", kind)).Inc()
}

// markTouched stamps ids as touched by region, upgrading to shared when a
// second region touches the same node.
func markTouched(t map[netlist.NodeID]touchMark, region int, ids []netlist.NodeID) {
	for _, id := range ids {
		if m, ok := t[id]; ok {
			if m.region != region {
				m.shared = true
				t[id] = m
			}
			continue
		}
		t[id] = touchMark{region: region}
	}
}
