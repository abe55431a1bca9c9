package atpg

import (
	"context"
	"fmt"
	"time"

	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/sat"
)

// Verdict is the outcome of a permissibility check.
type Verdict int

const (
	// Aborted means the proof budget was exhausted; the paper treats this
	// exactly like a refutation (the substitution is not performed).
	Aborted Verdict = iota
	// Permissible means the substitution provably preserves all
	// primary-output functions.
	Permissible
	// NotPermissible means a distinguishing input vector exists.
	NotPermissible
)

func (v Verdict) String() string {
	switch v {
	case Permissible:
		return "permissible"
	case NotPermissible:
		return "not-permissible"
	}
	return "aborted"
}

// Source describes the substituting signal of a substitution:
// either an existing stem B (optionally inverted) for the 2-signal forms
// OS2/IS2, or the output of a new 2-input gate over stems B and C with
// truth table Gate for the 3-signal forms OS3/IS3.
type Source struct {
	B       netlist.NodeID
	InvertB bool
	// C is InvalidNode for 2-signal substitutions.
	C       netlist.NodeID
	InvertC bool
	// Gate is the new gate's 2-variable truth table (variable 0 = B,
	// variable 1 = C); ignored when C is InvalidNode.
	Gate logic.TT
}

// IsThree reports whether the source inserts a new gate.
func (s Source) IsThree() bool { return s.C != netlist.InvalidNode }

// effectiveTT folds the input inversions into the new gate's table.
func (s Source) effectiveTT() logic.TT {
	tt := s.Gate
	if s.InvertB {
		tt = flipInput(tt, 0)
	}
	if s.InvertC {
		tt = flipInput(tt, 1)
	}
	return tt
}

// flipInput returns the table of f with input i complemented.
func flipInput(tt logic.TT, i int) logic.TT {
	var out logic.TT
	out.N = tt.N
	for m := uint(0); m < 1<<uint(tt.N); m++ {
		if tt.Eval(m ^ (1 << uint(i))) {
			out.Bits |= 1 << uint64(m)
		}
	}
	return out
}

// CheckStats counts checker outcomes and the SAT effort they consumed.
type CheckStats struct {
	Checks      int
	Permissible int
	Refuted     int
	Aborted     int
	// Conflicts and Decisions sum the SAT solver work over all checks
	// (structural verdicts that never reach the solver contribute zero).
	Conflicts int64
	Decisions int64
}

// CheckDetail records the outcome and effort of one proof, for callers
// (the run ledger) that attribute SAT work to individual candidates.
type CheckDetail struct {
	Verdict   Verdict
	Conflicts int64
	Decisions int64
	Seconds   float64
	// Budget is the conflict budget the proof ran under.
	Budget int64
}

// Accounting is the per-proof bookkeeping both checkers share: the
// budget and cancellation a proof runs under, and the statistics, detail,
// span, metrics and "check" event it leaves behind.
type Accounting struct {
	// Budget is the conflict budget per check; exceeded means Aborted.
	Budget int64
	Stats  CheckStats
	// Obs, when non-nil, receives one "check" event per proof (verdict,
	// conflicts, decisions, budget consumption) and per-check metrics.
	Obs *obs.Observer
	// Ctx, when non-nil, is polled inside the SAT search; a cancelled
	// context makes the in-flight proof return Aborted promptly.
	Ctx context.Context
	// LastCheck holds the detail of the most recent proof (each check
	// overwrites it; escalated retries therefore report the final round).
	LastCheck CheckDetail
}

// proof is one decision as the accounting sees it. Cached marks a
// verdict served by the signature cache without a solve.
type proof struct {
	verdict              Verdict
	conflicts, decisions int64
	cached               bool
}

// account runs decide under one "prove" span (the SAT solve nests under
// it through the derived context) and records the outcome: statistics,
// LastCheck, span attributes, metrics and the "check" event. Proofs by
// the incremental checker carry the "incremental" attribute.
func (a *Accounting) account(kind string, branches int, incremental bool, decide func(context.Context) proof) Verdict {
	a.Stats.Checks++
	start := time.Now()
	ctx, sp := trace.StartSpan(a.Ctx, "prove")
	p := decide(ctx)
	seconds := time.Since(start).Seconds()
	v := p.verdict
	switch v {
	case Permissible:
		a.Stats.Permissible++
	case NotPermissible:
		a.Stats.Refuted++
	default:
		a.Stats.Aborted++
	}
	a.Stats.Conflicts += p.conflicts
	a.Stats.Decisions += p.decisions
	a.LastCheck = CheckDetail{
		Verdict:   v,
		Conflicts: p.conflicts,
		Decisions: p.decisions,
		Seconds:   seconds,
		Budget:    a.Budget,
	}

	if m := a.Obs.Metrics(); m != nil {
		m.Counter("atpg.checks").Inc()
		m.Counter("atpg.verdict." + v.String()).Inc()
		m.Counter("atpg.conflicts").Add(p.conflicts)
		m.Counter("atpg.decisions").Add(p.decisions)
		m.Histogram("atpg.check.seconds").ObserveSince(start)
		if p.cached {
			m.Counter("atpg.sigcache.hits").Inc()
		}
	}
	tracing := a.Obs.Tracing()
	if sp == nil && !tracing {
		return v
	}
	f := obs.Fields{
		"kind":      kind,
		"verdict":   v.String(),
		"branches":  branches,
		"conflicts": p.conflicts,
		"decisions": p.decisions,
	}
	if incremental {
		f["incremental"] = true
	}
	if p.cached {
		f["sigcache"] = true
	}
	if a.Budget > 0 {
		f["budget"] = a.Budget
	}
	if sp != nil {
		for k, x := range f {
			sp.SetAttr(k, x)
		}
		sp.End()
	}
	if tracing {
		f["seconds"] = seconds
		if a.Budget > 0 {
			f["budget_used_pct"] = 100 * float64(p.conflicts) / float64(a.Budget)
		}
		a.Obs.Emit("check", f)
	}
	return v
}

// Checker proves or refutes candidate substitutions on one netlist. It is
// stateless across checks except for its accounting and the last
// counterexample; create one per netlist.
type Checker struct {
	Accounting
	nl *netlist.Netlist

	// cex holds the distinguishing primary-input assignment of the last
	// NotPermissible verdict, in input order.
	cex []bool
}

// NewChecker returns a checker with the default proof budget.
func NewChecker(nl *netlist.Netlist) *Checker {
	return &Checker{nl: nl, Accounting: Accounting{Budget: 50000}}
}

// Counterexample returns the primary-input assignment (in Inputs() order)
// that refuted the last NotPermissible check, or nil.
func (c *Checker) Counterexample() []bool { return c.cex }

// CheckBranch decides whether rewiring pin pin of gate g to the source is
// permissible (the IS2/IS3 forms).
func (c *Checker) CheckBranch(g netlist.NodeID, pin int, src Source) Verdict {
	return c.check("branch", []netlist.Branch{{Gate: g, Pin: pin}}, src)
}

// CheckStem decides whether substituting every fanout of stem a (including
// primary outputs it drives) with the source is permissible (the OS2/OS3
// forms).
func (c *Checker) CheckStem(a netlist.NodeID, src Source) Verdict {
	n := c.nl.Node(a)
	branches := append([]netlist.Branch(nil), n.Fanouts()...)
	return c.check("stem", branches, src)
}

func (c *Checker) check(kind string, changed []netlist.Branch, src Source) Verdict {
	return c.account(kind, len(changed), false, func(ctx context.Context) proof {
		return c.decide(ctx, changed, src)
	})
}

// decide builds the substitution miter and decides it, returning the SAT
// effort spent (zero for structural verdicts that never reach the solver).
//
// The miter shares the unchanged part of the circuit: the original cone is
// encoded once; every gate in the transitive fanout of a rewired pin is
// duplicated with the rewired pins reading the source signal. The check
// asks whether any primary output can differ; UNSAT proves permissibility.
func (c *Checker) decide(ctx context.Context, changed []netlist.Branch, src Source) proof {
	nl := c.nl

	p := planMiter(nl, changed, src)
	// A source inside the duplicated region would mean a combinational
	// cycle in the rewired circuit; such candidates are structural
	// mistakes, never permissible rewirings.
	if p.cyclic {
		return proof{verdict: NotPermissible}
	}

	s := sat.New()
	s.SetBudget(c.Budget)
	s.SetContext(ctx)
	b := newCNFBuilder(nl, s)

	diffs := buildMiter(nl, b, s, p)
	if len(diffs) == 0 || !s.AddClause(diffs...) {
		// No primary output can observe the change.
		return proof{verdict: Permissible}
	}

	res := s.Solve()
	out := proof{verdict: Aborted, conflicts: s.Conflicts, decisions: s.Decisions}
	switch res {
	case sat.Unsat:
		out.verdict = Permissible
	case sat.Sat:
		c.cex = make([]bool, len(nl.Inputs()))
		for i, in := range nl.Inputs() {
			if v := b.varOf[in]; v >= 0 {
				c.cex[i] = s.Value(v)
			}
		}
		out.verdict = NotPermissible
	}
	return out
}

// String renders the stats.
func (st CheckStats) String() string {
	s := fmt.Sprintf("checks=%d permissible=%d refuted=%d aborted=%d",
		st.Checks, st.Permissible, st.Refuted, st.Aborted)
	if st.Conflicts > 0 || st.Decisions > 0 {
		s += fmt.Sprintf(" conflicts=%d decisions=%d", st.Conflicts, st.Decisions)
	}
	return s
}
