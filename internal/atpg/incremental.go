package atpg

import (
	"context"
	"fmt"

	"powder/internal/netlist"
	"powder/internal/sat"
)

// IncrementalChecker proves candidate substitutions against one frozen
// netlist snapshot on a single long-lived incremental solver. The base
// cone is encoded once and shared by every miter; each proof adds only
// its candidate-specific clauses (source, duplicated region, XOR taps) in
// a retirable activation-literal scope, and learned clauses that do not
// depend on a retired scope keep pruning later proofs. An optional shared
// SigCache short-circuits re-harvested duplicates of refuted candidates
// without a solve.
//
// The wrapped netlist must not change while the checker is in use — the
// permanent clauses mirror the snapshot taken at construction, and every
// check panics if the netlist version has moved. Checkers are not safe
// for concurrent use; the parallel engine runs one per worker per round.
type IncrementalChecker struct {
	// Accounting is shared with Checker; Obs additionally receives
	// atpg.sigcache.hits for cache short-circuits.
	Accounting
	nl      *netlist.Netlist
	version int64
	inc     *sat.Incremental
	b       *cnfBuilder

	// Sig, when non-nil, is the (shared, thread-safe) refuted-miter cache.
	Sig *SigCache

	sigs nodeSigs
	cex  []bool
}

// NewIncrementalChecker returns an incremental checker over nl with the
// default proof budget.
func NewIncrementalChecker(nl *netlist.Netlist) *IncrementalChecker {
	inc := sat.NewIncremental()
	return &IncrementalChecker{
		nl:      nl,
		version: nl.Version(),
		inc:     inc,
		b:       newCNFBuilder(nl, inc.Base()),

		Accounting: Accounting{Budget: 50000},
	}
}

// Counterexample returns the primary-input assignment (in Inputs() order)
// that refuted the last NotPermissible check, or nil. Cache-hit
// refutations have no counterexample.
func (c *IncrementalChecker) Counterexample() []bool { return c.cex }

// Scopes returns how many proof scopes were opened and retired, for
// callers reporting clause-reuse effectiveness.
func (c *IncrementalChecker) Scopes() (opened, retired int) {
	return c.inc.ScopesOpened, c.inc.ScopesRetired
}

// CheckStem decides whether substituting every fanout of stem a with the
// source is permissible. It additionally returns the proof's support set:
// the nodes the verdict depends on (nil for structural verdicts and cache
// hits). The parallel engine intersects it with concurrently touched
// nodes to decide whether the verdict survives an interleaved edit.
func (c *IncrementalChecker) CheckStem(a netlist.NodeID, src Source) (Verdict, []netlist.NodeID) {
	n := c.nl.Node(a)
	branches := append([]netlist.Branch(nil), n.Fanouts()...)
	return c.check("stem", branches, src)
}

// CheckBranch decides whether rewiring pin pin of gate g to the source is
// permissible, returning the verdict and the proof's support set.
func (c *IncrementalChecker) CheckBranch(g netlist.NodeID, pin int, src Source) (Verdict, []netlist.NodeID) {
	return c.check("branch", []netlist.Branch{{Gate: g, Pin: pin}}, src)
}

func (c *IncrementalChecker) check(kind string, changed []netlist.Branch, src Source) (Verdict, []netlist.NodeID) {
	if c.nl.Version() != c.version {
		panic(fmt.Sprintf("atpg: netlist changed under IncrementalChecker (version %d -> %d)",
			c.version, c.nl.Version()))
	}
	var support []netlist.NodeID
	v := c.account(kind, len(changed), true, func(ctx context.Context) proof {
		var p proof
		p, support = c.decide(ctx, changed, src)
		return p
	})
	return v, support
}

func (c *IncrementalChecker) decide(ctx context.Context, changed []netlist.Branch, src Source) (proof, []netlist.NodeID) {
	p := planMiter(c.nl, changed, src)
	if p.cyclic {
		return proof{verdict: NotPermissible}, nil
	}

	var key [32]byte
	if c.Sig != nil {
		key = p.miterKey(c.nl, &c.sigs)
		if c.Sig.Refuted(key) {
			return proof{verdict: NotPermissible, cached: true}, nil
		}
	}

	base := c.inc.Base()
	base.SetBudget(c.Budget)
	base.SetContext(ctx)
	scope := c.inc.Scope()
	defer scope.Retire()

	diffs := buildMiter(c.nl, c.b, scope, p)
	if len(diffs) == 0 || !scope.AddClause(diffs...) {
		return proof{verdict: Permissible}, p.support(c.nl)
	}

	c0, d0 := base.Conflicts, base.Decisions
	res := scope.Solve()
	out := proof{verdict: Aborted, conflicts: base.Conflicts - c0, decisions: base.Decisions - d0}
	switch res {
	case sat.Unsat:
		out.verdict = Permissible
		return out, p.support(c.nl)
	case sat.Sat:
		c.cex = make([]bool, len(c.nl.Inputs()))
		for i, in := range c.nl.Inputs() {
			if v := c.b.varOf[in]; v >= 0 {
				c.cex[i] = base.Value(v)
			}
		}
		if c.Sig != nil {
			c.Sig.StoreRefuted(key)
		}
		out.verdict = NotPermissible
	}
	return out, nil
}
