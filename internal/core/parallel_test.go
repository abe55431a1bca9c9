package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/transform"
)

// TestParallelMatchesSequential: the parallel engine must preserve
// function (proved by the same ATPG machinery the engine uses internally,
// on an independent checker) and land within estimator tolerance of the
// sequential engine's final power on a real Table-1 circuit.
func TestParallelMatchesSequential(t *testing.T) {
	seqNl := compileBenchmark(t, "comp")
	parNl := seqNl.Clone()
	input := seqNl.Clone()

	seqRes, err := Optimize(seqNl, Options{Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Optimize(parNl, Options{
		Parallelism: 4,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustEquivalent(t, input, parNl, "comp -par 4")

	if parRes.Parallel == nil {
		t.Fatal("parallel run carries no ParallelStats")
	}
	if parRes.Parallel.Rounds < 1 || parRes.Parallel.Workers != 4 {
		t.Fatalf("stats: %+v", parRes.Parallel)
	}
	if parRes.Applied == 0 {
		t.Fatal("parallel run applied nothing on comp")
	}
	if seqRes.Parallel != nil {
		t.Fatal("sequential run carries ParallelStats")
	}

	// Different application orders legitimately pick different greedy
	// paths; both engines must still deliver a real reduction, and the
	// parallel result must stay within tolerance of the sequential one.
	if parRes.Final.Power >= parRes.Initial.Power {
		t.Fatalf("parallel run did not reduce power: %.4f -> %.4f",
			parRes.Initial.Power, parRes.Final.Power)
	}
	if parRes.Final.Power > seqRes.Final.Power*1.05 {
		t.Fatalf("parallel final power %.4f vs sequential %.4f (>5%% worse)",
			parRes.Final.Power, seqRes.Final.Power)
	}
}

// TestParallelSequentialPathUntouched: Parallelism values <= 1 must take
// the sequential engine verbatim (same result, no parallel stats), which
// is what makes `-par 1` byte-identical to pre-parallel builds.
func TestParallelSequentialPathUntouched(t *testing.T) {
	a := compileBenchmark(t, "clip")
	b := a.Clone()
	ra, err := Optimize(a, Options{Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Optimize(b, Options{Parallelism: 1, Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Parallel != nil {
		t.Fatal("-par 1 took the parallel engine")
	}
	if ra.Applied != rb.Applied || ra.Final.Power != rb.Final.Power {
		t.Fatalf("-par 1 diverged: applied %d/%d power %.6f/%.6f",
			ra.Applied, rb.Applied, ra.Final.Power, rb.Final.Power)
	}
	if !exhaustiveEqual(t, a, b) {
		t.Fatal("-par 1 and sequential netlists differ")
	}
}

// TestParallelDeterministic: a fixed -par P run commits regions in a
// deterministic order, so two runs from identical inputs agree.
func TestParallelDeterministic(t *testing.T) {
	a := compileBenchmark(t, "clip")
	b := a.Clone()
	opts := func() Options {
		return Options{Parallelism: 4, Transform: transform.Config{AllowInverted: true}}
	}
	ra, err := Optimize(a, opts())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Optimize(b, opts())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Applied != rb.Applied || ra.Final.Power != rb.Final.Power {
		t.Fatalf("two -par 4 runs diverged: applied %d/%d power %.6f/%.6f",
			ra.Applied, rb.Applied, ra.Final.Power, rb.Final.Power)
	}
	if !exhaustiveEqual(t, a, b) {
		t.Fatal("two -par 4 runs produced different netlists")
	}
}

// TestParallelCorruptedCommitRollsBack is the conflict/rollback hammer:
// fault injection corrupts every second commit, which the journaled apply
// must catch and roll back; the broken-chain rule then forces serial
// re-proofs of the region's later proposals. The run must stay
// functionally intact and still reduce power. Run under -race this also
// exercises worker isolation.
func TestParallelCorruptedCommitRollsBack(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	input := nl.Clone()
	capture := obs.NewCaptureSink()
	// Corrupt every other commit by call count (the commit phase is
	// serial, so a plain counter is race-free); the stock
	// CorruptEveryApply keys on the applied count, which a rollback never
	// advances, and would therefore corrupt every commit forever.
	calls := 0
	corrupt := func(nl *netlist.Netlist, applied int) error {
		calls++
		if calls%2 == 1 {
			return faultinject.InvertOutput(nl, 0)
		}
		return nil
	}
	res, err := Optimize(nl, Options{
		Parallelism: 8,
		VerifyEvery: 2,
		Transform:   transform.Config{AllowInverted: true},
		Inject:      &faultinject.Hooks{CorruptApply: corrupt},
		Obs:         obs.New(capture, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejects[RejectRollback] == 0 {
		t.Fatal("no rollbacks despite injected corruption")
	}
	if res.Applied == 0 {
		t.Fatal("nothing survived the corruption hammer")
	}
	mustEquivalent(t, input, nl, "comp -par 8 corrupted")
	if res.Final.Power >= res.Initial.Power {
		t.Fatalf("no reduction under rollback hammer: %.4f -> %.4f",
			res.Initial.Power, res.Final.Power)
	}
	if res.Parallel == nil || res.Parallel.Rounds == 0 {
		t.Fatalf("missing parallel stats: %+v", res.Parallel)
	}
}

// TestParallelTinyCircuit: more workers than useful regions must degrade
// gracefully (regions <= parallelism, possibly 1) and still optimize.
func TestParallelTinyCircuit(t *testing.T) {
	nl := redundantCircuit(t)
	ref := nl.Clone()
	res, err := Optimize(nl, Options{
		Parallelism: 8,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied == 0 {
		t.Fatal("nothing applied on the redundant circuit")
	}
	if !exhaustiveEqual(t, ref, nl) {
		t.Fatal("tiny parallel run broke function")
	}
}

// TestActivityLabelOnBothEngines: the workload activity label reaches the
// ledger and the report's "Activity model" line on both engines.
func TestActivityLabelOnBothEngines(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			nl := compileBenchmark(t, "comp")
			res, err := Optimize(nl, Options{
				Parallelism: par,
				Activity:    "probe.vcd",
				Transform:   transform.Config{AllowInverted: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ledger == nil {
				t.Fatal("run has no ledger")
			}
			if got := res.Ledger.Activity; got != "probe.vcd" {
				t.Fatalf("ledger activity = %q, want probe.vcd", got)
			}
			var sb strings.Builder
			WriteReport(&sb, "comp", res, nil)
			if !strings.Contains(sb.String(), "Activity model: probe.vcd") {
				t.Errorf("report lacks the activity line:\n%s", sb.String())
			}
		})
	}
}

// TestParallelTraceWellFormed: a traced -par 2 run yields a valid span
// tree in which every permissibility proof is exactly one "prove" span,
// never a "prove" nested inside another.
func TestParallelTraceWellFormed(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	tr := trace.New("comp", trace.Options{})
	_, err := OptimizeCtx(trace.NewContext(context.Background(), tr), nl, Options{
		Parallelism: 2,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	if err := trace.Validate(spans); err != nil {
		t.Fatal(err)
	}
	byID := make(map[trace.SpanID]trace.Record, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	proves := 0
	for _, s := range spans {
		if s.Name != "prove" {
			continue
		}
		proves++
		if p, ok := byID[s.Parent]; ok && p.Name == "prove" {
			t.Fatalf("prove span %d nests inside prove span %d", s.ID, p.ID)
		}
	}
	if proves == 0 {
		t.Fatal("traced run recorded no prove spans")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
}
