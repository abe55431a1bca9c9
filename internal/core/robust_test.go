package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/power"
	"powder/internal/synth"
	"powder/internal/transform"
)

func compileBenchmark(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	spec, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func mustEquivalent(t *testing.T, input, nl *netlist.Netlist, label string) {
	t.Helper()
	eq, err := atpg.Equivalent(input, nl, 0)
	if err != nil {
		t.Fatalf("%s: equivalence check: %v", label, err)
	}
	if eq.Verdict != atpg.Permissible {
		t.Fatalf("%s: final netlist not equivalent to input (verdict %v, output %q)",
			label, eq.Verdict, eq.DifferingOutput)
	}
}

// TestCorruptedApplyIsRolledBack pins the transactional-apply contract:
// a corruption smuggled into every applied substitution is caught by the
// post-apply re-validation, rolled back, and the run continues without
// ever committing a broken netlist.
func TestCorruptedApplyIsRolledBack(t *testing.T) {
	nl := redundantCircuit(t)
	ref := nl.Clone()
	capture := obs.NewCaptureSink()
	res, err := Optimize(nl, Options{
		Transform: transform.Config{AllowInverted: true},
		Inject:    &faultinject.Hooks{CorruptApply: faultinject.CorruptEveryApply(0, 1)},
		Obs:       obs.New(capture, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 {
		t.Errorf("Applied = %d with every apply corrupted, want 0", res.Applied)
	}
	if res.Rejects[RejectRollback] == 0 {
		t.Fatalf("no rollback rejects recorded: %v", res.Rejects)
	}
	if n := capture.Count("rollback"); n == 0 {
		t.Errorf("no rollback events emitted")
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid after rollbacks: %v", err)
	}
	if !exhaustiveEqual(t, ref, nl) {
		t.Fatal("rolled-back run changed the circuit function")
	}
}

// TestIntermittentCorruptionOnBenchmarks is the acceptance scenario:
// on two example circuits, intermittently corrupt applied substitutions;
// the corrupted ones must roll back, the clean ones must commit, and the
// final netlist must be proven equivalent to the input.
func TestIntermittentCorruptionOnBenchmarks(t *testing.T) {
	for _, name := range []string{"clip", "t481"} {
		nl := compileBenchmark(t, name)
		input := nl.Clone()
		res, err := Optimize(nl, Options{
			Power:     powerOptsSmall(),
			Transform: transform.Config{AllowInverted: true},
			Inject:    &faultinject.Hooks{CorruptApply: faultinject.CorruptEveryApply(0, 2)},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rejects[RejectRollback] == 0 {
			t.Errorf("%s: corruption never triggered a rollback: %v", name, res.Rejects)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: invalid netlist: %v", name, err)
		}
		mustEquivalent(t, input, nl, name)
	}
}

// TestInjectedPanicRestoresLastGood pins the safety net: a panic in the
// optimization path is recovered, reported as an error with StopPanic,
// and the netlist comes back as the last snapshot proven equivalent to
// the input.
func TestInjectedPanicRestoresLastGood(t *testing.T) {
	for _, name := range []string{"t481", "comp"} {
		nl := compileBenchmark(t, name)
		input := nl.Clone()
		res, err := Optimize(nl, Options{
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
			VerifyEvery: 1, // refresh last-good after every apply
			Inject:      &faultinject.Hooks{Panic: faultinject.PanicAfter(2)},
		})
		if err == nil {
			t.Fatalf("%s: injected panic did not surface as an error", name)
		}
		if res == nil || res.Stopped != StopPanic {
			t.Fatalf("%s: Stopped = %v, want %v (err %v)", name, res.Stopped, StopPanic, err)
		}
		if res.SafetyRefreshes == 0 {
			t.Errorf("%s: safety net never refreshed with VerifyEvery=1", name)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: restored netlist invalid: %v", name, err)
		}
		mustEquivalent(t, input, nl, name)
	}
}

// TestForcedAbortsEscalate pins the adaptive proof budgets on both
// engines: verdicts forced to Aborted are retried with escalated budgets
// under the MaxRetries quota, recover to real verdicts, and the stats and
// the escalate events record it.
func TestForcedAbortsEscalate(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			nl := redundantCircuit(t)
			ref := nl.Clone()
			capture := obs.NewCaptureSink()
			res, err := Optimize(nl, Options{
				MaxRetries:  8,
				Parallelism: par,
				Transform:   transform.Config{AllowInverted: true},
				Inject:      &faultinject.Hooks{ForceAbort: faultinject.AbortFirstN(2)},
				Obs:         obs.New(capture, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Escalation.Retries == 0 {
				t.Fatalf("forced aborts never escalated: %+v", res.Escalation)
			}
			if res.Escalation.Permissible+res.Escalation.Refuted == 0 {
				t.Errorf("escalation never reached a real verdict: %+v", res.Escalation)
			}
			if n := capture.Count("escalate"); n == 0 {
				t.Errorf("no escalate events emitted")
			}
			if res.Applied == 0 {
				t.Errorf("escalated run applied nothing")
			}
			if !exhaustiveEqual(t, ref, nl) {
				t.Fatal("escalated run changed the circuit function")
			}
		})
	}
}

// TestNoRetriesMeansAbortsReject pins the quota-off behavior: with
// MaxRetries 0 a forced abort is rejected outright, as in the paper.
func TestNoRetriesMeansAbortsReject(t *testing.T) {
	nl := redundantCircuit(t)
	res, err := Optimize(nl, Options{
		Transform: transform.Config{AllowInverted: true},
		Inject:    &faultinject.Hooks{ForceAbort: faultinject.AbortFirstN(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalation.Retries != 0 {
		t.Errorf("escalation ran with MaxRetries = 0: %+v", res.Escalation)
	}
	if res.Rejects[RejectAborted] == 0 {
		t.Errorf("forced abort was not rejected: %v", res.Rejects)
	}
}

// TestDeadlineStopsRunCleanly pins the Timeout contract at the engine
// level: the run ends well within 2x the deadline, reports StopDeadline,
// and hands back a valid netlist equivalent to the input.
func TestDeadlineStopsRunCleanly(t *testing.T) {
	nl := compileBenchmark(t, "C880")
	input := nl.Clone()
	const deadline = 50 * time.Millisecond
	start := time.Now()
	res, err := Optimize(nl, Options{
		Power:     powerOptsSmall(),
		Timeout:   deadline,
		Transform: transform.Config{AllowInverted: true},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopDeadline {
		t.Fatalf("Stopped = %v, want %v (elapsed %v, applied %d)", res.Stopped, StopDeadline, elapsed, res.Applied)
	}
	if !res.StoppedEarly() {
		t.Error("StoppedEarly() = false on a deadline stop")
	}
	// Generous slack over the 2x-deadline acceptance bound: the run may
	// finish one in-flight phase, but must not run to completion.
	if elapsed > 5*time.Second {
		t.Errorf("run took %v against a %v deadline", elapsed, deadline)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid after deadline stop: %v", err)
	}
	mustEquivalent(t, input, nl, "C880")
}

// TestCancelledContextStopsRun pins the Ctrl-C path: an
// already-cancelled context yields StopCancelled with zero applies and
// an untouched netlist.
func TestCancelledContextStopsRun(t *testing.T) {
	nl := redundantCircuit(t)
	ref := nl.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeCtx(ctx, nl, Options{Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, StopCancelled)
	}
	if res.Applied != 0 {
		t.Errorf("Applied = %d under a pre-cancelled context", res.Applied)
	}
	if !exhaustiveEqual(t, ref, nl) {
		t.Fatal("cancelled run changed the circuit")
	}
}

// TestPeriodicVerificationRefreshes pins that clean runs advance the
// last-good snapshot and count the refreshes.
func TestPeriodicVerificationRefreshes(t *testing.T) {
	nl := redundantCircuit(t)
	res, err := Optimize(nl, Options{
		VerifyEvery: 1,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied == 0 {
		t.Fatal("run applied nothing; refresh path untested")
	}
	if res.SafetyRefreshes == 0 {
		t.Errorf("SafetyRefreshes = 0 with VerifyEvery = 1 and %d applies", res.Applied)
	}
}

// TestRandomCircuitsUnderInjection sweeps random circuits with mixed
// fault injection, checking the engine never emits a non-equivalent or
// invalid netlist no matter what is thrown at it.
func TestRandomCircuitsUnderInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 5; trial++ {
		nl := randomNetlist(t, rng, 6, 18)
		ref := nl.Clone()
		_, err := Optimize(nl, Options{
			MaxRetries:  4,
			VerifyEvery: 2,
			Transform:   transform.Config{AllowInverted: true},
			Inject: &faultinject.Hooks{
				CorruptApply: faultinject.CorruptEveryApply(0, 3),
				ForceAbort:   faultinject.AbortFirstN(1),
			},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("trial %d: invalid netlist: %v", trial, err)
		}
		if !exhaustiveEqual(t, ref, nl) {
			t.Fatalf("trial %d: function changed under injection", trial)
		}
	}
}

// powerOptsSmall keeps benchmark-circuit runs fast in tests.
func powerOptsSmall() power.Options {
	return power.Options{Words: 16, Seed: 1}
}
