package core

import (
	"fmt"
	"math"
	"testing"

	"powder/internal/atpg"
	"powder/internal/transform"
)

// engineGolden is the pinned outcome of one optimization run. Rejects,
// Checks and Attempts are pinned only for Parallelism 1, where the run is
// fully deterministic; Parallelism 2 pins the figures a fixed -par N must
// repeat.
type engineGolden struct {
	hash      string
	applied   int
	powerBits uint64
	rejects   map[string]int
	checks    atpg.CheckStats
	attempts  int
}

// TestEngineGolden pins both optimizer engines on two Table-1 circuits,
// free and delay-constrained: the output structure, the substitutions
// applied and the bit pattern of the final power. At Parallelism 1 it
// also pins the reject funnel, the proof statistics and the ledger size,
// so any drift in selection, proving or accounting shows up here.
func TestEngineGolden(t *testing.T) {
	golden := map[string]engineGolden{
		"comp/free/par1": {
			hash:    "6fdb2d3a735f9332d593983fcea013400acb94f71db2463815a026c97bb621dc",
			applied: 21, powerBits: 0x40392251b1cccccc,
			rejects:  map[string]int{"low-gain": 3, "refuted": 15, "stale": 2128},
			checks:   atpg.CheckStats{Checks: 36, Permissible: 21, Refuted: 15, Conflicts: 863, Decisions: 1514},
			attempts: 39,
		},
		"comp/free/par2": {
			hash:    "9b620ac05ebd27031b680adef8ab70ac725e98a7be36d1ba13ba278cd05c56c7",
			applied: 22, powerBits: 0x403841ef4dcccccc,
		},
		"comp/constr/par1": {
			hash:    "d59b1919292dc23d76d5ce9c35aaa22f917bc5f61fd4537dfaa859b5ea82950c",
			applied: 3, powerBits: 0x40421dbfae199999,
			rejects:  map[string]int{"delay": 617, "low-gain": 2, "stale": 277},
			checks:   atpg.CheckStats{Checks: 3, Permissible: 3, Conflicts: 87, Decisions: 118},
			attempts: 622,
		},
		"comp/constr/par2": {
			hash:    "d59b1919292dc23d76d5ce9c35aaa22f917bc5f61fd4537dfaa859b5ea82950c",
			applied: 3, powerBits: 0x40421dbfae199999,
		},
		"clip/free/par1": {
			hash:    "ef49381d6f0f065a1886ec1d0525e3e3b53bbc8731255f9886627c87bcd0eb0c",
			applied: 1, powerBits: 0x4031ed0000000000,
			rejects:  map[string]int{"low-gain": 2, "stale": 284},
			checks:   atpg.CheckStats{Checks: 1, Permissible: 1, Conflicts: 14, Decisions: 21},
			attempts: 3,
		},
		"clip/free/par2": {
			hash:    "ef49381d6f0f065a1886ec1d0525e3e3b53bbc8731255f9886627c87bcd0eb0c",
			applied: 1, powerBits: 0x4031ed0000000000,
		},
		"clip/constr/par1": {
			hash:    "1dc82875064a20eae0b71ac1fddd830f63802c35704e378ec09ff4eeb1642e9c",
			applied: 0, powerBits: 0x4032603333333333,
			rejects:  map[string]int{"delay": 1, "low-gain": 1},
			checks:   atpg.CheckStats{},
			attempts: 2,
		},
		"clip/constr/par2": {
			hash:    "1dc82875064a20eae0b71ac1fddd830f63802c35704e378ec09ff4eeb1642e9c",
			applied: 0, powerBits: 0x4032603333333333,
		},
	}
	for _, circuit := range []string{"comp", "clip"} {
		for _, factor := range []float64{0, 1.0} {
			for _, par := range []int{1, 2} {
				mode := "free"
				if factor > 0 {
					mode = "constr"
				}
				name := fmt.Sprintf("%s/%s/par%d", circuit, mode, par)
				t.Run(name, func(t *testing.T) {
					nl := compileBenchmark(t, circuit)
					res, err := Optimize(nl, Options{
						DelayFactor: factor,
						Parallelism: par,
						Transform:   transform.Config{AllowInverted: true},
					})
					if err != nil {
						t.Fatal(err)
					}
					got := engineGolden{
						hash:      nl.StructuralHash(),
						applied:   res.Applied,
						powerBits: math.Float64bits(res.Final.Power),
					}
					if par == 1 {
						got.rejects = res.Rejects
						got.checks = res.CheckStats
						got.attempts = res.Ledger.Attempts
					}
					want, ok := golden[name]
					if !ok {
						t.Fatalf("no golden entry; got %#v", got)
					}
					if got.hash != want.hash || got.applied != want.applied || got.powerBits != want.powerBits {
						t.Errorf("output drifted:\n got hash %s applied %d power %v (%#x)\nwant hash %s applied %d power %v (%#x)",
							got.hash, got.applied, res.Final.Power, got.powerBits,
							want.hash, want.applied, math.Float64frombits(want.powerBits), want.powerBits)
					}
					if par != 1 {
						return
					}
					if fmt.Sprint(got.rejects) != fmt.Sprint(want.rejects) {
						t.Errorf("rejects drifted: got %v want %v", got.rejects, want.rejects)
					}
					if got.checks != want.checks {
						t.Errorf("check stats drifted: got %+v want %+v", got.checks, want.checks)
					}
					if got.attempts != want.attempts {
						t.Errorf("ledger attempts drifted: got %d want %d", got.attempts, want.attempts)
					}
				})
			}
		}
	}
}
