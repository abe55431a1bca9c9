package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
)

// xorCells is the cell mix of the xor-random netlists: XOR-rich logic
// defeats simulation-based candidate filtering, so many candidates reach
// the SAT proof.
var xorCells = []string{"xor2", "xnor2", "mux2", "nand2", "aoi21", "inv"}

// xorRandom builds a seeded random mapped netlist: nIn primary inputs,
// nGates gates whose fanins are drawn from the last window signals, and
// nOut outputs tapped near the end. Dead logic is swept, so the live gate
// count is below nGates. With 32 inputs the circuit is beyond exhaustive
// simulation, which is what pushes the optimizer onto its SAT path.
func xorRandom(seed int64, nIn, nGates, window, nOut int) (*netlist.Netlist, error) {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("xor%d_%d", nGates, seed), cellib.Lib2())
	pool := make([]netlist.NodeID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		id, err := nl.AddInput(logic.VarName(i))
		if err != nil {
			return nil, err
		}
		pool = append(pool, id)
	}
	for i := 0; i < nGates; i++ {
		cell := nl.Lib.Cell(xorCells[rng.Intn(len(xorCells))])
		fanins := make([]netlist.NodeID, cell.NumPins())
		lo := 0
		if len(pool) > window {
			lo = len(pool) - window
		}
		for p := range fanins {
			fanins[p] = pool[lo+rng.Intn(len(pool)-lo)]
		}
		id, err := nl.AddGate("", cell, fanins)
		if err != nil {
			return nil, err
		}
		pool = append(pool, id)
	}
	for i := 0; i < nOut; i++ {
		if err := nl.AddOutput("out"+logic.VarName(i), pool[len(pool)-1-3*i]); err != nil {
			return nil, err
		}
	}
	nl.SweepDead()
	return nl, nil
}

// renameInternals rewrites a mapped BLIF so every internal signal (one
// that is neither a primary input nor a primary output) gets a fresh
// seeded name. The circuit is structurally identical, so it must hash
// equal and be served from a structural-hash result cache.
func renameInternals(src []byte, seed int64) ([]byte, error) {
	lines, err := joinContinuations(src)
	if err != nil {
		return nil, err
	}
	ports := map[string]bool{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) > 0 && (f[0] == ".inputs" || f[0] == ".outputs") {
			for _, n := range f[1:] {
				ports[n] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	names := map[string]string{}
	rename := func(n string) string {
		if ports[n] {
			return n
		}
		if r, ok := names[n]; ok {
			return r
		}
		r := fmt.Sprintf("w%08x_%d", rng.Uint32(), len(names))
		names[n] = r
		return r
	}
	var out bytes.Buffer
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 2 || f[0] != ".gate" {
			out.WriteString(l)
			out.WriteByte('\n')
			continue
		}
		out.WriteString(".gate " + f[1])
		for _, pin := range f[2:] {
			k, v, ok := strings.Cut(pin, "=")
			if !ok {
				return nil, fmt.Errorf("rename: malformed pin binding %q", pin)
			}
			out.WriteString(" " + k + "=" + rename(v))
		}
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// joinContinuations splits BLIF text into logical lines, folding
// backslash-continued physical lines together.
func joinContinuations(src []byte) ([]string, error) {
	var lines []string
	var cur strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(src))
	sc.Buffer(make([]byte, 0, 64*1024), len(src)+1)
	for sc.Scan() {
		t := sc.Text()
		if strings.HasSuffix(t, "\\") {
			cur.WriteString(strings.TrimSuffix(t, "\\"))
			cur.WriteByte(' ')
			continue
		}
		cur.WriteString(t)
		lines = append(lines, cur.String())
		cur.Reset()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur.Len() > 0 {
		lines = append(lines, cur.String())
	}
	return lines, nil
}
