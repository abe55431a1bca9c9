package main

import (
	"fmt"
	"math/rand"

	"powder/internal/atpg"
	"powder/internal/netlist"
)

// exhaustiveLimit is the input count up to which the evaluator applies
// every input vector instead of seeded random ones.
const exhaustiveLimit = 16

// randomWords is the number of 64-vector words the evaluator simulates
// when the input space is too large for exhaustive enumeration.
const randomWords = 64

// evaluate computes every primary output of nl over the given input
// words (keyed by input name), gate by gate from each cell's truth
// table. It deliberately shares nothing with the optimizer's simulator or
// its miter/SAT code, so it can catch a defect in either.
func evaluate(nl *netlist.Netlist, in map[string][]uint64, words int) (map[string][]uint64, error) {
	val := make([][]uint64, nl.NumNodes())
	for _, id := range nl.TopoOrder() {
		n := nl.Node(id)
		if n.IsInput() {
			v, ok := in[n.Name()]
			if !ok {
				return nil, fmt.Errorf("oracle: no stimulus for input %s", n.Name())
			}
			val[id] = v
			continue
		}
		tt := n.Cell().TT
		fanins := n.Fanins()
		out := make([]uint64, words)
		for m := uint(0); m < 1<<uint(len(fanins)); m++ {
			if !tt.Eval(m) {
				continue
			}
			for w := range out {
				term := ^uint64(0)
				for i, f := range fanins {
					if m>>uint(i)&1 == 1 {
						term &= val[f][w]
					} else {
						term &^= val[f][w]
					}
				}
				out[w] |= term
			}
		}
		val[id] = out
	}
	res := make(map[string][]uint64, len(nl.Outputs()))
	for _, po := range nl.Outputs() {
		res[po.Name] = val[po.Driver]
	}
	return res, nil
}

// stimulus returns input words for the named inputs: all 2^n vectors
// when n <= exhaustiveLimit, otherwise randomWords words from seed.
func stimulus(names []string, seed int64) (map[string][]uint64, int) {
	n := len(names)
	words := randomWords
	if n <= exhaustiveLimit {
		words = (1<<uint(n) + 63) / 64
	}
	rng := rand.New(rand.NewSource(seed))
	in := make(map[string][]uint64, n)
	for i, name := range names {
		v := make([]uint64, words)
		for w := range v {
			if n > exhaustiveLimit {
				v[w] = rng.Uint64()
				continue
			}
			for b := 0; b < 64; b++ {
				if (w*64+b)>>uint(i)&1 == 1 {
					v[w] |= 1 << uint(b)
				}
			}
		}
		in[name] = v
	}
	return in, words
}

// withInputPorts rebuilds a netlist read back from BLIF with the primary
// outputs of in. The BLIF writer names each output after its driving
// signal and emits a driver feeding several outputs once, so an
// optimized circuit's output list is in's list with labels changed and
// repeats dropped. Outputs are matched in order by their simulated
// values; a mismatch means the output is not equivalent.
func withInputPorts(in, out *netlist.Netlist, seed int64) (*netlist.Netlist, error) {
	var names []string
	for _, id := range in.Inputs() {
		names = append(names, in.Node(id).Name())
	}
	stim, words := stimulus(names, seed)
	want, err := evaluateOutputs(in, stim, words)
	if err != nil {
		return nil, err
	}
	got, err := evaluateOutputs(out, stim, words)
	if err != nil {
		return nil, err
	}
	same := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	outPOs := out.Outputs()
	match := make([]int, len(want))
	next := 0
	for i, w := range want {
		match[i] = -1
		if next < len(got) && same(w, got[next]) {
			match[i] = next
			next++
			continue
		}
		for k := 0; k < next; k++ {
			if same(w, got[k]) {
				match[i] = k
				break
			}
		}
		if match[i] < 0 {
			return nil, fmt.Errorf("oracle: output %s differs from every result output", in.Outputs()[i].Name)
		}
	}
	if next != len(got) {
		return nil, fmt.Errorf("oracle: result has %d outputs, only %d matched", len(got), next)
	}
	nl := netlist.New(out.Name, out.Lib)
	ids := make(map[netlist.NodeID]netlist.NodeID)
	for _, id := range in.Inputs() {
		name := in.Node(id).Name()
		nid, err := nl.AddInput(name)
		if err != nil {
			return nil, err
		}
		if oid := out.FindNode(name); oid != netlist.InvalidNode {
			ids[oid] = nid
		}
	}
	for _, id := range out.TopoOrder() {
		n := out.Node(id)
		if n.IsInput() {
			continue
		}
		fanins := make([]netlist.NodeID, len(n.Fanins()))
		for p, f := range n.Fanins() {
			fanins[p] = ids[f]
		}
		nid, err := nl.AddGate(n.Name(), n.Cell(), fanins)
		if err != nil {
			return nil, err
		}
		ids[id] = nid
	}
	for i, po := range in.Outputs() {
		if err := nl.AddOutput(po.Name, ids[outPOs[match[i]].Driver]); err != nil {
			return nil, err
		}
	}
	return nl, nil
}

// evaluateOutputs is evaluate with the outputs in declaration order.
func evaluateOutputs(nl *netlist.Netlist, in map[string][]uint64, words int) ([][]uint64, error) {
	byName, err := evaluate(nl, in, words)
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, len(nl.Outputs()))
	for i, po := range nl.Outputs() {
		out[i] = byName[po.Name]
	}
	return out, nil
}

// checkEquivalent is the per-operation functional oracle: the output
// netlist must match the input on every evaluated vector and be proven
// equivalent by atpg.Equivalent.
func checkEquivalent(in, out *netlist.Netlist, seed int64) error {
	var names []string
	for _, id := range in.Inputs() {
		names = append(names, in.Node(id).Name())
	}
	stim, words := stimulus(names, seed)
	want, err := evaluate(in, stim, words)
	if err != nil {
		return err
	}
	got, err := evaluate(out, stim, words)
	if err != nil {
		return err
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("oracle: output %s missing", name)
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("oracle: output %s differs on vector word %d", name, i)
			}
		}
	}
	r, err := atpg.Equivalent(in, out, 0)
	if err != nil {
		return fmt.Errorf("oracle: equivalence check: %w", err)
	}
	if r.Verdict != atpg.Permissible {
		return fmt.Errorf("oracle: equivalence verdict %v (output %s)", r.Verdict, r.DifferingOutput)
	}
	return nil
}
