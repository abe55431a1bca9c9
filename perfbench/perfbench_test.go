package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	same := func(what string, specs []metricSpec, got []struct{ Name, Unit string }) {
		if len(specs) != len(got) {
			t.Fatalf("%s: %d metrics in the benchmark, %d in BENCHMARK.json", what, len(specs), len(got))
		}
		for i, s := range specs {
			if s.name != got[i].Name || s.unit != got[i].Unit {
				t.Errorf("%s[%d]: benchmark %s/%s, BENCHMARK.json %s/%s", what, i, s.name, s.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(workloads), len(b.Workloads))
	}
	for i, w := range workloads {
		if w.name != b.Workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.name, b.Workloads[i].Name)
		}
	}
}

// lastJSON runs the command and decodes its last output line.
func lastJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return r
}

// TestEmittedMetricsMatchBenchmarkJSON runs the cheapest workload end to
// end, untraced and traced, and checks the printed metric names.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	b := loadBenchmarkJSON(t)
	for _, tc := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
		r := lastJSON(t, "--workload", "heavy-par2", "--seed", "5", "--seconds", "1", "--trace", tc.trace)
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %s: correct %t, %d of %d failed", tc.trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics emitted, want %d", tc.trace, len(r.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing or unit %q, want %q", tc.trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

// TestPassesDeterministic runs two passes of heavy-seq and of heavy-par2
// and requires identical power figures, work counters and output
// structural hashes. It uses cps, the smallest heavy-tier circuit, to
// keep the test short; the benchmark applies the same check to every
// pass of every run.
func TestPassesDeterministic(t *testing.T) {
	for _, name := range []string{"heavy-seq", "heavy-par2"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := compileCircuits([]string{"cps"})
		if err != nil {
			t.Fatal(err)
		}
		if err := prepare(ins, 1); err != nil {
			t.Fatal(err)
		}
		var passes []*passRecord
		for i := 0; i < 2; i++ {
			p, err := corePass(context.Background(), w, ins, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			passes = append(passes, p)
		}
		if errs := determinismErrors(passes); len(errs) > 0 {
			t.Errorf("%s: %v", name, errs)
		}
		for i := range passes[0].ops {
			a, b := passes[0].ops[i], passes[1].ops[i]
			if a.err != nil || signature(a) != signature(b) {
				t.Errorf("%s op %d: %v\n%s\n%s", name, i, a.err, signature(a), signature(b))
			}
		}
		eq := map[string]error{}
		for _, p := range passes {
			for _, err := range checkPass(w, p, 1, eq) {
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestCorruptedOutputCountedAsFailed breaks one gate of an optimized
// netlist and requires the oracle to fail it, on both the in-process
// path and the daemon-result path.
func TestCorruptedOutputCountedAsFailed(t *testing.T) {
	w, _ := workloadByName("heavy-seq")
	ins, err := compileCircuits([]string{"misex3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := prepare(ins, 1); err != nil {
		t.Fatal(err)
	}
	p, err := corePass(context.Background(), w, ins, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range checkPass(w, p, 1, map[string]error{}) {
		if e != nil {
			t.Fatalf("uncorrupted pass fails: %v", e)
		}
	}
	op := p.ops[0]
	served, _, err := blifOf(op.out)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(t, op)
	errs := checkPass(w, p, 1, map[string]error{})
	if errs[0] == nil {
		t.Fatal("corrupted output passed the oracle")
	}

	// The daemon path: the corrupted result as BLIF against the input.
	text, _, err := blifOf(op.out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(text, served) {
		t.Fatal("corruption did not change the BLIF")
	}
	in, err := blif.Read(bytes.NewReader(ins[0].blif), cellib.Lib2())
	if err != nil {
		t.Fatal(err)
	}
	out, err := blif.Read(bytes.NewReader(text), cellib.Lib2())
	if err != nil {
		t.Fatal(err)
	}
	ported, err := withInputPorts(in, out, 1)
	if err == nil {
		err = checkEquivalent(in, ported, 1)
	}
	if err == nil {
		t.Fatal("corrupted daemon result passed the oracle")
	}
}

// corrupt rewires the first fanin of the first primary output's driver
// to a primary input it does not read.
func corrupt(t *testing.T, op *opRecord) {
	t.Helper()
	nl := op.out
	g := nl.Outputs()[0].Driver
	reads := map[netlist.NodeID]bool{}
	for _, f := range nl.Node(g).Fanins() {
		reads[f] = true
	}
	for _, pi := range nl.Inputs() {
		if !reads[pi] {
			if err := nl.ReplaceFanin(g, 0, pi); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no input to rewire to")
}

func TestRenamedTwinHashesEqual(t *testing.T) {
	nl, err := xorRandom(3, 8, 40, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInput(nl)
	if err != nil {
		t.Fatal(err)
	}
	a, err := renameInternals(in.blif, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := renameInternals(in.blif, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := renameInternals(in.blif, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(a, in.blif) {
		t.Fatal("renaming is not a deterministic function of the seed")
	}
	for _, twin := range [][]byte{a, c} {
		if err := sameStructure(twin, in.hash); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []trace.Record{
		{Trace: "t", ID: 1, Name: "root", Start: at(0), End: at(10)},
		{Trace: "t", ID: 2, Parent: 1, Name: "kid", Start: at(1), End: at(4)},
		{Trace: "t", ID: 3, Parent: 1, Name: "kid", Start: at(3), End: at(6)},
		{Trace: "t", ID: 4, Parent: 1, Name: "GET /v1/jobs/j000007", Start: at(9), End: at(12)},
	}
	self := selfTime(spans)
	if got := self["root"]; got < 3.999 || got > 4.001 {
		t.Errorf("root self %.3f, want 4 (children cover 1-6 and 9-10)", got)
	}
	if got := self["kid"]; got < 5.999 || got > 6.001 {
		t.Errorf("kid self %.3f, want 6", got)
	}
	if _, ok := self["GET /v1/jobs/{id}"]; !ok {
		t.Errorf("job IDs not folded: %v", self)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := dir + "/" + name
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	host := hostFacts{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "x", GitRev: "aaaa"}
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"optimize_s": {Value: 2, Unit: "s"}}}
	a := write("a.json", report{Workload: "heavy-seq", Host: host, Result: res})
	newRev := host
	newRev.GitRev = "bbbb"
	b := write("b.json", report{Workload: "heavy-seq", Host: newRev, Result: res})
	oneCPU := newRev
	oneCPU.GOMAXPROCS = 1
	c := write("c.json", report{Workload: "heavy-seq", Host: oneCPU, Result: res})
	var out bytes.Buffer
	if err := compareReports(&out, a, b); err != nil {
		t.Fatalf("same host, new revision: %v", err)
	}
	if err := compareReports(&out, a, c); err == nil {
		t.Fatal("compared results from different GOMAXPROCS")
	}
}

// TestServicePass runs one service-mix pass on two small circuits: the
// two clients share the pass record, so run it under -race too.
func TestServicePass(t *testing.T) {
	ins, err := compileCircuits([]string{"misex3", "bw"})
	if err != nil {
		t.Fatal(err)
	}
	if err := prepare(ins, 1); err != nil {
		t.Fatal(err)
	}
	p, _, err := onePass(context.Background(), &workload{name: "service-mix", svc: true}, ins, 0, nil, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ins) * len(modes) * (1 + twinsPerOp); len(p.ops) != want {
		t.Fatalf("%d jobs, want %d", len(p.ops), want)
	}
	if len(p.hits) != len(ins)*len(modes)*twinsPerOp {
		t.Fatalf("%d hits", len(p.hits))
	}
	for _, err := range checkJobs(p, 1, map[string]error{}) {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestGaugeSlowdown(t *testing.T) {
	var none *gauge
	if none.sample() != 0 {
		t.Fatal("a nil gauge took a sample")
	}
	if s := (&gauge{}).slowdown(); s != 1 {
		t.Fatalf("empty gauge slow-down %g, want 1", s)
	}
	g := &gauge{samples: []float64{calibRefSeconds, 3 * calibRefSeconds, 2 * calibRefSeconds, 9 * calibRefSeconds}}
	if s := g.slowdown(); s < 2.499 || s > 2.501 {
		t.Fatalf("slow-down %g, want the median 2.5", s)
	}
	g = &gauge{}
	if g.sample() <= 0 || len(g.samples) != samplesPerPoint {
		t.Fatalf("one sample point took %d kernel runs, want %d", len(g.samples), samplesPerPoint)
	}
}
