package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"

	"lwfs/internal/checkpoint"
	"lwfs/internal/netsim"
	"lwfs/internal/trace"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	flat := func(ds []metricDef) [][3]string {
		var out [][3]string
		for _, d := range ds {
			out = append(out, [3]string{d.name, d.unit, d.better})
		}
		return out
	}
	var e2e, layers [][3]string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, [3]string{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, [3]string{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, flat(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", e2e, flat(endToEnd))
	}
	if !reflect.DeepEqual(layers, flat(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", layers, flat(perLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

func TestVerifyRestoreRejectsCorruption(t *testing.T) {
	const n = 256
	good := func() (*checkpoint.Result, *restart) {
		rs := &restart{manifest: checkpoint.Manifest{Ranks: ckptRanks, BytesPerProc: n}}
		for rank := 0; rank < ckptRanks; rank++ {
			rs.payloads = append(rs.payloads, netsim.BytesPayload(checkpoint.PatternFor(rank, n)))
			rs.errs = append(rs.errs, nil)
		}
		return &checkpoint.Result{}, rs
	}
	res, rs := good()
	if err := verifyRestore(res, rs, n, true); err != nil {
		t.Fatalf("intact restore rejected: %v", err)
	}
	res, rs = good()
	rs.payloads[7].Data[100] ^= 1
	if err := verifyRestore(res, rs, n, true); err == nil {
		t.Error("corrupted restore accepted")
	}
	res, rs = good()
	rs.payloads[3] = netsim.SyntheticPayload(n - 1)
	if err := verifyRestore(res, rs, n, false); err == nil {
		t.Error("short restore accepted")
	}
	res, rs = good()
	rs.errs[5] = errors.New("object missing")
	if err := verifyRestore(res, rs, n, false); err == nil {
		t.Error("failed restore read accepted")
	}
	res, rs = good()
	res.Aborted = true
	if err := verifyRestore(res, rs, n, false); err == nil {
		t.Error("aborted dump accepted")
	}
}

func TestVerifyReplayRejectsErrors(t *testing.T) {
	tr, seeded, err := seededTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	ok := trace.Result{Ops: 2 * len(tr.Events), Bytes: 2 * tr.Payload()}
	if err := verifyReplay(&ok, tr, 2); err != nil {
		t.Fatalf("clean replay rejected: %v", err)
	}
	bad := ok
	bad.Errors = 1
	if verifyReplay(&bad, tr, 2) == nil {
		t.Error("replay with an error accepted")
	}
	bad = ok
	bad.Ops--
	if verifyReplay(&bad, tr, 2) == nil {
		t.Error("replay missing an op accepted")
	}
	bad = ok
	bad.Bytes -= 4096
	if verifyReplay(&bad, tr, 2) == nil {
		t.Error("replay missing bytes accepted")
	}

	var got [][]byte
	for ci := 0; ci < 2; ci++ {
		for _, i := range seeded {
			ev := tr.Events[i]
			got = append(got, trace.DataFor(ev.Seed, ev.Len))
		}
	}
	if err := verifyExtents(tr, seeded, 2, got); err != nil {
		t.Fatalf("intact extents rejected: %v", err)
	}
	got[len(got)-1][5] ^= 0x80
	if verifyExtents(tr, seeded, 2, got) == nil {
		t.Error("corrupted extent accepted")
	}
}

func TestSeededTraceIsReproducible(t *testing.T) {
	a, ia, err := seededTrace(42)
	if err != nil {
		t.Fatal(err)
	}
	b, ib, _ := seededTrace(42)
	c, ic, _ := seededTrace(43)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ia, ib) {
		t.Error("same seed built different traces")
	}
	if reflect.DeepEqual(ia, ic) && reflect.DeepEqual(a, c) {
		t.Error("different seeds built the same trace")
	}
	if len(ia) != replaySeeded {
		t.Errorf("%d seeded writes, want %d", len(ia), replaySeeded)
	}
}

func TestClassifyMetaOutcomes(t *testing.T) {
	rejected := errors.New("commit rejected")
	for _, tc := range []struct {
		name            string
		o               cycleOutcome
		failed, anomaly bool
	}{
		{"committed and visible", cycleOutcome{visible: true, present: true}, false, false},
		{"rejected and invisible", cycleOutcome{told: rejected}, true, false},
		{"rejected but visible", cycleOutcome{told: rejected, visible: true}, true, true},
		{"rejected but object kept", cycleOutcome{told: rejected, present: true}, true, true},
		{"committed but invisible", cycleOutcome{present: true}, true, true},
		{"committed, object lost", cycleOutcome{visible: true}, true, false},
		{"remove failed", cycleOutcome{visible: true, present: true, removed: rejected}, true, false},
	} {
		f, a := classify(tc.o)
		if f != tc.failed || a != tc.anomaly {
			t.Errorf("%s: classify = (%v, %v), want (%v, %v)", tc.name, f, a, tc.failed, tc.anomaly)
		}
	}
}

// TestTracingLeavesVirtualTimeUnchanged runs one unit of each workload
// untraced and traced and requires identical virtual-time figures.
func TestTracingLeavesVirtualTimeUnchanged(t *testing.T) {
	for _, w := range []workload{ckptWorkload, metaWorkload, replayWorkload} {
		if testing.Short() && w.name == "replay" {
			continue
		}
		w.units = 1
		plain, err := runPass(w, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runPass(w, 7, 0, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.checkErrs)+len(traced.checkErrs) > 0 {
			t.Errorf("%s: checks failed: %v %v", w.name, plain.checkErrs, traced.checkErrs)
		}
		a, b := plain.report().Virtual, traced.report().Virtual
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: tracing changed virtual-time figures:\nuntraced %v\ntraced   %v", w.name, a, b)
		}
		if len(traced.layers) == 0 {
			t.Errorf("%s: traced pass reported no per-layer figures", w.name)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 20}}
	if got := covered(iv, 2, 15); got != 1+(15-5) {
		t.Errorf("covered = %d, want 11", got)
	}
	tr := newTracer()
	root := tr.begin("root", 0, 0)
	c := tr.begin("child", root, 10)
	tr.end(c, 30)
	tr.end(root, 100)
	if self := tr.selfTimes()["root"][0]; self != 80 {
		t.Errorf("root self time = %v, want 80ns", self)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"lwfs/internal/sim.(*Kernel).loop":               "sim",
		"lwfs/internal/osd.(*Blob).insert":               "osd",
		"lwfs/internal/stats.(*Sample).Add":              "stats",
		"main.(*tracer).begin":                           "bench",
		"runtime.mallocgc":                               "",
		"slices.Sort[go.shape.[]lwfs/internal/sim.Time]": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink [][]byte

func TestAttributeAllocations(t *testing.T) {
	for i := 0; i < 2000; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		t.Fatal(err)
	}
	totals, err := attribute(b.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if totals.share("bench") <= 0 {
		t.Errorf("allocations made here not charged to the benchmark: %v", totals)
	}
	if _, err := attribute(b.Bytes(), "no_such_type"); err == nil {
		t.Error("unknown sample type accepted")
	}
}
