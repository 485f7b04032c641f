package figures_test

import (
	"bytes"
	"strings"
	"testing"

	"lwfs/internal/figures"
)

// E19 acceptance, quick shape: writes measured for all three schemes with
// redundancy costing bandwidth, a degraded read slower than a healthy one,
// rebuild time growing with affected layout count, and the redundancy
// instruments moving.
func TestRebuildSweepShape(t *testing.T) {
	opts := figures.RebuildOpts{
		DataMB:  4,
		Objects: []int{2, 4},
		Trials:  1,
	}
	res, err := figures.RebuildSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Writes) != 3 || len(res.Reads) != 2 || len(res.Rebuilds) != 2 {
		t.Fatalf("points = %d/%d/%d, want 3/2/2", len(res.Writes), len(res.Reads), len(res.Rebuilds))
	}
	var raid0, replica float64
	for _, pt := range res.Writes {
		switch pt.Scheme {
		case "raid0":
			raid0 = pt.MBs.Mean()
		case "replica2":
			replica = pt.MBs.Mean()
		}
	}
	if raid0 <= 0 || replica <= 0 || replica >= raid0 {
		t.Errorf("replication write overhead missing: raid0 %.0f MB/s vs replica %.0f MB/s", raid0, replica)
	}
	for _, pt := range res.Reads {
		if pt.DegradedMs.Mean() <= pt.HealthyMs.Mean() {
			t.Errorf("%s: degraded read (%.1f ms) not slower than healthy (%.1f ms)",
				pt.Scheme, pt.DegradedMs.Mean(), pt.HealthyMs.Mean())
		}
	}
	if res.Rebuilds[1].Ms.Mean() <= res.Rebuilds[0].Ms.Mean() {
		t.Errorf("rebuild time did not grow with layout count: %v", res.Rebuilds)
	}
	if len(res.Captures) != 4 {
		t.Fatalf("captures = %d, want 4 (two read points + two rebuild points)", len(res.Captures))
	}
	var b bytes.Buffer
	figures.RenderMetricsCaptures(&b, res.Captures)
	for _, instr := range []string{"stripe", "degraded_reads", "rebuild"} {
		if !strings.Contains(b.String(), instr) {
			t.Errorf("metrics capture missing %q instruments:\n%s", instr, b.String())
		}
	}
	b.Reset()
	res.Render(&b)
	for _, want := range []string{"write bandwidth", "degraded", "rebuild time"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q:\n%s", want, b.String())
		}
	}
}
