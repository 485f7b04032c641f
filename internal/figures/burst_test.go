package figures

import (
	"strings"
	"testing"
)

// TestBurstSweepHidesDrainLatency: on the buffered points the apparent
// (acked) checkpoint time sits below the durable (drained + committed) time,
// the direct baseline shows no such gap, and the throttled drain widens it.
func TestBurstSweepHidesDrainLatency(t *testing.T) {
	res, err := BurstSweep(BurstOpts{
		Buffers:      []int{0, 2},
		DrainBWs:     []float64{0, 8 << 20},
		Procs:        4,
		Servers:      2,
		BytesPerProc: 2 << 20,
		Trials:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0 buffers collapses the BW sweep to one point; 2 buffers keeps both.
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	direct, buffered, throttled := res.Points[0], res.Points[1], res.Points[2]
	if direct.Apparent.Mean() != direct.Durable.Mean() {
		t.Fatalf("no-tier baseline: apparent %f != durable %f",
			direct.Apparent.Mean(), direct.Durable.Mean())
	}
	for _, pt := range []BurstPoint{buffered, throttled} {
		if pt.Durable.Mean() <= pt.Apparent.Mean() {
			t.Fatalf("buffers=%d bw=%v: durable %f not above apparent %f",
				pt.Buffers, pt.DrainBW, pt.Durable.Mean(), pt.Apparent.Mean())
		}
		if pt.Apparent.Mean() >= direct.Apparent.Mean() {
			t.Fatalf("buffers=%d: apparent %f not below direct %f — the tier bought nothing",
				pt.Buffers, pt.Apparent.Mean(), direct.Apparent.Mean())
		}
		if pt.DrainP50.N() == 0 || pt.DrainP99.Mean() < pt.DrainP50.Mean() {
			t.Fatalf("buffers=%d: drain percentiles p50=%f p99=%f",
				pt.Buffers, pt.DrainP50.Mean(), pt.DrainP99.Mean())
		}
	}
	// Throttling the drain must widen the hidden tail, not shrink it.
	if throttled.Durable.Mean() <= buffered.Durable.Mean() {
		t.Fatalf("throttled durable %f not above unthrottled %f",
			throttled.Durable.Mean(), buffered.Durable.Mean())
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "durable/apparent") {
		t.Fatalf("render output:\n%s", b.String())
	}
	// The -metrics capture path: one snapshot pair per sweep point, and the
	// rendered deltas carry the tier's instruments without any getter code.
	if len(res.Captures) != len(res.Points) {
		t.Fatalf("captures = %d, want one per point (%d)", len(res.Captures), len(res.Points))
	}
	b.Reset()
	RenderMetricsCaptures(&b, res.Captures)
	for _, want := range []string{"# metrics delta", "burst.bb0.drain.backlog", "rpc.", "cap_cache.hit_ratio"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics capture output missing %q:\n%s", want, b.String())
		}
	}
}
