package metrics

import (
	"strings"
	"testing"
	"time"

	"lwfs/internal/sim"
)

// fakeClock is a hand-cranked virtual clock for snapshot timestamp tests.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) now() sim.Time { return c.t }

// TestRegistrationSharing: registering one name twice with the same kind
// yields the SAME instrument — aggregation by collision is the contract two
// callers on one node rely on.
func TestRegistrationSharing(t *testing.T) {
	r := NewRegistry(nil)
	a := r.Counter("svc.reqs")
	b := r.Counter("svc.reqs")
	if a != b {
		t.Fatalf("same name+kind must return the shared counter")
	}
	a.Inc()
	b.Add(2)
	if got := a.Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	g1 := r.Gauge("svc.level")
	g2 := r.Gauge("svc.level")
	if g1 != g2 {
		t.Fatalf("same name+kind must return the shared gauge")
	}
	h1 := r.Histogram("svc.lat")
	h2 := r.Histogram("svc.lat")
	if h1 != h2 {
		t.Fatalf("same name+kind must return the shared histogram")
	}
}

// TestRegistrationKindCollisionPanics: one name must mean one thing — the
// same name under a different kind is a programming error and panics.
func TestRegistrationKindCollisionPanics(t *testing.T) {
	cases := []struct {
		name string
		seed func(*Registry)
		hit  func(*Registry)
	}{
		{"counter-then-gauge", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Gauge("x") }},
		{"counter-then-hist", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Histogram("x") }},
		{"gauge-then-counter", func(r *Registry) { r.Gauge("x") }, func(r *Registry) { r.Counter("x") }},
		{"hist-then-gaugefunc", func(r *Registry) { r.Histogram("x") }, func(r *Registry) { r.GaugeFunc("x", func() int64 { return 0 }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(nil)
			tc.seed(r)
			defer func() {
				if recover() == nil {
					t.Fatalf("kind collision must panic")
				}
			}()
			tc.hit(r)
		})
	}
}

// TestGaugeFuncReplacement: re-registering a function-backed gauge replaces
// the sampler — a restarted server's queue-depth closure supersedes the dead
// incarnation's.
func TestGaugeFuncReplacement(t *testing.T) {
	r := NewRegistry(nil)
	r.GaugeFunc("q.depth", func() int64 { return 7 })
	if got := r.Snapshot().Value("q.depth"); got != 7 {
		t.Fatalf("gauge func = %v, want 7", got)
	}
	r.GaugeFunc("q.depth", func() int64 { return 11 })
	if got := r.Snapshot().Value("q.depth"); got != 11 {
		t.Fatalf("replaced gauge func = %v, want 11", got)
	}
	// A settable gauge upgraded to function-backed reads the function, and
	// Set/Add become no-ops rather than corrupting the reading.
	g := r.Gauge("q.depth")
	g.Set(99)
	g.Add(5)
	if got := g.Value(); got != 11 {
		t.Fatalf("function-backed gauge after Set/Add = %v, want 11", got)
	}
}

// TestNilRegistrySafe: a nil registry (and the zero scope) hands out working
// unregistered instruments, so services instrument unconditionally.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("a.b")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("unregistered counter must still count")
	}
	g := r.Gauge("a.g")
	g.Set(4)
	if g.Value() != 4 {
		t.Fatalf("unregistered gauge must still hold a level")
	}
	r.GaugeFunc("a.f", func() int64 { return 1 }) // must not panic
	h := r.Histogram("a.h")
	h.Observe(1.5)
	if h.N() != 1 {
		t.Fatalf("unregistered histogram must still observe")
	}
	if r.Now() != 0 {
		t.Fatalf("nil registry Now must be zero")
	}
	snap := r.Snapshot()
	if len(snap.Values) != 0 {
		t.Fatalf("nil registry snapshot must be empty")
	}
	var s Scope
	s.Counter("zero.scope").Inc() // zero scope: same guarantee
}

// TestScopeNesting: scopes compose by dot-joining, and the instruments they
// register are shared with direct registration under the full name.
func TestScopeNesting(t *testing.T) {
	r := NewRegistry(nil)
	sc := r.Scope("burst").Scope("bb1").Scope("drain")
	if got := sc.Name("backlog"); got != "burst.bb1.drain.backlog" {
		t.Fatalf("scoped name = %q", got)
	}
	sc.Counter("syncs").Inc()
	if r.Counter("burst.bb1.drain.syncs").Value() != 1 {
		t.Fatalf("scoped counter must alias the fully-qualified name")
	}
}

// TestMatchName: "*" matches one or MORE dot segments, because instance
// names themselves contain dots ("osd0.0").
func TestMatchName(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"rpc.*.served", "rpc.storage/data.served", true},
		{"rpc.*.served", "rpc.osd0.0.served", true}, // * spans "osd0.0"
		{"rpc.*.served", "rpc.served", false},       // * needs >= 1 segment
		{"rpc.*", "rpc.a.b.c", true},
		{"rpc.*", "rpc", false},
		{"storage.*.cap_cache.hits", "storage.osd0.0.cap_cache.hits", true},
		{"storage.*.cap_cache.hits", "storage.osd0.0.cap_cache.misses", false},
		{"a.b", "a.b", true},
		{"a.b", "a.b.c", false},
		{"*", "anything", true},
		{"*.hits", "x.y.hits", true},
	}
	for _, tc := range cases {
		if got := MatchName(tc.pattern, tc.name); got != tc.want {
			t.Errorf("MatchName(%q, %q) = %v, want %v", tc.pattern, tc.name, got, tc.want)
		}
	}
}

// TestSnapshotDiffRates: deltas divide by elapsed VIRTUAL seconds, gauges
// diff but never rate in the table, and instruments registered between the
// two snapshots diff against zero.
func TestSnapshotDiffRates(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry(clk.now)
	c := r.Counter("svc.reqs")
	g := r.Gauge("svc.backlog")
	c.Add(10)
	g.Set(3)

	clk.t = sim.Time(1 * time.Second)
	prev := r.Snapshot()
	if prev.At != sim.Time(1*time.Second) {
		t.Fatalf("snapshot At = %v, want 1s", prev.At)
	}

	c.Add(40)
	g.Set(8)
	late := r.Counter("svc.late") // registered after the first snapshot
	late.Add(6)
	clk.t = sim.Time(3 * time.Second)
	cur := r.Snapshot()

	d := cur.Diff(prev)
	if d.Elapsed() != 2*time.Second {
		t.Fatalf("elapsed = %v, want 2s", d.Elapsed())
	}
	if got := d.Rate("svc.reqs"); got != 20 {
		t.Fatalf("rate(svc.reqs) = %v, want 20 (40 over 2 virtual seconds)", got)
	}
	if got := d.Rate("svc.late"); got != 3 {
		t.Fatalf("rate(svc.late) = %v, want 3 (diffed against zero)", got)
	}
	rows := d.Rows()
	byName := map[string]Row{}
	for _, row := range rows {
		byName[row.Name] = row
	}
	if row := byName["svc.backlog"]; row.Delta != 5 || row.Value != 8 {
		t.Fatalf("gauge row = %+v, want delta 5 value 8", row)
	}
	// Zero elapsed time must not divide by zero.
	same := cur.Diff(cur)
	if got := same.Rate("svc.reqs"); got != 0 {
		t.Fatalf("zero-elapsed rate = %v, want 0", got)
	}
}

// TestSnapshotLookups: Get/Value/Match/Sum/MergedHist behave over a sorted
// snapshot.
func TestSnapshotLookups(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("rpc.a.served").Add(3)
	r.Counter("rpc.b.served").Add(4)
	r.Counter("rpc.b.deduped").Add(9)
	h := r.Histogram("burst.bb0.drain.latency_ms")
	h.Observe(10)
	h.Observe(20)
	h2 := r.Histogram("burst.bb1.drain.latency_ms")
	h2.Observe(30)

	snap := r.Snapshot()
	if got := snap.Sum("rpc.*.served"); got != 7 {
		t.Fatalf("Sum(rpc.*.served) = %v, want 7", got)
	}
	if got := snap.Value("rpc.b.deduped"); got != 9 {
		t.Fatalf("Value = %v, want 9", got)
	}
	if _, ok := snap.Get("rpc.missing"); ok {
		t.Fatalf("Get of absent name must report !ok")
	}
	if got := len(snap.Match("burst.*.drain.latency_ms")); got != 2 {
		t.Fatalf("Match = %d hits, want 2", got)
	}
	merged := snap.MergedHist("burst.*.drain.latency_ms")
	if merged.N() != 3 {
		t.Fatalf("MergedHist N = %d, want 3", merged.N())
	}
	if got := merged.Mean(); got != 20 {
		t.Fatalf("MergedHist mean = %v, want 20", got)
	}
}

// TestDumpFormatGuard pins the text format `lwfsbench -metrics` emits. If
// this test breaks, downstream parsing of the dump (and EXPERIMENTS.md
// transcripts) breaks with it — change the format deliberately or not at
// all.
func TestDumpFormatGuard(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry(clk.now)
	r.Counter("cache.hits").Add(3)
	r.Counter("cache.misses").Add(1)
	r.Gauge("q.depth").Set(5)
	h := r.Histogram("lat_ms")
	h.Observe(10)
	h.Observe(20)

	clk.t = sim.Time(2 * time.Second)
	var snapBuf strings.Builder
	r.Snapshot().WriteTable(&snapBuf)
	wantSnap := strings.Join([]string{
		"# metrics snapshot @ 2s (4 instruments)",
		"name          kind       value  detail",
		"cache.hits    counter    3      -",
		"cache.misses  counter    1      -",
		"lat_ms        histogram  2      mean=15.0 p50=15.0 p99=19.9",
		"q.depth       gauge      5      -",
		"# derived",
		"cache.hit_ratio  0.750  (3/4)",
		"",
	}, "\n")
	if got := snapBuf.String(); got != wantSnap {
		t.Errorf("snapshot table drifted:\n--- got ---\n%s--- want ---\n%s", got, wantSnap)
	}

	prev := r.Snapshot()
	r.Counter("cache.hits").Add(5)
	r.Gauge("q.depth").Set(2)
	h.Observe(30)
	clk.t = sim.Time(4 * time.Second)
	var deltaBuf strings.Builder
	r.Snapshot().Diff(prev).WriteTable(&deltaBuf)
	wantDelta := strings.Join([]string{
		"# metrics delta 2s -> 4s (elapsed 2s)",
		"name          kind       value  delta  rate/s  detail",
		"cache.hits    counter    8      5      2.5     -",
		"cache.misses  counter    1      0      0.0     -",
		"lat_ms        histogram  3      1      0.5     mean=20.0 p50=20.0 p99=29.8",
		"q.depth       gauge      2      -3     -       -",
		"# derived",
		"cache.hit_ratio  0.889  (8/9)",
		"",
	}, "\n")
	if got := deltaBuf.String(); got != wantDelta {
		t.Errorf("delta table drifted:\n--- got ---\n%s--- want ---\n%s", got, wantDelta)
	}
}
