package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lwfs/internal/cluster"
	lwmetrics "lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// unit is one independently seeded piece of work on a fresh cluster: the
// set-up has already run when a workload returns it.
type unit struct {
	cl *cluster.Cluster
	lw *cluster.LWFS
	// run is the timed phase: it drives the cluster's kernel.
	run func() error
	// check verifies the outputs after the timed phase and fills in the
	// unit's result. Reads it issues are not timed.
	check func(r *unitResult) error
}

// unitResult is what one unit measured in virtual time.
type unitResult struct {
	ops       int           // operations attempted
	failed    int           // operations that failed or had the wrong outcome
	anomalies int           // outcomes that contradict what the client was told
	lat       *stats.Sample // virtual ms of each successful operation
	virt      time.Duration // virtual time the timed phase took
	// layer holds workload-specific per-layer figures for this unit; the
	// report takes the median over units.
	layer map[string]float64
}

func newUnitResult() unitResult {
	return unitResult{lat: &stats.Sample{}, layer: map[string]float64{}}
}

// workload is one named benchmark input.
type workload struct {
	name string
	// units is the batch size: a run does its units in batches, each in a
	// fresh process, and the virtual-time metrics come from the first
	// batch, so they repeat exactly. A fresh process per batch keeps one
	// batch's cost independent of the ones before it: the simulation
	// kernel has no shutdown, so every cluster's service processes stay
	// parked, and their memory held, for the life of the process.
	units int
	// unitSeconds is a unit's nominal host cost, set-up and checks
	// included, on the reference machine (see README.md). A run of
	// --seconds does seconds/unitSeconds units, rounded up to whole
	// batches, so its work is fixed by its arguments and never depends on
	// how fast the host is.
	unitSeconds float64
	// setup builds, deploys and prepares one unit; tr is nil when
	// untraced.
	setup func(seed int64, tr *tracer) (*unit, error)
	// spanLayers, when set, adds the workload's span-derived per-layer
	// figures.
	spanLayers func(tr *tracer, m map[string]float64)
	// probe, when set, is an extra correctness check run once per run,
	// untimed.
	probe func(seed int64) error
}

// batches is how many batches a run of the given length does.
func (w workload) batches(seconds float64) int {
	return max(1, int(math.Ceil(seconds/(w.unitSeconds*float64(w.units)))))
}

// unitSeed derives unit i's seed from the run seed (splitmix64), so the
// same --seed always builds the same inputs.
func unitSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// pass is the outcome of one batch of units, run back to back.
type pass struct {
	units     []unitResult
	setupS    []float64 // host seconds per set-up
	wallS     []float64 // host seconds per timed phase
	allocMB   []float64 // MiB allocated per timed phase
	mallocs   uint64
	checkErrs []string
	layers    map[string]float64 // traced pass only
}

// minSetups is how many set-ups a run times at least; workloads with
// fewer units per batch set up extra clusters just to time them.
const minSetups = 5

// runPass runs batch b of w in this process. With tr non-nil it also
// collects the per-layer figures.
func runPass(w workload, seed int64, b int, tr *tracer) (*pass, error) {
	p := &pass{}
	var lc *layerCollector
	if tr != nil {
		lc = newLayerCollector()
	}
	for i := b * w.units; i < (b+1)*w.units; i++ {
		h0 := time.Now()
		u, err := w.setup(unitSeed(seed, i), tr)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d set-up: %w", w.name, i, err)
		}
		p.setupS = append(p.setupS, time.Since(h0).Seconds())
		if lc != nil {
			lc.before(u)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h1 := time.Now()
		err = u.run()
		wall := time.Since(h1)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", w.name, i, err)
		}
		p.wallS = append(p.wallS, wall.Seconds())
		p.allocMB = append(p.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/mib)
		p.mallocs += m1.Mallocs - m0.Mallocs
		if lc != nil {
			lc.after(u, wall, m1.Mallocs-m0.Mallocs)
		}
		r := newUnitResult()
		if err := u.check(&r); err != nil {
			p.checkErrs = append(p.checkErrs, fmt.Sprintf("unit %d: %v", i, err))
		}
		if lc != nil {
			lc.diskSpan += time.Duration(len(u.lw.Servers)) * r.virt
		}
		p.units = append(p.units, r)
	}
	if b == 0 && w.probe != nil {
		if err := w.probe(seed); err != nil {
			p.checkErrs = append(p.checkErrs, err.Error())
		}
	}
	for len(p.setupS) < minSetups && b == 0 {
		h0 := time.Now()
		if _, err := w.setup(unitSeed(seed, -1-len(p.setupS)), nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		p.setupS = append(p.setupS, time.Since(h0).Seconds())
	}
	if lc != nil {
		p.layers = lc.finish()
	}
	return p, nil
}

const mib = 1 << 20

// batchReport is what one batch reports to the run that started it.
type batchReport struct {
	SetupS    []float64 `json:"setup_s"`
	WallS     []float64 `json:"wall_s"`
	AllocMB   []float64 `json:"alloc_mb"`
	Mallocs   uint64    `json:"mallocs"`
	Ops       int       `json:"ops"`
	Failed    int       `json:"failed"`
	Anomalies int       `json:"anomalies"`
	Samples   int       `json:"samples"` // successful-op latency samples
	PeakRSSMB float64   `json:"peak_rss_mb"`
	CheckErrs []string  `json:"check_errors"`
	// Virtual holds the batch's virtual-time figures: the end-to-end
	// ones and the median over units of each workload figure.
	Virtual map[string]float64 `json:"virtual"`
}

func (p *pass) report() batchReport {
	r := batchReport{SetupS: p.setupS, WallS: p.wallS, AllocMB: p.allocMB, Mallocs: p.mallocs,
		PeakRSSMB: peakRSSMB(), CheckErrs: p.checkErrs, Virtual: map[string]float64{}}
	var virt time.Duration
	lat := &stats.Sample{}
	vals := map[string][]float64{}
	for _, u := range p.units {
		r.Ops += u.ops
		r.Failed += u.failed
		r.Anomalies += u.anomalies
		virt += u.virt
		lat.Merge(u.lat)
		for k, v := range u.layer {
			vals[k] = append(vals[k], v)
		}
	}
	r.Samples = lat.N()
	r.Virtual["virt_ops_per_s"] = float64(r.Ops) / virt.Seconds()
	r.Virtual["virt_op_p50_ms"] = lat.Percentile(50)
	r.Virtual["virt_op_p99_ms"] = lat.Percentile(99)
	for k, v := range vals {
		r.Virtual[k] = median(v)
	}
	return r
}

// combine merges a run's batches into the end-to-end metrics: host
// figures are medians over every unit (peak RSS over every batch),
// virtual-time ones come from the first batch.
func combine(batches []batchReport) map[string]float64 {
	var setup, wall, alloc, peak []float64
	var mallocs uint64
	var ops int
	for _, b := range batches {
		setup = append(setup, b.SetupS...)
		wall = append(wall, b.WallS...)
		alloc = append(alloc, b.AllocMB...)
		peak = append(peak, b.PeakRSSMB)
		mallocs += b.Mallocs
		ops += b.Ops
	}
	m := map[string]float64{
		"setup_s":       median(setup),
		"wall_s":        median(wall),
		"alloc_mb":      median(alloc),
		"allocs_per_op": float64(mallocs) / float64(max(ops, 1)),
		"peak_rss_mb":   median(peak),
	}
	for _, k := range virtualMetrics {
		m[k] = batches[0].Virtual[k]
	}
	return m
}

// virtualMetrics are the end-to-end metrics measured in virtual time.
var virtualMetrics = []string{"virt_ops_per_s", "virt_op_p50_ms", "virt_op_p99_ms"}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// median and percentile interpolate linearly between order statistics.
func median(xs []float64) float64 { return percentile(xs, 50) }

func percentile(xs []float64, q float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(q)
}

// layerCollector gathers the per-layer figures of a traced pass: registry
// snapshot diffs, per-message virtual delays, queue depths sampled in
// virtual time, kernel event counts, device counters, runtime GC figures
// and CPU and allocation profiles.
type layerCollector struct {
	sums       map[string]float64
	msgDelayUs []float64
	qmax       float64
	diskBusy   time.Duration // summed over storage servers
	diskSpan   time.Duration // servers × virtual time of the timed phases
	wall       time.Duration
	mallocs    uint64

	snap0     lwmetrics.Snapshot
	events0   uint64
	dev0      []devCounters
	inflight  map[[2]netsim.NodeID][]sim.Time
	gc0       [3]float64
	cpuProf   bytes.Buffer
	alloc0    layerTotals
	profiling bool
}

type devCounters struct {
	busy                time.Duration
	read, wrote, served int64
}

func newLayerCollector() *layerCollector {
	lc := &layerCollector{sums: map[string]float64{}}
	lc.gc0 = gcFigures()
	var err error
	if lc.alloc0, err = allocProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: alloc profile:", err)
	}
	if err := pprof.StartCPUProfile(&lc.cpuProf); err == nil {
		lc.profiling = true
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	return lc
}

// gcFigures reads GC cycles, GC CPU seconds and total CPU seconds.
func gcFigures() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

func allocProfile() (layerTotals, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return attribute(b.Bytes(), "alloc_space")
}

// queueSample is the virtual-time interval at which the traced run
// samples server queue depths.
const queueSample = 100 * time.Millisecond

func (lc *layerCollector) before(u *unit) {
	lc.snap0 = u.cl.Metrics().Snapshot()
	lc.dev0 = lc.dev0[:0]
	for _, s := range u.lw.Servers {
		_, _, _, _, rd, wr := s.Device().Counters()
		lc.dev0 = append(lc.dev0, devCounters{s.Device().DiskBusy(), rd, wr, s.Served()})
	}
	lc.events0 = u.cl.K.EventsDispatched()
	lc.inflight = map[[2]netsim.NodeID][]sim.Time{}
	u.cl.Net.SetTrace(func(at sim.Time, m netsim.Message, ev string) {
		key := [2]netsim.NodeID{m.From, m.To}
		if ev == "tx" {
			lc.inflight[key] = append(lc.inflight[key], at)
			return
		}
		// Each (sender, receiver) pair delivers in send order: egress and
		// ingress are FIFO and the fabric latency is fixed.
		if q := lc.inflight[key]; len(q) > 0 {
			lc.msgDelayUs = append(lc.msgDelayUs, float64(at.Sub(q[0]))/1e3)
			lc.inflight[key] = q[1:]
		}
	})
	// The sampler stops rescheduling once nothing else is pending, so the
	// kernel run still ends when the workload does. It schedules no work of
	// its own, so it leaves every virtual-time result unchanged.
	k, reg := u.cl.K, u.cl.Metrics()
	var tick func()
	tick = func() {
		for _, v := range reg.Snapshot().Values {
			if strings.HasPrefix(v.Name, "rpc.") && strings.HasSuffix(v.Name, ".queue_depth") {
				lc.qmax = max(lc.qmax, v.Value)
			}
		}
		if k.QueueLen() > 0 {
			k.After(queueSample, tick)
		}
	}
	k.After(queueSample, tick)
}

func (lc *layerCollector) after(u *unit, wall time.Duration, mallocs uint64) {
	u.cl.Net.SetTrace(nil)
	d := u.cl.Metrics().Snapshot()
	diff := func(pattern string) float64 { return sumMatching(d, pattern) - sumMatching(lc.snap0, pattern) }
	add := func(name string, v float64) { lc.sums[name] += v }
	add("netsim.bytes", diff("net.*.bytes_sent"))
	add("netsim.msgs", diff("net.*.msgs_sent"))
	add("portals.rpcs", diff("rpc.*.served"))
	add("portals.retries", diff("rpc.client.*.retries"))
	add("portals.late_replies", diff("rpc.client.*.late_replies"))
	add("portals.drops", diff("portals.*.no_match_drops")+diff("portals.*.late_drops")+diff("net.dropped"))
	add("authz.verifies", diff("authz.verifies"))
	add("cap.hits", diff("storage.*.cap_cache.hits"))
	add("cap.misses", diff("storage.*.cap_cache.misses"))
	add("txn.commits", diff("txn.*.commits"))
	add("txn.aborts", diff("txn.*.aborts"))
	add("trace.replay.ops", diff("trace.replay.ops"))
	add("trace.replay.bytes", diff("trace.replay.bytes"))
	add("trace.replay.errors", diff("trace.replay.errors"))
	for i, s := range u.lw.Servers {
		_, _, _, _, rd, wr := s.Device().Counters()
		lc.diskBusy += s.Device().DiskBusy() - lc.dev0[i].busy
		add("osd.bytes_read", float64(rd-lc.dev0[i].read))
		add("osd.bytes_written", float64(wr-lc.dev0[i].wrote))
		add("storage.served", float64(s.Served()-lc.dev0[i].served))
	}
	add("sim.events", float64(u.cl.K.EventsDispatched()-lc.events0))
	lc.wall += wall
	lc.mallocs += mallocs
}

// sumMatching is Snapshot.Sum for patterns with at most one "*", matched
// as a prefix and a suffix — cheap enough to run on every unit.
func sumMatching(s lwmetrics.Snapshot, pattern string) float64 {
	pre, suf, wild := strings.Cut(pattern, "*")
	var total float64
	for _, v := range s.Values {
		if wild && len(v.Name) > len(pre)+len(suf) && strings.HasPrefix(v.Name, pre) && strings.HasSuffix(v.Name, suf) ||
			!wild && v.Name == pattern {
			total += v.Value
		}
	}
	return total
}

// finish stops the profiles and returns the per-layer figures.
func (lc *layerCollector) finish() map[string]float64 {
	m := map[string]float64{}
	var cpu, allocs layerTotals
	if lc.profiling {
		pprof.StopCPUProfile()
		var err error
		if cpu, err = attribute(lc.cpuProf.Bytes(), "cpu"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	if a, err := allocProfile(); err == nil && lc.alloc0 != nil {
		allocs = a.minus(lc.alloc0)
	}
	gc1 := gcFigures()
	for k, v := range lc.sums {
		m[k] = v
	}
	m["sim.host_ns_per_event"] = float64(lc.wall.Nanoseconds()) / max(lc.sums["sim.events"], 1)
	m["netsim.msg_delay_us.p50"] = percentile(lc.msgDelayUs, 50)
	m["netsim.msg_delay_us.p99"] = percentile(lc.msgDelayUs, 99)
	m["portals.allocs_per_rpc"] = float64(lc.mallocs) / max(lc.sums["portals.rpcs"], 1)
	m["portals.queue_depth_max"] = lc.qmax
	if h := lc.sums["cap.hits"] + lc.sums["cap.misses"]; h > 0 {
		m["storage.cap_cache.hit_ratio"] = lc.sums["cap.hits"] / h
	}
	delete(m, "cap.hits")
	delete(m, "cap.misses")
	if lc.diskSpan > 0 {
		m["osd.disk_busy_frac"] = float64(lc.diskBusy) / float64(lc.diskSpan)
	}
	m["runtime.gc.cycles"] = gc1[0] - lc.gc0[0]
	if cpuS := gc1[2] - lc.gc0[2]; cpuS > 0 {
		m["runtime.gc.cpu_share"] = (gc1[1] - lc.gc0[1]) / cpuS
	}
	for _, layer := range profiledLayers {
		m[layer+".cpu_share"] = cpu.share(layer)
	}
	for _, layer := range allocLayers {
		m[layer+".alloc_share"] = allocs.share(layer)
	}
	return m
}

// profiledLayers are the layers whose CPU and allocation shares the
// traced run reports.
var profiledLayers = []string{
	"sim", "netsim", "portals", "authz", "storage", "osd", "txn", "naming",
	"core", "checkpoint", "stdfs", "lwfspfs", "stripe", "trace", "runtime", "bench",
}

// allocLayers are the layers whose allocation shares it reports.
var allocLayers = []string{"sim", "netsim", "portals", "osd", "txn", "naming", "lwfspfs", "stdfs", "runtime"}
