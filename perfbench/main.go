// Command perfbench is the repository's benchmark. Each invocation runs
// one named workload against freshly built simulated clusters and prints
// its metrics, each by name with its unit, ending with one JSON line:
//
//	go run . --workload ckpt --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload's first batch of units untraced and traced and reports the
// per-layer metrics and the tracing overhead instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs_per_op", "mallocs/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"virt_ops_per_s", "ops/s", "higher"},
	{"virt_op_p50_ms", "ms", "lower"},
	{"virt_op_p99_ms", "ms", "lower"},
}

// perLayer are the per-layer metrics of a traced run. A layer a workload
// does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	c := func(name string) metricDef { return metricDef{name, "count", "lower"} }
	f := func(name string) metricDef { return metricDef{name, "fraction", "lower"} }
	ms := func(name string) metricDef { return metricDef{name, "ms", "lower"} }
	defs := []metricDef{
		c("sim.events"), {"sim.host_ns_per_event", "ns", "lower"},
		{"netsim.bytes", "B", "lower"}, c("netsim.msgs"),
		{"netsim.msg_delay_us.p50", "us", "lower"}, {"netsim.msg_delay_us.p99", "us", "lower"},
		c("portals.rpcs"), {"portals.allocs_per_rpc", "mallocs/rpc", "lower"},
		c("portals.queue_depth_max"), c("portals.retries"), c("portals.late_replies"), c("portals.drops"),
		c("authz.verifies"), {"storage.cap_cache.hit_ratio", "fraction", "higher"}, c("storage.served"),
		f("osd.disk_busy_frac"), {"osd.bytes_written", "B", "lower"}, {"osd.bytes_read", "B", "lower"},
		c("txn.commits"), c("txn.aborts"), c("txn.anomalies"),
		ms("txn.commit_ms.p50"), ms("txn.commit_ms.p99"),
		{"txn.commit_host_us.first_decile", "us", "lower"}, {"txn.commit_host_us.last_decile", "us", "lower"},
		ms("checkpoint.create_ms"), ms("checkpoint.write_ms"), ms("checkpoint.sync_ms"),
		ms("checkpoint.close_ms"), ms("checkpoint.restore_ms"),
		{"checkpoint.dump_MBps", "MB/s", "higher"}, {"checkpoint.restore_MBps", "MB/s", "higher"},
		f("stdfs.reread_frac"), {"stdfs.rpcs_per_op", "rpcs/op", "lower"},
		c("trace.replay.ops"), {"trace.replay.bytes", "B", "lower"}, c("trace.replay.errors"),
		{"trace.replay.MBps", "MB/s", "higher"},
		c("runtime.gc.cycles"), f("runtime.gc.cpu_share"),
		f("bench.op_error_rate"), {"bench.trace_overhead_s", "s", "lower"},
	}
	for _, op := range metaOps {
		defs = append(defs, ms("core."+op+".virt_ms.p50"), ms("core."+op+".virt_ms.p99"),
			metricDef{"core." + op + ".host_us.p50", "us", "lower"})
	}
	for _, op := range replayOps {
		defs = append(defs, ms("stdfs."+op+".virt_ms.p50"), ms("stdfs."+op+".virt_ms.p99"),
			metricDef{"stdfs." + op + ".host_us.p50", "us", "lower"})
	}
	for _, layer := range profiledLayers {
		defs = append(defs, f(layer+".cpu_share"))
	}
	for _, layer := range allocLayers {
		defs = append(defs, f(layer+".alloc_share"))
	}
	return defs
}

var workloads = map[string]workload{
	"ckpt":   ckptWorkload,
	"meta":   metaWorkload,
	"replay": replayWorkload,
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: ckpt, meta or replay")
	seed := flag.Int64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := flag.Float64("seconds", 10, "run length: seconds over the workload's nominal unit cost gives the units run")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	spans := flag.String("spans", "", "traced run: write every span to this file")
	batch := flag.Int("batch", -1, "run only this batch of units and print its report (the run starts one process per batch)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload ckpt|meta|replay and --trace 0|1\n")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	var out any
	var err error
	switch {
	case *batch >= 0:
		var p *pass
		if p, err = runPass(w, *seed, *batch, nil); err == nil {
			out = p.report()
		}
	case *traced == 1:
		stamp(os.Stdout, *name, *seed)
		out, err = runTraced(os.Stdout, w, *seed, *spans)
	default:
		stamp(os.Stdout, *name, *seed)
		out, err = runUntraced(os.Stdout, w, *seed, w.batches(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// stamp prints the environment every result depends on.
func stamp(out io.Writer, name string, seed int64) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# env: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, name, seed)
}

func runUntraced(out io.Writer, w workload, seed int64, batches int) (result, error) {
	var reps []batchReport
	for b := 0; b < batches; b++ {
		r, err := runBatch(w, seed, b)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
	}
	e := combine(reps)
	res := newResult(reps)
	for _, d := range endToEnd {
		res.Metrics[d.name] = value{e[d.name], d.unit}
	}
	fmt.Fprintf(out, "# %s: %d batches of %d units; virtual-time metrics from batch 0, %d successful-op latency samples\n",
		w.name, batches, w.units, reps[0].Samples)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t(%s is better)\n", d.name, e[d.name], d.unit, d.better)
	}
	for _, k := range sortedKeys(reps[0].Virtual) {
		if unitOf(k) != "" {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t(batch 0, median over units)\n", k, reps[0].Virtual[k], unitOf(k))
		}
	}
	anomalies := 0
	for _, r := range reps {
		anomalies += r.Anomalies
	}
	fmt.Fprintf(tw, "op_error_rate\t%.6g\tfraction\t(%d of %d ops; %d anomalies)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, anomalies)
	tw.Flush()
	reportChecks(out, reps)
	return res, nil
}

// runTraced runs the workload's first batch traced in this process and
// untraced in a child process, so both start from a fresh heap. The
// per-layer metrics come from the traced pass; the difference between the
// passes' wall_s is the tracing overhead. Tracing must leave every
// virtual-time figure unchanged, which the run checks.
func runTraced(out io.Writer, w workload, seed int64, spanFile string) (result, error) {
	plain, err := runBatch(w, seed, 0)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	p, err := runPass(w, seed, 0, tr)
	if err != nil {
		return result{}, err
	}
	rep := p.report()
	m := p.layers
	if w.spanLayers != nil {
		w.spanLayers(tr, m)
	}
	for k, v := range rep.Virtual {
		if unitOf(k) != "" {
			m[k] = v
		}
	}
	m["txn.anomalies"] = float64(rep.Anomalies)
	m["bench.op_error_rate"] = float64(rep.Failed) / float64(max(rep.Ops, 1))
	overhead := median(p.wallS) - median(plain.WallS)
	m["bench.trace_overhead_s"] = overhead
	for _, k := range sortedKeys(plain.Virtual) {
		if a, b := plain.Virtual[k], rep.Virtual[k]; a != b {
			rep.CheckErrs = append(rep.CheckErrs, fmt.Sprintf("tracing changed %s: untraced %v, traced %v", k, a, b))
		}
	}
	res := newResult([]batchReport{plain, rep})
	res.Attempted, res.Failed = rep.Ops, rep.Failed
	for _, d := range perLayer {
		res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	fmt.Fprintf(out, "# %s traced: %d units, %d spans; wall_s untraced %.4g s, traced %.4g s, overhead %.4g s\n",
		w.name, len(p.units), len(tr.spans), median(plain.WallS), median(p.wallS), overhead)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, m[d.name], d.unit)
	}
	tw.Flush()
	self := tr.selfTimes()
	fmt.Fprintln(out, "# span self time: name virtual_ms host_ms")
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(out, "#   %s %.3f %.3f\n", k, float64(self[k][0])/1e6, float64(self[k][1])/1e6)
	}
	if spanFile != "" {
		f, err := os.Create(spanFile)
		if err != nil {
			return result{}, err
		}
		if err := tr.write(f); err != nil {
			f.Close()
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	reportChecks(out, []batchReport{plain, rep})
	return res, nil
}

// runBatch runs batch b of the workload in a child process of this
// program and returns its report.
func runBatch(w workload, seed int64, b int) (batchReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return batchReport{}, err
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--batch", strconv.Itoa(b))
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return batchReport{}, fmt.Errorf("batch %d: %w", b, err)
	}
	var r batchReport
	if err := json.Unmarshal(outb, &r); err != nil {
		return batchReport{}, fmt.Errorf("batch %d report: %w", b, err)
	}
	return r, nil
}

func newResult(reps []batchReport) result {
	res := result{Correct: true, Metrics: map[string]value{}}
	for _, r := range reps {
		res.Attempted += r.Ops
		res.Failed += r.Failed
		if len(r.CheckErrs) > 0 {
			res.Correct = false
		}
	}
	return res
}

func reportChecks(out io.Writer, reps []batchReport) {
	for _, r := range reps {
		for _, e := range r.CheckErrs {
			fmt.Fprintln(out, "# CHECK FAILED:", e)
		}
	}
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
