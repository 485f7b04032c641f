// Command lwfsbench regenerates every table and figure of the paper's
// evaluation on the simulated cluster:
//
//	lwfsbench -experiment fig9              # Figure 9, all three panels
//	lwfsbench -experiment fig10             # Figure 10 a/b/c
//	lwfsbench -experiment table1            # Table 1
//	lwfsbench -experiment table2            # Table 2 params vs measurement
//	lwfsbench -experiment petaflop          # §4 scaling projection
//	lwfsbench -experiment security          # §3.1 protocol microbenchmarks
//	lwfsbench -experiment filtering         # §6 server-side filtering vs read-everything
//	lwfsbench -experiment faults            # lossy-fabric degradation sweep
//	lwfsbench -experiment burst             # burst-tier apparent vs durable sweep
//	lwfsbench -experiment recovery          # journaled staging under buffer crash
//	lwfsbench -experiment stripe            # striped-engine single-file bandwidth
//	lwfsbench -experiment rebuild           # redundancy cost, degraded reads, rebuild
//	lwfsbench -experiment meta              # replicated-metadata cost and availability
//	lwfsbench -experiment qos               # multi-tenant fair-share and breaker sweep
//	lwfsbench -experiment redstorm          # E22: sampled 100k-rank Red Storm burst sweep
//	lwfsbench -experiment ckptinterval      # E23: apparent vs durable dump time -> affordable interval
//	lwfsbench -experiment replay            # E24: recorded workload traces replayed through the fs.FS facade
//	lwfsbench -experiment collective        # §6 two-phase collective vs independent writes
//	lwfsbench -experiment all
//
// The -metrics flag appends per-sweep-point registry snapshot deltas (RPC
// rates, cache hit ratios, queue depths, drain backlog) to the eight
// experiments that capture them: burst, recovery, rebuild, meta, qos,
// redstorm, ckptinterval and replay. For replay it first prints the
// highest-concurrency run's tick timeline per trace.
//
// -quick shrinks the sweeps (2 trials, fewer points, 64 MB/process) for a
// fast smoke run; the defaults reproduce the paper's parameters (512
// MB/process, ≥5 trials, 2–16 servers, up to 64 clients).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"lwfs/internal/figures"
	"lwfs/internal/stats"
)

// config is the parsed command line every experiment builds its Opts from.
// A nil servers/clients slice and zero trials/mbPerProc mean "not given".
type config struct {
	quick, plot      bool
	trials           int
	servers, clients []int
	mbPerProc        int64
	progress         func(format string, args ...interface{}) // nil unless -v
}

// result is one experiment's output: its tables, and what -metrics
// appends — replay's tick timelines, then each sweep point's registry
// snapshot deltas (last trial only).
type result struct {
	render    func(io.Writer)
	timelines []figures.ReplayTimeline
	captures  []figures.MetricsCapture
}

// timelinePatterns are the replay trajectories worth plotting: replay
// progress and client pressure against server queue backlog.
var timelinePatterns = []string{
	"trace.replay.ops",
	"trace.replay.bytes",
	"trace.replay.active_clones",
	"rpc.*.queue_depth",
}

// write renders r followed by a separating blank line; with metrics it
// also renders the timelines and captures.
func (r result) write(w io.Writer, metrics bool) {
	r.render(w)
	if metrics {
		for _, tl := range r.timelines {
			fmt.Fprintf(w, "\n## %s x%d timeline\n", tl.Trace, tl.Workers)
			tl.Rec.WriteColumns(w, timelinePatterns...)
		}
		figures.RenderMetricsCaptures(w, r.captures)
	}
	fmt.Fprintln(w)
}

// experiment is one -experiment name and how to run it from the command line.
type experiment struct {
	name string
	run  func(config) (result, error)
}

// experiments is the dispatch table, in `-experiment all` order.
var experiments = []experiment{
	{"table1", func(config) (result, error) {
		return result{render: figures.Table1Render}, nil
	}},
	{"table2", func(config) (result, error) {
		r, err := figures.Table2()
		return result{render: r.Render}, err
	}},
	{"fig9", func(c config) (result, error) {
		o := figures.Fig9Opts{Progress: c.progress}
		o.Servers, o.Clients, o.Trials = c.axes()
		if c.quick {
			o.BytesPerProc = 64 << 20
		}
		if c.mbPerProc != 0 {
			o.BytesPerProc = c.mbPerProc << 20
		}
		var panels []figures.Fig9Result
		for _, im := range []figures.Impl{figures.ImplPFSFile, figures.ImplPFSShared, figures.ImplLWFS} {
			r, err := figures.Fig9(im, o)
			if err != nil {
				return result{}, err
			}
			panels = append(panels, r)
		}
		return result{render: func(w io.Writer) {
			for _, r := range panels {
				title := fmt.Sprintf("Figure 9: checkpoint throughput, %s", r.Impl)
				figures.RenderSeries(w, title, "clients", "MB/s", r.Series)
				if c.plot {
					fmt.Fprintln(w)
					stats.AsciiPlot(w, fmt.Sprintf("Figure 9 (%s)", r.Impl), "clients", "MB/s", r.Series, false)
				}
				fmt.Fprintln(w)
			}
		}}, nil
	}},
	{"fig10", func(c config) (result, error) {
		o := figures.Fig10Opts{Progress: c.progress}
		o.Servers, o.Clients, o.Trials = c.axes()
		lustre, err := figures.Fig10("lustre", o)
		if err != nil {
			return result{}, err
		}
		lwfs, err := figures.Fig10("lwfs", o)
		return result{render: func(w io.Writer) {
			// Panel (a): the largest-server-count series of both systems.
			last := len(lustre.Series) - 1
			a := []stats.Series{lustre.Series[last], lwfs.Series[last]}
			a[0].Name, a[1].Name = "Lustre", "LWFS"
			figures.RenderSeries(w, "Figure 10a: LWFS object creation vs Lustre file creation (log scale in the paper)",
				"clients", "ops/s", a)
			fmt.Fprintln(w)
			figures.RenderSeries(w, "Figure 10b: Lustre file creation", "clients", "ops/s", lustre.Series)
			fmt.Fprintln(w)
			figures.RenderSeries(w, "Figure 10c: LWFS object creation", "clients", "ops/s", lwfs.Series)
			if c.plot {
				fmt.Fprintln(w)
				stats.AsciiPlot(w, "Figure 10a (log y)", "clients", "ops/s", a, true)
			}
		}}, err
	}},
	{"petaflop", func(config) (result, error) {
		r, err := figures.PetaflopProjection(400 << 20)
		return result{render: r.Render}, err
	}},
	{"security", func(config) (result, error) {
		r, err := figures.Security()
		return result{render: r.Render}, err
	}},
	{"filtering", func(config) (result, error) {
		return versus("Remote filtering (§6): 1 GiB sharded over 8 servers",
			"server-side filters", "read-everything", figures.ActiveStorageScan)
	}},
	{"faults", func(c config) (result, error) {
		o := figures.FaultOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials, o.DropProbs = 2, []float64{0, 0.05}
		}
		r, err := figures.FaultSweep(o)
		return result{render: r.Render}, err
	}},
	{"burst", func(c config) (result, error) {
		o := figures.BurstOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials, o.Buffers, o.DrainBWs = 2, []int{0, 2}, []float64{0}
		}
		r, err := figures.BurstSweep(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"recovery", func(c config) (result, error) {
		o := figures.RecoveryOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials = 2
		}
		r, err := figures.RecoverySweep(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"stripe", func(c config) (result, error) {
		o := figures.StripeOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials, o.Servers, o.FileMB = 1, []int{1, 2, 4}, 16
		}
		if c.mbPerProc != 0 {
			o.FileMB = c.mbPerProc
		}
		r, err := figures.StripeSweep(o)
		return result{render: r.Render}, err
	}},
	{"rebuild", func(c config) (result, error) {
		o := figures.RebuildOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials, o.DataMB, o.Objects = 1, 4, []int{2, 4}
		}
		r, err := figures.RebuildSweep(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"meta", func(c config) (result, error) {
		o := figures.MetaOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials, o.FileKB, o.Files = 1, 128, []int{2, 4}
		}
		r, err := figures.MetaSweep(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"qos", func(c config) (result, error) {
		// The contention window must stay long enough for >=20 interactive
		// samples, so -quick only cuts trials, not the workload.
		o := figures.QoSOpts{Trials: c.trials, Progress: c.progress}
		if c.quick {
			o.Trials = 1
		}
		r, err := figures.QoSSweep(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"redstorm", func(c config) (result, error) {
		o := figures.RedStormOpts{Progress: c.progress}
		if c.quick {
			// The acceptance point is the 10k-exact sweep top; quick mode
			// keeps it and drops the intermediate points.
			o.Exact = []int{1000, 10000}
		}
		if c.clients != nil {
			o.Exact = c.clients
		}
		if c.mbPerProc != 0 {
			o.BytesPerProc = c.mbPerProc << 20
		}
		r, err := figures.RedStormSweep(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"ckptinterval", func(c config) (result, error) {
		o := figures.CkptIntervalOpts{Progress: c.progress}
		if c.quick {
			o.Procs = 1000
		}
		if c.mbPerProc != 0 {
			o.BytesPerProc = c.mbPerProc << 20
		}
		r, err := figures.CkptIntervalRun(o)
		return result{render: r.Render, captures: r.Captures}, err
	}},
	{"replay", func(c config) (result, error) {
		o := figures.ReplayOpts{Progress: c.progress}
		if c.quick {
			o.Concurrency, o.Clones = []int{1, 4, 16}, 16
		}
		if c.clients != nil {
			o.Concurrency = c.clients
		}
		r, err := figures.ReplaySweep(o)
		return result{render: r.Render, timelines: r.Timelines, captures: r.Captures}, err
	}},
	{"collective", func(config) (result, error) {
		return versus("Collective I/O (§6): 8 ranks, 512 interleaved 64 KiB records",
			"two-phase collective", "independent writes", figures.CollectiveVsIndependent)
	}},
}

// axes is the Figure 9/10 servers × clients × trials sweep: the -quick
// preset, then -servers and -clients on top (zero values keep the paper's
// defaults).
func (c config) axes() (servers, clients []int, trials int) {
	trials = c.trials
	if c.quick {
		servers, clients, trials = []int{2, 8, 16}, []int{1, 4, 16, 48}, 2
	}
	if c.servers != nil {
		servers = c.servers
	}
	if c.clients != nil {
		clients = c.clients
	}
	return servers, clients, trials
}

// versus runs a §6 A/B measurement (measure(true) is the optimized arm) and
// renders both virtual times and the speedup.
func versus(title, fast, slow string, measure func(bool) (time.Duration, error)) (result, error) {
	ft, err := measure(true)
	if err != nil {
		return result{}, err
	}
	st, err := measure(false)
	pad := max(len(fast), len(slow)) + 2
	return result{render: func(w io.Writer) {
		fmt.Fprintf(w, "# %s\n%-*s%v\n%-*s%v\n%-*s%.1fx\n", title,
			pad, fast, ft, pad, slow, st, pad, "speedup", st.Seconds()/ft.Seconds())
	}}, err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status — 0 on success, 1
// when an experiment fails, 2 on bad command-line input.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("lwfsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("experiment", "all", strings.Join(names, "|")+"|all")
		trials  = fs.Int("trials", 0, "trials per point (0 = paper default of 5)")
		quick   = fs.Bool("quick", false, "small sweep for a fast smoke run")
		servers = fs.String("servers", "", "comma-separated server counts (default 2,4,8,16)")
		clients = fs.String("clients", "", "comma-separated client counts (default 1,2,4,8,16,32,48,64)")
		bytesMB = fs.Int64("mb-per-proc", 0, "MB written per process (0 = paper's 512)")
		verbose = fs.Bool("v", false, "progress output to stderr")
		plot    = fs.Bool("plot", false, "render ASCII plots of the figure shapes")
		metrics = fs.Bool("metrics", false, "dump registry snapshot deltas per sweep point (burst, recovery, rebuild, meta, qos, redstorm, ckptinterval, replay)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	bad := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "lwfsbench: "+format+"\n", args...)
		return 2
	}

	var selected []experiment
	for _, e := range experiments {
		if *name == "all" || *name == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return bad("unknown experiment %q (valid: %s, all)", *name, strings.Join(names, ", "))
	}
	if *trials < 0 || *bytesMB < 0 {
		return bad("-trials and -mb-per-proc must not be negative")
	}
	cfg := config{quick: *quick, plot: *plot, trials: *trials, mbPerProc: *bytesMB}
	var err error
	if cfg.servers, err = parseInts("servers", *servers); err != nil {
		return bad("%v", err)
	}
	if cfg.clients, err = parseInts("clients", *clients); err != nil {
		return bad("%v", err)
	}
	if *verbose {
		cfg.progress = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	for _, e := range selected {
		res, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "lwfsbench: %s: %v\n", e.name, err)
			return 1
		}
		res.write(stdout, *metrics)
	}
	return 0
}

// parseInts parses the comma-separated value s of flag -name; every count
// must be at least 1. An empty s yields nil (flag not given).
func parseInts(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}
