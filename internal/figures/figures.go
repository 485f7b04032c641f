// Package figures regenerates every table and figure of the paper's
// evaluation (§2 Tables 1–2, §4 Figures 9–10, and the §4 petaflop
// projection). Each experiment returns structured series suitable both for
// the cmd/lwfsbench text reports and for assertions in tests and benches.
//
// The experiment inventory and paper-vs-measured comparisons live in
// EXPERIMENTS.md at the repository root.
package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// MetricsCapture pairs two registry snapshots around one sweep point: Base
// right after deployment, Final after the run. The sweeps that snapshot the
// registry always keep their captures — one per sweep point or phase, from
// its last trial; `lwfsbench -metrics` renders them as delta tables (RPC
// rates, cache hit ratios, queue depths, drain backlog — no
// experiment-specific getter code involved).
type MetricsCapture struct {
	Label       string
	Base, Final metrics.Snapshot
}

// RenderMetricsCaptures prints each capture as a snapshot-delta table.
func RenderMetricsCaptures(w io.Writer, caps []MetricsCapture) {
	for _, c := range caps {
		fmt.Fprintf(w, "\n## metrics: %s\n", c.Label)
		c.Final.Diff(c.Base).WriteTable(w)
	}
}

// orDefault returns s, or d when s is empty: the Opts defaults() for
// slice fields (scalars use cmp.Or).
func orDefault[S ~[]E, E any](s, d S) S {
	if len(s) == 0 {
		return d
	}
	return s
}

// runProc spawns body as process name, runs k until it drains, and returns
// the kernel's error, or else body's.
func runProc(k *sim.Kernel, name string, body func(p *sim.Proc) error) error {
	var bodyErr error
	k.Spawn(name, func(p *sim.Proc) { bodyErr = body(p) })
	if err := k.Run(sim.MaxTime); err != nil {
		return err
	}
	return bodyErr
}

// report calls the optional progress callback every Opts carries.
func report(progress func(format string, args ...interface{}), format string, args ...interface{}) {
	if progress != nil {
		progress(format, args...)
	}
}

// Sweep parameters shared by the Figure 9 and Figure 10 experiments. The
// paper sweeps 2–16 servers and up to ~64 client processes, ≥5 trials.
var (
	// DefaultServers are the storage-server counts of Figures 9 and 10.
	DefaultServers = []int{2, 4, 8, 16}
	// DefaultClients are the client-process counts swept on the x axes.
	DefaultClients = []int{1, 2, 4, 8, 16, 32, 48, 64}
	// DefaultTrials matches the paper's "minimum of 5 trials".
	DefaultTrials = 5
	// DefaultBytesPerProc matches the paper: every process writes 512 MB.
	DefaultBytesPerProc = int64(512) << 20
)

// Impl names one checkpoint implementation under test.
type Impl string

// The three §4 checkpoint implementations.
const (
	ImplLWFS      Impl = "lwfs-object-per-process"
	ImplPFSFile   Impl = "lustre-file-per-process"
	ImplPFSShared Impl = "lustre-shared-file"
)

// runner dispatches an implementation.
func (im Impl) run(spec cluster.Spec, cfg checkpoint.Config) (checkpoint.Result, error) {
	switch im {
	case ImplLWFS:
		return checkpoint.RunLWFS(spec, cfg)
	case ImplPFSFile:
		return checkpoint.RunPFSFilePerProcess(spec, cfg)
	case ImplPFSShared:
		return checkpoint.RunPFSShared(spec, cfg)
	default:
		return checkpoint.Result{}, fmt.Errorf("figures: unknown impl %q", im)
	}
}

// Fig9Opts parameterize the Figure 9 sweep.
type Fig9Opts struct {
	Servers      []int
	Clients      []int
	Trials       int
	BytesPerProc int64
	Progress     func(format string, args ...interface{}) // optional
}

func (o *Fig9Opts) defaults() {
	o.Servers = orDefault(o.Servers, DefaultServers)
	o.Clients = orDefault(o.Clients, DefaultClients)
	o.Trials = cmp.Or(o.Trials, DefaultTrials)
	o.BytesPerProc = cmp.Or(o.BytesPerProc, DefaultBytesPerProc)
}

// Fig9Result holds one implementation's panel of Figure 9: throughput
// (MB/s) vs client processes, one series per server count.
type Fig9Result struct {
	Impl   Impl
	Series []stats.Series // one per server count, in Servers order
}

// Fig9 regenerates one panel of Figure 9.
func Fig9(im Impl, opts Fig9Opts) (Fig9Result, error) {
	opts.defaults()
	series, err := sweepServersClients(opts.Servers, opts.Clients, opts.Trials, opts.Progress, "fig9", string(im), "MB/s",
		func(spec cluster.Spec, clients, trial int) (float64, error) {
			r, err := im.run(spec, checkpoint.Config{
				Procs:        clients,
				BytesPerProc: opts.BytesPerProc,
				Seed:         int64(trial)*7919 + int64(clients),
			})
			return r.ThroughputMBs(), err
		})
	return Fig9Result{Impl: im, Series: series}, err
}

// Fig10Opts parameterize the Figure 10 create-throughput sweep.
type Fig10Opts struct {
	Servers    []int
	Clients    []int
	Trials     int
	OpsPerProc int
	Progress   func(format string, args ...interface{})
}

func (o *Fig10Opts) defaults() {
	o.Servers = orDefault(o.Servers, DefaultServers)
	o.Clients = orDefault(o.Clients, DefaultClients)
	o.Trials = cmp.Or(o.Trials, DefaultTrials)
	o.OpsPerProc = cmp.Or(o.OpsPerProc, 32)
}

// Fig10Result holds the create-throughput series (ops/s vs clients) for one
// system, one series per server count — panels (b) and (c) of Figure 10;
// panel (a) is the 16-server series of both systems on one log plot.
type Fig10Result struct {
	System string // "lwfs" or "lustre"
	Series []stats.Series
}

// Fig10 regenerates the create-throughput panels.
func Fig10(system string, opts Fig10Opts) (Fig10Result, error) {
	opts.defaults()
	res := Fig10Result{System: system}
	run := map[string]func(cluster.Spec, int, int, int64) (checkpoint.CreateResult, error){
		"lwfs":   checkpoint.RunCreateOnlyLWFS,
		"lustre": checkpoint.RunCreateOnlyPFS,
	}[system]
	if run == nil {
		return res, fmt.Errorf("figures: unknown system %q", system)
	}
	var err error
	res.Series, err = sweepServersClients(opts.Servers, opts.Clients, opts.Trials, opts.Progress, "fig10", system, "ops/s",
		func(spec cluster.Spec, clients, trial int) (float64, error) {
			r, err := run(spec, clients, opts.OpsPerProc, int64(trial)*104729+int64(clients))
			return r.OpsPerSec, err
		})
	return res, err
}

// sweepServersClients is the Figure 9/10 sweep: measure one value per
// trial at every servers × clients point, one series per server count.
// Errors and progress lines name the point as "<name> servers=S clients=C".
func sweepServersClients(servers, clients []int, trials int, progress func(string, ...interface{}),
	tag, name, unit string, measure func(spec cluster.Spec, clients, trial int) (float64, error)) ([]stats.Series, error) {
	var out []stats.Series
	for _, s := range servers {
		spec := cluster.DevCluster().WithServers(s)
		series := stats.Series{Name: fmt.Sprintf("%d servers", s)}
		for _, c := range clients {
			var sample stats.Sample
			for trial := 0; trial < trials; trial++ {
				v, err := measure(spec, c, trial)
				if err != nil {
					return out, fmt.Errorf("%s servers=%d clients=%d: %w", name, s, c, err)
				}
				sample.Add(v)
			}
			report(progress, "%s %s servers=%d clients=%d: %s %s", tag, name, s, c, sample.String(), unit)
			series.Add(float64(c), &sample)
		}
		out = append(out, series)
	}
	return out, nil
}

// RenderSeries prints series as an aligned text table: one row per x, one
// column per series (the shape gnuplot consumed for the paper's figures).
func RenderSeries(w io.Writer, title, xlabel, ylabel string, series []stats.Series) {
	fmt.Fprintf(w, "# %s\n# y: %s\n", title, ylabel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xlabel)
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s\tstddev", s.Name)
	}
	fmt.Fprintln(tw)
	if len(series) > 0 {
		for i, pt := range series[0].Points {
			fmt.Fprintf(tw, "%g", pt.X)
			for _, s := range series {
				if i < len(s.Points) {
					fmt.Fprintf(tw, "\t%.1f\t%.1f", s.Points[i].Mean, s.Points[i].StdDev)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// Table1Render prints the paper's Table 1.
func Table1Render(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: Compute and I/O nodes for MPPs at the DOE laboratories")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Computer\tCompute Nodes\tI/O Nodes\tRatio")
	for _, m := range cluster.Table1 {
		fmt.Fprintf(tw, "%s (%s)\t%d\t%d\t%d:1\n", m.Name, m.Year, m.ComputeNodes, m.IONodes, m.Ratio())
	}
	tw.Flush()
}

// Projection is the §4 petaflop extrapolation: on a theoretical petaflop
// machine (100,000 compute nodes, 2,000 I/O nodes), file creation through a
// centralized metadata server takes minutes — roughly 10% of the whole
// checkpoint — while LWFS object creation stays in seconds.
type Projection struct {
	ComputeNodes int
	IONodes      int
	BytesPerProc int64

	MDSCreatesPerSec  float64 // measured on the dev-cluster sim
	LWFSCreatesPerSec float64 // measured, per server, on the dev-cluster sim

	PFSCreateTime  time.Duration // n creates through one MDS
	LWFSCreateTime time.Duration // n creates over all I/O nodes
	DumpTime       time.Duration // data / (io nodes × disk bandwidth)
	PFSCreateShare float64       // create fraction of PFS checkpoint
}

// PetaflopProjection measures create rates on the simulated dev cluster,
// then extrapolates to the paper's theoretical petaflop system. Each
// compute node dumps its full memory (8 GB for a petaflop-class node —
// the assumption that makes file creation "roughly 10% of the total time
// for the checkpoint operation", §4).
func PetaflopProjection(diskBW float64) (Projection, error) {
	pr := Projection{
		ComputeNodes: 100000,
		IONodes:      2000,
		BytesPerProc: 8 << 30,
	}
	spec := cluster.DevCluster().WithServers(16)
	pfsRate, err := checkpoint.RunCreateOnlyPFS(spec, 32, 16, 1)
	if err != nil {
		return pr, err
	}
	lwfsRate, err := checkpoint.RunCreateOnlyLWFS(spec, 32, 16, 1)
	if err != nil {
		return pr, err
	}
	pr.MDSCreatesPerSec = pfsRate.OpsPerSec
	pr.LWFSCreatesPerSec = lwfsRate.OpsPerSec / 16 // per server

	n := float64(pr.ComputeNodes)
	pr.PFSCreateTime = time.Duration(n / pr.MDSCreatesPerSec * float64(time.Second))
	pr.LWFSCreateTime = time.Duration(n / (pr.LWFSCreatesPerSec * float64(pr.IONodes)) * float64(time.Second))
	totalBytes := n * float64(pr.BytesPerProc)
	pr.DumpTime = time.Duration(totalBytes / (float64(pr.IONodes) * diskBW) * float64(time.Second))
	pr.PFSCreateShare = pr.PFSCreateTime.Seconds() /
		(pr.PFSCreateTime.Seconds() + pr.DumpTime.Seconds())
	return pr, nil
}

// Render prints the projection.
func (pr Projection) Render(w io.Writer) {
	fmt.Fprintf(w, "# Petaflop projection (§4): %d compute nodes, %d I/O nodes, %d MB/process\n",
		pr.ComputeNodes, pr.IONodes, pr.BytesPerProc>>20)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "measured MDS create rate\t%.0f ops/s\n", pr.MDSCreatesPerSec)
	fmt.Fprintf(tw, "measured LWFS create rate\t%.0f ops/s per server\n", pr.LWFSCreatesPerSec)
	fmt.Fprintf(tw, "PFS file creation (100k files, 1 MDS)\t%v\n", pr.PFSCreateTime.Round(time.Second))
	fmt.Fprintf(tw, "LWFS object creation (100k objects, 2k servers)\t%v\n", pr.LWFSCreateTime.Round(time.Millisecond))
	fmt.Fprintf(tw, "I/O dump phase\t%v\n", pr.DumpTime.Round(time.Second))
	fmt.Fprintf(tw, "PFS create share of checkpoint\t%.0f%%\n", pr.PFSCreateShare*100)
	tw.Flush()
}
