package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/metrics"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/trace"
)

// The trace-replay sweep (experiment E24): recorded application workloads
// driven back through the standard-library facade at increasing
// concurrency. Each embedded example trace (jacobi's checkpoint/restart,
// seismic's gather reads and redistribution, climate's timestep writes and
// hyperslab reads) is cloned and replayed by 1..N workers, each worker a
// separate compute-node client with its own lwfspfs mount. The table
// reports aggregate bandwidth, op rate and p99 op latency per concurrency
// level — how far the recorded workload scales before the servers, not the
// clients, are the bottleneck.

// ReplayOpts parameterize the sweep.
type ReplayOpts struct {
	Traces      []string                                 // embedded trace names (default all)
	Concurrency []int                                    // worker counts (default 1,4,16,64)
	Clones      int                                      // trace copies per point (default 64)
	Progress    func(format string, args ...interface{}) // optional
}

const (
	replayServers = 8                     // storage servers, one per node
	replayTick    = 20 * time.Millisecond // metrics recorder interval
)

func (o *ReplayOpts) defaults() {
	o.Traces = orDefault(o.Traces, trace.ExampleNames())
	o.Concurrency = orDefault(o.Concurrency, []int{1, 4, 16, 64})
	o.Clones = cmp.Or(o.Clones, 64)
}

// ReplayPoint is one (trace, concurrency) measurement.
type ReplayPoint struct {
	Trace     string
	Workers   int
	Ops       int     // operations executed
	Errors    int     // operations failed
	MB        float64 // payload moved (1e6 bytes)
	ElapsedMs float64 // virtual wall time, first mount to last close
	MBps      float64 // aggregate payload bandwidth
	OpsPerSec float64 // aggregate op rate
	P99Ms     float64 // per-op latency tail
}

// ReplayTimeline is one point's metric trajectories: the periodic recorder
// snapshots taken while the replay ran.
type ReplayTimeline struct {
	Trace   string
	Workers int
	Rec     *metrics.Recorder
}

// ReplayResult is the whole sweep.
type ReplayResult struct {
	Opts      ReplayOpts
	Points    []ReplayPoint
	Captures  []MetricsCapture // one per point
	Timelines []ReplayTimeline // the highest-concurrency point of each trace
}

// ReplaySweep replays every trace at every concurrency level.
func ReplaySweep(opts ReplayOpts) (ReplayResult, error) {
	opts.defaults()
	res := ReplayResult{Opts: opts}
	for _, name := range opts.Traces {
		tr, err := trace.Example(name)
		if err != nil {
			return res, err
		}
		for _, workers := range opts.Concurrency {
			pt, mc, tl, err := replayTrial(opts, tr, name, workers)
			if err != nil {
				return res, fmt.Errorf("replay %s x%d: %w", name, workers, err)
			}
			res.Points = append(res.Points, pt)
			mc.Label = fmt.Sprintf("replay %s x%d", name, workers)
			res.Captures = append(res.Captures, mc)
			if workers == opts.Concurrency[len(opts.Concurrency)-1] {
				res.Timelines = append(res.Timelines, tl)
			}
			report(opts.Progress, "replay %s x%d: %d ops, %.1f MB, %.1f MB/s, p99 %.2f ms",
				name, workers, pt.Ops, pt.MB, pt.MBps, pt.P99Ms)
		}
	}
	return res, nil
}

// replayTrial replays tr once: a cluster with one compute node per worker,
// a setup process that formats the shared mount, then the trace replayer
// fanned out over per-worker clients. The metrics recorder ticks for the
// duration and is stopped by the replay's completion hook — without that,
// its pending tick would keep the kernel run from finishing.
func replayTrial(opts ReplayOpts, tr *trace.Trace, name string, workers int) (ReplayPoint, MetricsCapture, ReplayTimeline, error) {
	pt := ReplayPoint{Trace: name, Workers: workers}
	spec := cluster.DevCluster()
	spec.ComputeNodes = workers
	spec.ServersPerNode = 1
	spec = spec.WithServers(replayServers)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	lw := cl.DeployLWFS()

	clients := make([]*core.Client, workers)
	for i := range clients {
		clients[i] = cl.NewClient(lw, i)
	}
	setupC := cl.NewClient(lw, 0)

	var mc MetricsCapture
	mc.Base = cl.Metrics().Snapshot()
	rec := metrics.NewRecorder(cl.Metrics(), replayTick)
	tl := ReplayTimeline{Trace: name, Workers: workers, Rec: rec}

	var res *trace.Result
	err := runProc(cl.K, "replay-setup", func(p *sim.Proc) error {
		if err := setupC.Login(p, "app", "s3cret"); err != nil {
			return err
		}
		pfs, err := lwfspfs.Format(p, setupC, "/replay", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			return err
		}
		cid := pfs.Container()
		// Workers mount in spawn order; each takes the next client. The
		// counter, not the worker id, assigns them — mounts may interleave
		// but each client still serves exactly one worker.
		next := 0
		mount := func(wp *sim.Proc) (trace.Mount, error) {
			c := clients[next]
			next++
			if err := c.Login(wp, "app", "s3cret"); err != nil {
				return nil, err
			}
			wfs, err := lwfspfs.Mount(wp, c, "/replay", cid)
			if err != nil {
				return nil, err
			}
			return stdfs.New(wp, wfs).ReplayMount(), nil
		}
		stopRec := rec.Start(cl.K)
		res = trace.StartReplay(cl.K, tr, mount, trace.Options{
			Concurrency: workers,
			Clones:      opts.Clones,
			Metrics:     cl.Metrics(),
			OnDone:      func(*sim.Proc) { stopRec() },
		})
		return nil
	})
	if err != nil {
		return pt, mc, tl, err
	}
	if err := res.Err(); err != nil {
		return pt, mc, tl, err
	}
	mc.Final = cl.Metrics().Snapshot()

	pt.Ops = res.Ops
	pt.Errors = res.Errors
	pt.MB = float64(res.Bytes) / 1e6
	pt.ElapsedMs = ms(res.Elapsed())
	pt.MBps = res.MBps()
	if secs := res.Elapsed().Seconds(); secs > 0 {
		pt.OpsPerSec = float64(res.Ops) / secs
	}
	pt.P99Ms = res.OpMs.Percentile(99)
	return pt, mc, tl, nil
}

// Render prints one table per trace.
func (r ReplayResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Trace replay through the fs.FS facade: %d servers, %d clones per point\n",
		replayServers, r.Opts.Clones)
	for _, name := range r.Opts.Traces {
		fmt.Fprintf(w, "\n## %s\n", name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workers\tops\terrors\tMB\telapsed\tMB/s\tops/s\tp99 op")
		for _, pt := range r.Points {
			if pt.Trace != name {
				continue
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f ms\t%.1f\t%.0f\t%.2f ms\n",
				pt.Workers, pt.Ops, pt.Errors, pt.MB, pt.ElapsedMs, pt.MBps, pt.OpsPerSec, pt.P99Ms)
		}
		tw.Flush()
	}
}
