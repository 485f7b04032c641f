package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/stats"
)

// The burst-buffer sweep (experiment E15): run the §4 checkpoint through the
// write-behind staging tier and separate what the application *sees* (the
// ack — apparent checkpoint time, when computation resumes) from what the
// system *guarantees* (the drain-inclusive commit — durable time). The gap
// between the two columns is the latency the tier hides; sweeping buffer
// counts and drain bandwidths shows how it scales and when backpressure
// erodes it.

// BurstOpts parameterize the burst sweep.
type BurstOpts struct {
	// Buffers lists the burst-node counts to sweep; 0 is the direct
	// (no-tier) baseline, where apparent == durable by construction.
	Buffers []int
	// DrainBWs lists per-drain-worker throttles in bytes/s (0 =
	// unthrottled: the drain runs at disk speed). Slower drains widen the
	// apparent/durable gap and keep the staging window occupied longer.
	DrainBWs     []float64
	Procs        int
	Servers      int
	BytesPerProc int64
	Trials       int
	Progress     func(format string, args ...interface{}) // optional
}

func (o *BurstOpts) defaults() {
	o.Buffers = orDefault(o.Buffers, []int{0, 1, 2, 4})
	o.DrainBWs = orDefault(o.DrainBWs, []float64{0, 48 * (1 << 20)})
	o.Procs = cmp.Or(o.Procs, 8)
	o.Servers = cmp.Or(o.Servers, 4)
	o.BytesPerProc = cmp.Or(o.BytesPerProc, 1<<20)
	o.Trials = cmp.Or(o.Trials, 3)
}

// BurstPoint is the sweep's measurement at one (buffer count, drain BW).
type BurstPoint struct {
	Buffers  int
	DrainBW  float64      // bytes/s per drain worker, 0 = unthrottled
	Apparent stats.Sample // checkpoint time as acked, ms
	Durable  stats.Sample // commit-inclusive time, ms
	DrainP50 stats.Sample // per-trial median drain latency, ms
	DrainP99 stats.Sample // per-trial p99 drain latency, ms
	Passthru stats.Sample // writes relayed synchronously (capacity pressure)
}

// BurstResult is the whole sweep.
type BurstResult struct {
	Opts     BurstOpts
	Points   []BurstPoint
	Captures []MetricsCapture // one per point: post-deploy vs post-run, last trial
}

// BurstSweep measures apparent vs durable checkpoint time at each point.
func BurstSweep(opts BurstOpts) (BurstResult, error) {
	opts.defaults()
	res := BurstResult{Opts: opts}
	for _, nb := range opts.Buffers {
		bws := opts.DrainBWs
		if nb == 0 {
			bws = bws[:1] // no tier: the drain knob is meaningless
		}
		for _, bw := range bws {
			point := BurstPoint{Buffers: nb, DrainBW: bw}
			for trial := 0; trial < opts.Trials; trial++ {
				spec := cluster.DevCluster().WithServers(opts.Servers)
				spec.ComputeNodes = opts.Procs
				spec.BurstNodes = nb
				spec.Burst.DrainBW = bw

				cl := cluster.New(spec)
				cl.RegisterUser("app", "s3cret")
				l := cl.DeployLWFS()
				base := cl.Metrics().Snapshot()
				cfg := checkpoint.Config{
					Procs:        opts.Procs,
					BytesPerProc: opts.BytesPerProc,
					Seed:         int64(trial)*104729 + int64(nb)*131 + 17,
					Burst:        l.BurstTargets(),
				}
				r, err := checkpoint.SetupLWFS(cl, l, cfg)
				if err != nil {
					return res, fmt.Errorf("burst n=%d trial=%d: %w", nb, trial, err)
				}
				if err := cl.Run(); err != nil {
					return res, fmt.Errorf("burst n=%d trial=%d: %w", nb, trial, err)
				}
				if r.Aborted {
					return res, fmt.Errorf("burst n=%d trial=%d: healthy run aborted", nb, trial)
				}
				point.Apparent.Add(float64(r.Elapsed) / float64(time.Millisecond))
				point.Durable.Add(float64(r.Durable) / float64(time.Millisecond))
				// Tier observables come from the registry, not per-server
				// getters: the drain-latency histograms merge exactly and
				// pass-through counts sum across buffers.
				snap := cl.Metrics().Snapshot()
				lat := snap.MergedHist("burst.*.drain.latency_ms")
				if lat.N() > 0 {
					point.DrainP50.Add(lat.Percentile(50))
					point.DrainP99.Add(lat.Percentile(99))
				}
				point.Passthru.Add(snap.Sum("burst.*.passthroughs"))
				if trial == opts.Trials-1 {
					res.Captures = append(res.Captures, MetricsCapture{
						Label: fmt.Sprintf("buffers=%d bw=%s", nb, bwLabel(bw)),
						Base:  base, Final: snap,
					})
				}
			}
			report(opts.Progress, "burst n=%d bw=%s: apparent %s ms, durable %s ms",
				nb, bwLabel(bw), point.Apparent.String(), point.Durable.String())
			res.Points = append(res.Points, point)
		}
	}
	return res, nil
}

func bwLabel(bw float64) string {
	if bw == 0 {
		return "disk"
	}
	return fmt.Sprintf("%.0fMB/s", bw/(1<<20))
}

// Render prints the sweep as a table: the durable/apparent ratio is the
// tier's payoff (1.0x on the no-tier baseline).
func (r BurstResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Burst staging tier: %d-process checkpoint, %d servers, %d MB/process, %d trials\n",
		r.Opts.Procs, r.Opts.Servers, r.Opts.BytesPerProc>>20, r.Opts.Trials)
	fmt.Fprintln(w, "# apparent (acked, computation resumes) vs durable (drained + committed) checkpoint time")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "buffers\tdrain bw\tapparent (ms)\tdurable (ms)\tdurable/apparent\tdrain p50 (ms)\tdrain p99 (ms)\tpassthru")
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.Apparent.Mean() > 0 {
			ratio = pt.Durable.Mean() / pt.Apparent.Mean()
		}
		p50, p99 := "-", "-"
		if pt.DrainP50.N() > 0 {
			p50 = fmt.Sprintf("%.1f", pt.DrainP50.Mean())
			p99 = fmt.Sprintf("%.1f", pt.DrainP99.Mean())
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%.2fx\t%s\t%s\t%.0f\n",
			pt.Buffers, bwLabel(pt.DrainBW), pt.Apparent.String(), pt.Durable.String(),
			ratio, p50, p99, pt.Passthru.Mean())
	}
	tw.Flush()
}
