package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// The metadata-replication sweep (experiment E21): what mirroring the
// per-file layout record costs and buys. Three tables: (1) create and
// metadata-flush latency as the mirror count grows — the steady-state RPC
// overhead every size-changing write pays; (2) open latency healthy vs
// with the primary mirror's server crashed — the degraded-open penalty of
// walking to a surviving mirror through a timeout; (3) metadata re-homing
// throughput — how fast Rebuild moves lost mirrors onto spares across a
// population of files.

// MetaOpts parameterize the sweep.
type MetaOpts struct {
	FileKB   int64                                    // per-file payload in KB (default 256)
	Copies   []int                                    // metadata mirror counts (default 1,2,3)
	Files    []int                                    // file counts for the re-homing sweep (default 4,8)
	Trials   int                                      // trials per point (default 3)
	Progress func(format string, args ...interface{}) // optional
}

// metaServers is the sweep's storage-server count, one per node.
const metaServers = 6

func (o *MetaOpts) defaults() {
	o.FileKB = cmp.Or(o.FileKB, 256)
	o.Copies = orDefault(o.Copies, []int{1, 2, 3})
	o.Files = orDefault(o.Files, []int{4, 8})
	o.Trials = cmp.Or(o.Trials, 3)
}

// MetaWritePoint is one mirror count's metadata write cost: transactional
// create (which lands every mirror) and a size-changing one-byte append
// (whose cost beyond the constant data RPC is the metadata flush rewriting
// every mirror).
type MetaWritePoint struct {
	Copies   int
	CreateMs stats.Sample
	FlushMs  stats.Sample
}

// MetaOpenPoint is one mirror count's open latency, healthy vs with the
// primary mirror's server crashed. Single-record mounts have no degraded
// path — the crash makes the file unopenable — so DegradedMs stays empty
// for Copies == 1 and Unavailable counts the opens that failed instead.
type MetaOpenPoint struct {
	Copies      int
	HealthyMs   stats.Sample
	DegradedMs  stats.Sample
	Unavailable int
}

// MetaRebuildPoint is one re-homing measurement: a server hosting metadata
// mirrors (and, under a replica scheme, some data copies) crashes, and
// Rebuild walks every file, re-homing lost mirrors onto spares.
type MetaRebuildPoint struct {
	Files   int          // files swept by Rebuild
	Ms      stats.Sample // total repair time
	Rehomed stats.Sample // metadata mirrors re-created (rebuild.meta_rehomed delta)
}

// MetaResult is the whole sweep.
type MetaResult struct {
	Opts     MetaOpts
	Writes   []MetaWritePoint
	Opens    []MetaOpenPoint
	Rebuilds []MetaRebuildPoint
	Captures []MetricsCapture // each degraded-open and re-homing point, last trial
}

// metaRetry arms sweep clients so RPCs against a crashed mirror server time
// out quickly; layout records are KB-scale, so the timeout only has to cover
// RPC round-trips, not bulk transfers.
var metaRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     50 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// metaOptions is the mount configuration every sweep point uses: a replica
// scheme (so the data side survives the crashes the sweep injects) with the
// metadata mirror count under test.
func metaOptions(copies int) lwfspfs.Options {
	return lwfspfs.Options{
		StripeUnit: 64 << 10,
		Scheme:     stripe.Replica,
		Copies:     2,
		MetaCopies: copies,
	}
}

// MetaSweep measures every point.
func MetaSweep(opts MetaOpts) (MetaResult, error) {
	opts.defaults()
	res := MetaResult{Opts: opts}

	for _, m := range opts.Copies {
		wp := MetaWritePoint{Copies: m}
		op := MetaOpenPoint{Copies: m}
		for trial := 0; trial < opts.Trials; trial++ {
			out, mc, err := metaOpenTrial(opts, m, trial)
			if err != nil {
				return res, fmt.Errorf("meta copies=%d trial %d: %w", m, trial, err)
			}
			wp.CreateMs.Add(out.createMs)
			wp.FlushMs.Add(out.flushMs)
			op.HealthyMs.Add(out.healthyMs)
			if out.unavailable {
				op.Unavailable++
			} else if m > 1 {
				op.DegradedMs.Add(out.degradedMs)
			}
			if trial == opts.Trials-1 {
				mc.Label = fmt.Sprintf("degraded-open copies=%d", m)
				res.Captures = append(res.Captures, mc)
			}
		}
		report(opts.Progress, "meta copies=%d: create %s ms, flush %s ms, open %s ms, degraded %s ms (%d unavailable)",
			m, wp.CreateMs.String(), wp.FlushMs.String(), op.HealthyMs.String(), op.DegradedMs.String(), op.Unavailable)
		res.Writes = append(res.Writes, wp)
		res.Opens = append(res.Opens, op)
	}

	for _, n := range opts.Files {
		pt := MetaRebuildPoint{Files: n}
		for trial := 0; trial < opts.Trials; trial++ {
			ms, rehomed, mc, err := metaRebuildTrial(opts, n, trial)
			if err != nil {
				return res, fmt.Errorf("meta rebuild files=%d trial %d: %w", n, trial, err)
			}
			pt.Ms.Add(ms)
			pt.Rehomed.Add(rehomed)
			if trial == opts.Trials-1 {
				mc.Label = fmt.Sprintf("meta-rehome files=%d", n)
				res.Captures = append(res.Captures, mc)
			}
		}
		report(opts.Progress, "meta rebuild files=%d: %s ms, %s mirrors re-homed", n, pt.Ms.String(), pt.Rehomed.String())
		res.Rebuilds = append(res.Rebuilds, pt)
	}
	return res, nil
}

// metaTrialOut carries one combined write/open trial's measurements.
type metaTrialOut struct {
	createMs    float64
	flushMs     float64
	healthyMs   float64
	degradedMs  float64
	unavailable bool // single-record open failed after the mirror crash
}

// metaOpenTrial formats a mount with the given mirror count, then measures
// create, a metadata flush (Close after a growing write), a healthy open,
// and — after crashing the primary mirror's server — a degraded open. With
// a single record the post-crash open fails by design; that is recorded,
// not treated as an error.
func metaOpenTrial(opts MetaOpts, copies, trial int) (metaTrialOut, MetricsCapture, error) {
	cl, lw := rebuildCluster(metaServers)
	c := cl.NewClient(lw, 0)
	c.SetRetry(metaRetry, int64(trial)+41)
	var mc MetricsCapture
	mc.Base = cl.Metrics().Snapshot()
	bytes := opts.FileKB << 10
	var out metaTrialOut
	err := runProc(cl.K, "bench", func(p *sim.Proc) error {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			return err
		}
		fs, err := lwfspfs.Format(p, c, fmt.Sprintf("/meta%d", trial), metaOptions(copies))
		if err != nil {
			return err
		}
		path := fmt.Sprintf("/f-%d-%d.bin", copies, trial)
		t0 := p.Now()
		f, err := fs.Create(p, path)
		if err != nil {
			return err
		}
		out.createMs = ms(p.Now().Sub(t0))
		if _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return err
		}
		// A one-byte append: the data RPC is constant-cost, so what scales
		// with the mirror count is the metadata flush every size-changing
		// write pays.
		t0 = p.Now()
		if _, err := f.WriteAt(p, bytes, netsim.SyntheticPayload(1)); err != nil {
			return err
		}
		out.flushMs = ms(p.Now().Sub(t0))
		if err := f.Close(p); err != nil {
			return err
		}

		t0 = p.Now()
		g, err := fs.Open(p, path)
		if err != nil {
			return fmt.Errorf("healthy open: %w", err)
		}
		out.healthyMs = ms(p.Now().Sub(t0))

		crashServer(lw, storage.TargetOf(g.MetaRefs()[0]))
		t0 = p.Now()
		if _, err := fs.Open(p, path); err != nil {
			if copies == 1 {
				out.unavailable = true
				return nil
			}
			return fmt.Errorf("degraded open: %w", err)
		}
		out.degradedMs = ms(p.Now().Sub(t0))
		return nil
	})
	mc.Final = cl.Metrics().Snapshot()
	return out, mc, err
}

// metaRebuildTrial creates n files on a two-mirror mount, crashes the server
// hosting the first file's primary mirror, and times Rebuild sweeping every
// file — re-homing lost metadata mirrors (and repairing any data copies the
// dead server held) onto the survivors.
func metaRebuildTrial(opts MetaOpts, n, trial int) (msTotal, rehomed float64, mc MetricsCapture, err error) {
	cl, lw := rebuildCluster(metaServers)
	c := cl.NewClient(lw, 0)
	c.SetRetry(metaRetry, int64(trial)+53)
	mc.Base = cl.Metrics().Snapshot()
	bytes := opts.FileKB << 10
	err = runProc(cl.K, "bench", func(p *sim.Proc) error {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			return err
		}
		fs, err := lwfspfs.Format(p, c, fmt.Sprintf("/rehome%d", trial), metaOptions(2))
		if err != nil {
			return err
		}
		var dead storage.Target
		paths := make([]string, n)
		for i := range paths {
			paths[i] = fmt.Sprintf("/f-%d-%d.bin", i, trial)
			f, err := fs.Create(p, paths[i])
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
			if i == 0 {
				dead = storage.TargetOf(f.MetaRefs()[0])
			}
		}
		crashServer(lw, dead)
		t0 := p.Now()
		for _, path := range paths {
			if err := fs.Rebuild(p, path, dead, nil); err != nil {
				return fmt.Errorf("rebuild %s: %w", path, err)
			}
		}
		msTotal = ms(p.Now().Sub(t0))
		return nil
	})
	mc.Final = cl.Metrics().Snapshot()
	rehomed = mc.Final.Sum("rebuild.meta_rehomed") - mc.Base.Sum("rebuild.meta_rehomed")
	return msTotal, rehomed, mc, err
}

// ms converts a simulated duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Render prints the three tables.
func (r MetaResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Replicated metadata: %d servers, %d KB files, replica-2 data, %d trials\n",
		metaServers, r.Opts.FileKB, r.Opts.Trials)

	fmt.Fprintln(w, "\n## create / metadata-flush latency vs mirror count")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mirrors\tcreate\tflush")
	for _, pt := range r.Writes {
		fmt.Fprintf(tw, "%d\t%.2f ms\t%.2f ms\n", pt.Copies, pt.CreateMs.Mean(), pt.FlushMs.Mean())
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## open latency, healthy vs primary mirror's server crashed")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mirrors\thealthy\tdegraded\tpenalty")
	for _, pt := range r.Opens {
		if pt.Copies == 1 {
			fmt.Fprintf(tw, "%d\t%.2f ms\tunopenable (%d/%d)\t-\n",
				pt.Copies, pt.HealthyMs.Mean(), pt.Unavailable, r.Opts.Trials)
			continue
		}
		h, d := pt.HealthyMs.Mean(), pt.DegradedMs.Mean()
		pen := "-"
		if h > 0 {
			pen = fmt.Sprintf("%.1fx", d/h)
		}
		fmt.Fprintf(tw, "%d\t%.2f ms\t%.2f ms\t%s\n", pt.Copies, h, d, pen)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## metadata re-homing: Rebuild sweep after a mirror server crash (2 mirrors)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "files\trebuild time\tmirrors re-homed")
	for _, pt := range r.Rebuilds {
		fmt.Fprintf(tw, "%d\t%.1f ms\t%.1f\n", pt.Files, pt.Ms.Mean(), pt.Rehomed.Mean())
	}
	tw.Flush()
}
