package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// The redundancy sweep (experiment E19): what stripe-level redundancy costs
// and buys. Three tables: (1) full-stripe write bandwidth per scheme — the
// steady-state overhead of replica fan-out and parity computation; (2) read
// latency healthy vs one-server-down — the price of a degraded read that
// reconstructs the missing column from survivors; (3) online rebuild time
// as the number of affected layouts grows — the repair window during which
// a second failure would be fatal.

// RebuildOpts parameterize the sweep.
type RebuildOpts struct {
	DataMB   int64                                    // per-layout payload in MB (default 8)
	Objects  []int                                    // layout counts for the rebuild-time sweep (default 4,8,16)
	Trials   int                                      // trials per point (default 3)
	Progress func(format string, args ...interface{}) // optional
}

// The redundancy sweep's fixed cluster and layout shape. Engines use the
// stripe package's default fan-out window.
const (
	rebuildServers = 4         // storage servers, one per node
	rebuildUnit    = 256 << 10 // stripe unit
)

func (o *RebuildOpts) defaults() {
	o.DataMB = cmp.Or(o.DataMB, 8)
	o.Objects = orDefault(o.Objects, []int{4, 8, 16})
	o.Trials = cmp.Or(o.Trials, 3)
}

// RebuildWritePoint is one scheme's full-stripe write bandwidth (logical
// bytes; the redundant copies/parity are the overhead being measured).
type RebuildWritePoint struct {
	Scheme string
	MBs    stats.Sample
}

// RebuildReadPoint is one scheme's full-file read latency, healthy vs with
// one storage server crashed (the degraded path reconstructs around it).
type RebuildReadPoint struct {
	Scheme     string
	HealthyMs  stats.Sample
	DegradedMs stats.Sample
}

// RebuildPoint is one rebuild-time measurement: n parity layouts each lose
// one object to a server crash, and a Rebuilder repairs them all.
type RebuildPoint struct {
	Objects   int          // layouts repaired (one lost object each)
	Ms        stats.Sample // total repair time
	RepairMBs stats.Sample // reconstruction throughput, rebuilt MB/s
}

// RebuildResult is the whole sweep.
type RebuildResult struct {
	Opts     RebuildOpts
	Writes   []RebuildWritePoint
	Reads    []RebuildReadPoint
	Rebuilds []RebuildPoint
	Captures []MetricsCapture // each degraded-read and rebuild point, last trial
}

// rebuildRetry arms clients in the crash phases so RPCs against the dead
// server fail over to the degraded path instead of hanging. The timeout has
// to comfortably exceed a full per-object transfer at DevCluster NIC speed
// (multi-MB extents share the client NIC when the engine fans out), or the
// engine would misread slow-but-healthy servers as dead.
var rebuildRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     250 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// RebuildSweep measures every point.
func RebuildSweep(opts RebuildOpts) (RebuildResult, error) {
	opts.defaults()
	res := RebuildResult{Opts: opts}

	schemes := []string{"raid0", "replica2", "parity"}
	for _, scheme := range schemes {
		pt := RebuildWritePoint{Scheme: scheme}
		for trial := 0; trial < opts.Trials; trial++ {
			mbs, err := rebuildWriteTrial(opts, scheme, trial)
			if err != nil {
				return res, fmt.Errorf("rebuild write %s trial %d: %w", scheme, trial, err)
			}
			pt.MBs.Add(mbs)
		}
		report(opts.Progress, "rebuild write %s: %s MB/s", scheme, pt.MBs.String())
		res.Writes = append(res.Writes, pt)
	}

	for _, scheme := range []string{"replica2", "parity"} {
		pt := RebuildReadPoint{Scheme: scheme}
		for trial := 0; trial < opts.Trials; trial++ {
			h, d, mc, err := rebuildReadTrial(opts, scheme, trial)
			if err != nil {
				return res, fmt.Errorf("degraded read %s trial %d: %w", scheme, trial, err)
			}
			pt.HealthyMs.Add(h)
			pt.DegradedMs.Add(d)
			if trial == opts.Trials-1 {
				mc.Label = fmt.Sprintf("degraded-read scheme=%s", scheme)
				res.Captures = append(res.Captures, mc)
			}
		}
		report(opts.Progress, "degraded read %s: healthy %s ms, degraded %s ms", scheme,
			pt.HealthyMs.String(), pt.DegradedMs.String())
		res.Reads = append(res.Reads, pt)
	}

	for _, n := range opts.Objects {
		pt := RebuildPoint{Objects: n}
		for trial := 0; trial < opts.Trials; trial++ {
			ms, mbs, mc, err := rebuildRepairTrial(opts, n, trial)
			if err != nil {
				return res, fmt.Errorf("rebuild objs=%d trial %d: %w", n, trial, err)
			}
			pt.Ms.Add(ms)
			pt.RepairMBs.Add(mbs)
			if trial == opts.Trials-1 {
				mc.Label = fmt.Sprintf("rebuild objects=%d", n)
				res.Captures = append(res.Captures, mc)
			}
		}
		report(opts.Progress, "rebuild objs=%d: %s ms, %s MB/s", n, pt.Ms.String(), pt.RepairMBs.String())
		res.Rebuilds = append(res.Rebuilds, pt)
	}
	return res, nil
}

// rebuildCluster builds a one-client cluster with one storage server per
// node, so crashing a server removes a whole placement target.
func rebuildCluster(servers int) (*cluster.Cluster, *cluster.LWFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 1
	spec.ServersPerNode = 1
	spec = spec.WithServers(servers)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	return cl, cl.DeployLWFS()
}

// rebuildLayout creates one scheme layout of size bytes with its objects
// placed round-robin from the base server slot.
func rebuildLayout(p *sim.Proc, c *core.Client, caps core.CapSet, scheme string, base int, unit, size int64) (stripe.Layout, error) {
	l := stripe.Layout{Size: size, Unit: unit}
	var nobjs int
	switch scheme {
	case "replica2":
		l.Scheme, l.Copies, nobjs = stripe.Replica, 2, 4
	case "parity":
		l.Scheme, nobjs = stripe.Parity, 4
	default:
		l.Scheme, nobjs = stripe.Raid0, 4
	}
	for i := 0; i < nobjs; i++ {
		ref, err := c.CreateObject(p, c.Server(base+i), caps)
		if err != nil {
			return l, err
		}
		l.Objs = append(l.Objs, ref)
	}
	return l, l.Validate()
}

// crashServer fail-stops the storage server behind the target.
func crashServer(l *cluster.LWFS, t storage.Target) {
	for _, srv := range l.Servers {
		if (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}) == t {
			srv.Crash()
		}
	}
}

// rebuildWriteTrial measures one full-stripe write's logical bandwidth.
func rebuildWriteTrial(opts RebuildOpts, scheme string, trial int) (float64, error) {
	cl, lw := rebuildCluster(rebuildServers)
	c := cl.NewClient(lw, 0)
	bytes := opts.DataMB << 20
	var mbs float64
	err := runProc(cl.K, "bench", func(p *sim.Proc) error {
		caps, err := rebuildLogin(p, c)
		if err != nil {
			return err
		}
		l, err := rebuildLayout(p, c, caps, scheme, trial, rebuildUnit, bytes)
		if err != nil {
			return err
		}
		eng := stripe.NewEngine(c, caps, 0)
		t0 := p.Now()
		if _, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return err
		}
		mbs = float64(bytes) / (1 << 20) / p.Now().Sub(t0).Seconds()
		return nil
	})
	return mbs, err
}

// rebuildReadTrial measures one full read healthy, then crashes the server
// behind the layout's second object and measures the degraded read.
func rebuildReadTrial(opts RebuildOpts, scheme string, trial int) (healthyMs, degradedMs float64, mc MetricsCapture, err error) {
	cl, lw := rebuildCluster(rebuildServers)
	c := cl.NewClient(lw, 0)
	c.SetRetry(rebuildRetry, int64(trial)+17)
	mc.Base = cl.Metrics().Snapshot()
	bytes := opts.DataMB << 20
	err = runProc(cl.K, "bench", func(p *sim.Proc) error {
		caps, lerr := rebuildLogin(p, c)
		if lerr != nil {
			return lerr
		}
		l, lerr := rebuildLayout(p, c, caps, scheme, trial, rebuildUnit, bytes)
		if lerr != nil {
			return lerr
		}
		eng := stripe.NewEngine(c, caps, 0)
		if _, lerr := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(bytes)); lerr != nil {
			return lerr
		}
		t0 := p.Now()
		if _, lerr := eng.ReadAt(p, l, 0, bytes); lerr != nil {
			return fmt.Errorf("healthy read: %w", lerr)
		}
		healthyMs = float64(p.Now().Sub(t0).Microseconds()) / 1000
		crashServer(lw, storage.TargetOf(l.Objs[1]))
		t0 = p.Now()
		if _, lerr := eng.ReadAt(p, l, 0, bytes); lerr != nil {
			return fmt.Errorf("degraded read: %w", lerr)
		}
		degradedMs = float64(p.Now().Sub(t0).Microseconds()) / 1000
		return nil
	})
	mc.Final = cl.Metrics().Snapshot()
	return healthyMs, degradedMs, mc, err
}

// rebuildRepairTrial writes n parity layouts, crashes one server, and times
// a Rebuilder repairing every layout that lost an object to it.
func rebuildRepairTrial(opts RebuildOpts, n, trial int) (ms, mbs float64, mc MetricsCapture, err error) {
	cl, lw := rebuildCluster(rebuildServers)
	c := cl.NewClient(lw, 0)
	c.SetRetry(rebuildRetry, int64(trial)+29)
	mc.Base = cl.Metrics().Snapshot()
	bytes := opts.DataMB << 20
	err = runProc(cl.K, "bench", func(p *sim.Proc) error {
		caps, lerr := rebuildLogin(p, c)
		if lerr != nil {
			return lerr
		}
		eng := stripe.NewEngine(c, caps, 0)
		layouts := make([]stripe.Layout, n)
		for i := range layouts {
			l, lerr := rebuildLayout(p, c, caps, "parity", i, rebuildUnit, bytes)
			if lerr != nil {
				return lerr
			}
			if _, lerr := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(bytes)); lerr != nil {
				return lerr
			}
			layouts[i] = l
		}
		dead := storage.Target{Node: lw.Servers[0].Node(), Port: lw.Servers[0].RPCPort()}
		crashServer(lw, dead)
		rb := stripe.NewRebuilder(eng)
		var rebuilt int64
		t0 := p.Now()
		for i, l := range layouts {
			nl, lerr := rb.Rebuild(p, l, dead, c.Servers())
			if lerr != nil {
				return fmt.Errorf("layout %d: %w", i, lerr)
			}
			for j := range l.Objs {
				if storage.TargetOf(l.Objs[j]) == dead {
					rebuilt += l.ObjectLength(j)
				}
			}
			layouts[i] = nl
		}
		elapsed := p.Now().Sub(t0)
		ms = float64(elapsed.Microseconds()) / 1000
		if elapsed > 0 {
			mbs = float64(rebuilt) / (1 << 20) / elapsed.Seconds()
		}
		return nil
	})
	mc.Final = cl.Metrics().Snapshot()
	return ms, mbs, mc, err
}

// rebuildLogin logs the bench client in and returns an all-ops capability
// set for a fresh container.
func rebuildLogin(p *sim.Proc, c *core.Client) (core.CapSet, error) {
	if err := c.Login(p, "app", "s3cret"); err != nil {
		return core.CapSet{}, fmt.Errorf("login: %w", err)
	}
	cid, err := c.CreateContainer(p)
	if err != nil {
		return core.CapSet{}, fmt.Errorf("container: %w", err)
	}
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if err != nil {
		return core.CapSet{}, fmt.Errorf("caps: %w", err)
	}
	return caps, nil
}

// Render prints the three tables.
func (r RebuildResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Redundant stripe layouts: %d servers, %d MB per layout, unit %d KiB, %d trials\n",
		rebuildServers, r.Opts.DataMB, rebuildUnit>>10, r.Opts.Trials)

	fmt.Fprintln(w, "\n## full-stripe write bandwidth (logical MB/s; redundancy is the gap)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\twrite\tvs raid0")
	var base float64
	for _, pt := range r.Writes {
		if pt.Scheme == "raid0" {
			base = pt.MBs.Mean()
		}
	}
	for _, pt := range r.Writes {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.2fx", pt.MBs.Mean()/base)
		}
		fmt.Fprintf(tw, "%s\t%.0f MB/s\t%s\n", pt.Scheme, pt.MBs.Mean(), rel)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## read latency, healthy vs one server down (degraded reconstruction)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\thealthy\tdegraded\tpenalty")
	for _, pt := range r.Reads {
		h, d := pt.HealthyMs.Mean(), pt.DegradedMs.Mean()
		pen := "-"
		if h > 0 {
			pen = fmt.Sprintf("%.1fx", d/h)
		}
		fmt.Fprintf(tw, "%s\t%.1f ms\t%.1f ms\t%s\n", pt.Scheme, h, d, pen)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## online rebuild time vs affected layouts (parity, one lost object each)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layouts\trebuild time\trepair throughput")
	for _, pt := range r.Rebuilds {
		fmt.Fprintf(tw, "%d\t%.1f ms\t%.0f MB/s\n", pt.Objects, pt.Ms.Mean(), pt.RepairMBs.Mean())
	}
	tw.Flush()
}
