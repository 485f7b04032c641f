package figures

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Table2Result compares the Red Storm communication/I-O parameters the
// paper tabulates against what the simulated fabric actually delivers,
// measured with portals microbenchmarks (echo for latency, a large
// one-sided Get for link bandwidth) and a disk-bound storage write for the
// I/O-node RAID bandwidth.
type Table2Result struct {
	ConfiguredLatency time.Duration
	MeasuredLatency   time.Duration // half the small-message RTT
	ConfiguredLinkBW  float64       // bytes/s
	MeasuredLinkBW    float64
	ConfiguredDiskBW  float64
	MeasuredDiskBW    float64
}

// Table2 measures the simulated Red Storm fabric and I/O path.
func Table2() (Table2Result, error) {
	spec := cluster.RedStorm()
	res := Table2Result{
		ConfiguredLatency: spec.Latency,
		ConfiguredLinkBW:  spec.NICBandwidth,
		ConfiguredDiskBW:  spec.Disk.BandwidthBps,
	}

	// Fabric microbenchmarks on a bare two-node network.
	k := sim.NewKernel()
	net := netsim.New(k, spec.Latency)
	cfg := netsim.Config{EgressBW: spec.NICBandwidth, IngressBW: spec.NICBandwidth, SWOverhead: spec.SWOverhead}
	a := portals.NewEndpoint(net, net.AddNode("a", cfg))
	b := portals.NewEndpoint(net, net.AddNode("b", cfg))
	b.ServeEcho()
	const xfer = 1 << 30
	b.Attach(5, 1, 0, &portals.MD{Payload: netsim.SyntheticPayload(xfer)})
	err := runProc(k, "bench", func(p *sim.Proc) error {
		rtt, err := a.Echo(p, b.Node())
		if err != nil {
			return err
		}
		res.MeasuredLatency = rtt / 2
		start := p.Now()
		if _, err := a.Get(p, b.Node(), 5, 1, 0, xfer); err != nil {
			return err
		}
		res.MeasuredLinkBW = xfer / p.Now().Sub(start).Seconds()
		return nil
	})
	if err != nil {
		return res, err
	}

	// I/O-node RAID bandwidth through the full LWFS write path on a
	// minimal Red-Storm-parameter cluster.
	ioSpec := spec
	ioSpec.ComputeNodes = 1
	ioSpec.StorageNodes = 1
	cl := cluster.New(ioSpec)
	cl.RegisterUser("bench", "bench")
	l := cl.DeployLWFS()
	c := cl.NewClient(l, 0)
	err = runProc(cl.K, "bench", func(p *sim.Proc) error {
		if err := c.Login(p, "bench", "bench"); err != nil {
			return err
		}
		cid, err := c.CreateContainer(p)
		if err != nil {
			return err
		}
		caps, err := c.GetCaps(p, cid, authz.OpCreate, authz.OpWrite)
		if err != nil {
			return err
		}
		ref, err := c.CreateObject(p, c.Server(0), caps)
		if err != nil {
			return err
		}
		const size = 4 << 30
		start := p.Now()
		if _, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(size)); err != nil {
			return err
		}
		res.MeasuredDiskBW = size / p.Now().Sub(start).Seconds()
		return nil
	})
	return res, err
}

// Render prints the configured-vs-measured comparison.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "# Table 2: Red Storm communication and I/O performance (paper parameters vs simulated measurement)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tpaper\tmeasured")
	fmt.Fprintf(tw, "MPI latency (1 hop)\t%v\t%v\n", r.ConfiguredLatency, r.MeasuredLatency.Round(100*time.Nanosecond))
	fmt.Fprintf(tw, "bi-directional link B/W\t%.1f GB/s\t%.1f GB/s\n", r.ConfiguredLinkBW/1e9, r.MeasuredLinkBW/1e9)
	fmt.Fprintf(tw, "I/O node B/W (to RAID)\t%.0f MB/s\t%.0f MB/s\n", r.ConfiguredDiskBW/float64(1<<20), r.MeasuredDiskBW/float64(1<<20))
	tw.Flush()
}
