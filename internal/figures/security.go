package figures

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// SecurityResult captures the §3.1 protocol microbenchmarks: the cost of a
// storage request whose capability must be verified with the authorization
// service (cold) versus one served from the storage server's capability
// cache (warm) — the amortization argument of §3.1.2 — and the latency and
// selectivity of revocation (§3.1.4).
type SecurityResult struct {
	ColdWrite time.Duration // first write: verify round trip included
	WarmWrite time.Duration // subsequent write: cache hit
	GetCaps   time.Duration // Figure 4a acquire-capabilities round trip

	RevokeLatency time.Duration // owner-side Revoke() completion
	// After revocation, with caches already warm:
	WriteRevoked bool // revoked write capability is refused
	ReadSurvives bool // read capability still works (partial revocation)
}

// Security runs the protocol microbenchmarks on the dev-cluster simulation.
func Security() (SecurityResult, error) {
	var out SecurityResult
	spec := cluster.DevCluster().WithServers(2)
	spec.ComputeNodes = 2
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	c := cl.NewClient(l, 0)
	err := runProc(cl.K, "bench", func(p *sim.Proc) error {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			return fmt.Errorf("login: %w", err)
		}
		cid, err := c.CreateContainer(p)
		if err != nil {
			return fmt.Errorf("container: %w", err)
		}
		t0 := p.Now()
		caps, err := c.GetCaps(p, cid, authz.OpCreate, authz.OpWrite, authz.OpRead)
		if err != nil {
			return fmt.Errorf("getcaps: %w", err)
		}
		out.GetCaps = p.Now().Sub(t0)

		ref, err := c.CreateObject(p, c.Server(0), caps)
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		const sz = 4096
		t1 := p.Now()
		if _, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(sz)); err != nil {
			return fmt.Errorf("cold write: %w", err)
		}
		out.ColdWrite = p.Now().Sub(t1)

		t2 := p.Now()
		if _, err := c.Write(p, ref, caps, sz, netsim.SyntheticPayload(sz)); err != nil {
			return fmt.Errorf("warm write: %w", err)
		}
		out.WarmWrite = p.Now().Sub(t2)

		// Warm the read path, then revoke write only.
		if _, err := c.Read(p, ref, caps, 0, sz); err != nil {
			return fmt.Errorf("warm read: %w", err)
		}
		t3 := p.Now()
		if err := c.Revoke(p, authz.ContainerID(cid), authz.OpWrite); err != nil {
			return fmt.Errorf("revoke: %w", err)
		}
		out.RevokeLatency = p.Now().Sub(t3)

		_, werr := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(sz))
		out.WriteRevoked = werr != nil
		_, rerr := c.Read(p, ref, caps, 0, sz)
		out.ReadSurvives = rerr == nil
		return nil
	})
	return out, err
}

// Render prints the security microbenchmark report.
func (r SecurityResult) Render(w io.Writer) {
	fmt.Fprintln(w, "# Security protocol microbenchmarks (§3.1, Figure 4)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "getcaps (Figure 4a)\t%v\n", r.GetCaps)
	fmt.Fprintf(tw, "write, cold capability (verify round trip)\t%v\n", r.ColdWrite)
	fmt.Fprintf(tw, "write, warm capability (cache hit)\t%v\n", r.WarmWrite)
	fmt.Fprintf(tw, "verify overhead amortized away\t%v\n", r.ColdWrite-r.WarmWrite)
	fmt.Fprintf(tw, "revocation latency (back-pointer fan-out)\t%v\n", r.RevokeLatency)
	fmt.Fprintf(tw, "revoked write refused\t%v\n", r.WriteRevoked)
	fmt.Fprintf(tw, "read survives partial revocation\t%v\n", r.ReadSurvives)
	tw.Flush()
}
