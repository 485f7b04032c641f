package figures

import (
	"encoding/binary"
	"fmt"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// ActiveStorageScan measures the §6 remote-filtering experiment: a 1 GiB
// dataset sharded over 8 storage servers, scanned either by server-side
// filters (useFilter=true; only 8 bytes per server cross the network) or
// by reading every byte back to one client. It returns the scan's
// virtual-time duration.
func ActiveStorageScan(useFilter bool) (time.Duration, error) {
	const shard = 128 << 20
	spec := cluster.DevCluster().WithServers(8)
	spec.ComputeNodes = 2
	cl := cluster.New(spec)
	cl.RegisterUser("u", "pw")
	l := cl.DeployLWFS()
	count := func(acc []byte, chunk netsim.Payload) []byte {
		var n uint64
		if len(acc) == 8 {
			n = binary.BigEndian.Uint64(acc)
		}
		n += uint64(chunk.Size)
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, n)
		return out
	}
	for _, srv := range l.Servers {
		srv.RegisterFilter("count", count)
	}
	c := cl.NewClient(l, 0)
	var elapsed time.Duration
	err := runProc(cl.K, "scan", func(p *sim.Proc) error {
		if err := c.Login(p, "u", "pw"); err != nil {
			return fmt.Errorf("login: %w", err)
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			return fmt.Errorf("caps: %w", err)
		}
		refs := make([]storage.ObjRef, len(l.Servers))
		for i := range l.Servers {
			ref, err := c.CreateObject(p, c.Server(i), caps)
			if err != nil {
				return fmt.Errorf("create: %w", err)
			}
			refs[i] = ref
			if _, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(shard)); err != nil {
				return fmt.Errorf("write: %w", err)
			}
		}
		start := p.Now()
		var wg sim.WaitGroup
		var scanErr error
		wg.Add(len(refs))
		for i := range refs {
			ref := refs[i]
			p.Kernel().Spawn(fmt.Sprintf("scan%d", i), func(q *sim.Proc) {
				defer wg.Done()
				if useFilter {
					if _, err := c.Filter(q, ref, caps, 0, shard, "count", "", 64); err != nil {
						scanErr = fmt.Errorf("filter: %w", err)
					}
				} else {
					if _, err := c.Read(q, ref, caps, 0, shard); err != nil {
						scanErr = fmt.Errorf("read: %w", err)
					}
				}
			})
		}
		wg.Wait(p)
		elapsed = p.Now().Sub(start)
		return scanErr
	})
	return elapsed, err
}
