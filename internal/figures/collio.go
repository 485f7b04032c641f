package figures

import (
	"fmt"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/collio"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// CollectiveVsIndependent measures the §6 collective-I/O experiment: 8
// ranks write 512 interleaved 64 KiB records of a global array, either via
// two-phase collective aggregation or as independent small writes. It
// returns the write phase's virtual-time duration.
func CollectiveVsIndependent(collective bool) (time.Duration, error) {
	const ranks, records = 8, 512
	const recSize = int64(64) << 10
	spec := cluster.DevCluster().WithServers(4)
	spec.ComputeNodes = ranks
	cl := cluster.New(spec)
	cl.RegisterUser("mpi", "pw")
	l := cl.DeployLWFS()
	clients := make([]*core.Client, ranks)
	for i := range clients {
		clients[i] = cl.NewClient(l, i)
	}
	var elapsed time.Duration
	err := runProc(cl.K, "driver", func(p *sim.Proc) error {
		c := clients[0]
		if err := c.Login(p, "mpi", "pw"); err != nil {
			return err
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			return err
		}
		for _, other := range clients[1:] {
			other.SetCredential(c.Credential())
		}
		job := collio.NewJob(clients, caps, 0)
		ds, err := job.CreateDataset(p, records*recSize)
		if err != nil {
			return err
		}
		start := p.Now()
		var wg sim.WaitGroup
		var rankErr error
		wg.Add(ranks)
		for i := 0; i < ranks; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				frags := make([]collio.Fragment, 0, records/ranks)
				for rec := i; rec < records; rec += ranks {
					frags = append(frags, collio.Fragment{
						Off:     int64(rec) * recSize,
						Payload: netsim.SyntheticPayload(recSize),
					})
				}
				var werr error
				if collective {
					werr = job.Rank(i).CollectiveWrite(q, ds, frags)
				} else {
					werr = job.Rank(i).IndependentWrite(q, ds, frags)
				}
				if werr != nil && rankErr == nil {
					rankErr = werr
				}
			})
		}
		wg.Wait(p)
		elapsed = p.Now().Sub(start)
		return rankErr
	})
	return elapsed, err
}
