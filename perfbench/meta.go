package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/naming"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// The meta workload: a Figure 10 / mdtest-style metadata storm. metaClients
// processes share the dev cluster's 31 compute nodes, as the paper's runs
// with more processes than nodes did, and each works in its own container.
// Every client runs metaCycles closed-loop cycles of four steps:
//
//  1. one transaction: BeginTxn, CreateObjectTxn on a round-robin server,
//     CreateName, Commit;
//  2. Lookup the name;
//  3. Stat the object;
//  4. remove the name and the object.
//
// Only small RPCs move: portals, authz capability checks (cold, then
// cached), naming and the txn two-phase-commit journal do all the work
// and the bulk path stays idle.
const (
	metaClients = 48
	metaCycles  = 25
)

// metaOps are the core.Client calls the workload wraps in spans.
var metaOps = []string{"create_obj", "create_name", "commit", "lookup", "stat", "remove"}

var metaWorkload = workload{
	name:        "meta",
	units:       4,
	unitSeconds: 1,
	setup:       setupMeta,
	spanLayers:  metaSpanLayers,
}

// cycleOutcome is what one cycle told its client and what it then saw.
type cycleOutcome struct {
	told    error // the transaction step's result
	visible bool  // Lookup found the name bound to the created object
	present bool  // Stat found the object
	removed error // step 4's result (nil when nothing was left to remove)
}

// classify checks a cycle's visible outcome against what the client was
// told. A cycle fails when any step failed or ended wrong; it is an
// anomaly when what it saw contradicts what the client was told (a name
// or object visible after a failed commit, or a name missing after a
// successful one).
func classify(o cycleOutcome) (failed, anomaly bool) {
	if o.told != nil {
		return true, o.visible || o.present
	}
	return !o.visible || !o.present || o.removed != nil, !o.visible
}

func setupMeta(seed int64, tr *tracer) (*unit, error) {
	cl := cluster.New(cluster.DevCluster())
	cl.RegisterUser("app", "s3cret")
	lw := cl.DeployLWFS()
	rng := rand.New(rand.NewSource(seed))
	clients := make([]*core.Client, metaClients)
	caps := make([]core.CapSet, metaClients)
	jitter := make([]time.Duration, metaClients)
	offset := rng.Intn(len(lw.Sys.Storage))
	var setupErr error
	for i := range clients {
		i := i
		clients[i] = cl.NewClient(lw, i)
		jitter[i] = time.Duration(rng.Int63n(int64(time.Millisecond)))
		cl.Spawn(fmt.Sprintf("meta-login%d", i), func(p *sim.Proc) {
			c := clients[i]
			err := c.Login(p, "app", "s3cret")
			var cid authz.ContainerID
			if err == nil {
				cid, err = c.CreateContainer(p)
			}
			if err == nil {
				caps[i], err = c.GetCaps(p, cid, authz.AllOps...)
			}
			if err != nil && setupErr == nil {
				setupErr = fmt.Errorf("client %d: %w", i, err)
			}
		})
	}
	if err := cl.Run(); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}

	outcomes := make([][]cycleOutcome, metaClients)
	lat := make([]time.Duration, metaClients*metaCycles)
	var start, end sim.Time
	run := func() error {
		start = cl.K.Now()
		root := tr.begin("meta.unit", 0, start)
		for i := range clients {
			i := i
			cl.Spawn(fmt.Sprintf("meta-client%d", i), func(p *sim.Proc) {
				p.Sleep(jitter[i])
				for cy := 0; cy < metaCycles; cy++ {
					o, l := metaCycle(p, clients[i], caps[i], (offset+i+cy)%len(lw.Sys.Storage),
						fmt.Sprintf("/m%d-%d", i, cy), tr, root)
					outcomes[i] = append(outcomes[i], o)
					lat[i*metaCycles+cy] = l
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		err := cl.Run()
		tr.end(root, end)
		return err
	}
	check := func(r *unitResult) error {
		r.virt = end.Sub(start)
		for i := range outcomes {
			if len(outcomes[i]) != metaCycles {
				return fmt.Errorf("client %d ran %d of %d cycles", i, len(outcomes[i]), metaCycles)
			}
			for cy, o := range outcomes[i] {
				r.ops++
				failed, anomaly := classify(o)
				if anomaly {
					r.anomalies++
				}
				if failed {
					r.failed++
				} else {
					r.lat.Add(float64(lat[i*metaCycles+cy]) / 1e6)
				}
			}
		}
		return nil
	}
	return &unit{cl: cl, lw: lw, run: run, check: check}, nil
}

// metaCycle runs one cycle and returns its outcome and virtual latency.
func metaCycle(p *sim.Proc, c *core.Client, caps core.CapSet, server int, path string,
	tr *tracer, root int32) (cycleOutcome, time.Duration) {
	var o cycleOutcome
	start := p.Now()
	cyc := tr.begin("meta.cycle", root, start)
	call := func(name string, fn func() error) error {
		s := tr.begin("core."+name, cyc, p.Now())
		err := fn()
		tr.end(s, p.Now())
		return err
	}

	tx := c.BeginTxn()
	var ref storage.ObjRef
	o.told = call("create_obj", func() (err error) {
		ref, err = c.CreateObjectTxn(p, c.Server(server), caps, tx)
		return err
	})
	if o.told == nil {
		o.told = call("create_name", func() error { return c.CreateName(p, path, ref, tx) })
	}
	if o.told == nil {
		o.told = call("commit", func() error { return tx.Commit(p) })
	} else if err := tx.Abort(p); err != nil {
		o.told = errors.Join(o.told, err)
	}

	lerr := call("lookup", func() error {
		e, err := c.Lookup(p, path)
		o.visible = err == nil && e.Ref == ref
		return err
	})
	if ref != (storage.ObjRef{}) {
		call("stat", func() error {
			_, err := c.Stat(p, ref, caps)
			o.present = err == nil
			return err
		})
	}
	if o.told == nil || lerr == nil {
		o.removed = call("remove", func() error {
			_, err := c.RemoveName(p, path)
			if o.present {
				err = errors.Join(err, c.Remove(p, ref, caps))
			}
			return err
		})
		if o.told != nil {
			o.removed = nil // cleaning up an anomaly; classify already counted it
		}
	} else if !errors.Is(lerr, naming.ErrNotFound) {
		o.removed = lerr
	}
	tr.end(cyc, p.Now())
	return o, p.Now().Sub(start)
}

// metaSpanLayers reports the naming/core spans and the txn commit
// figures, including how a commit's host cost grows over a unit.
func metaSpanLayers(tr *tracer, m map[string]float64) {
	for _, op := range metaOps {
		spanStats(tr, "core."+op, m)
	}
	commits := tr.byName("core.commit")
	var virt []float64
	for _, s := range commits {
		virt = append(virt, float64(s.virt())/1e6)
	}
	m["txn.commit_ms.p50"] = percentile(virt, 50)
	m["txn.commit_ms.p99"] = percentile(virt, 99)
	first, last := decileHostUs(tr, commits)
	m["txn.commit_host_us.first_decile"] = first
	m["txn.commit_host_us.last_decile"] = last
}

// decileHostUs groups spans by unit (their root span) and returns the
// median over units of the median host µs of each unit's first and last
// tenth of spans, in start order.
func decileHostUs(tr *tracer, spans []span) (first, last float64) {
	byRoot := map[int32][]span{}
	var roots []int32
	for _, s := range spans {
		r := tr.root(s)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], s)
	}
	var firsts, lasts []float64
	for _, r := range roots {
		ss := byRoot[r]
		n := max(len(ss)/10, 1)
		firsts = append(firsts, hostMedianUs(ss[:n]))
		lasts = append(lasts, hostMedianUs(ss[len(ss)-n:]))
	}
	return median(firsts), median(lasts)
}
