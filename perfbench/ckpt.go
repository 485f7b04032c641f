package main

import (
	"bytes"
	"fmt"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// The ckpt workload: the paper's Figure 8/9 object-per-process checkpoint
// on the dev cluster (16 servers, 31 compute nodes). Each unit dumps
// ckptRanks ranks of synthetic state on a fresh cluster with its own seed,
// then a restart runs Restore and RestoreRead on every rank. The bulk path
// — server-directed pull, NIC serialisation and disk — and the event
// kernel do the host work; the one transaction per dump leaves the
// journal nearly idle.
const (
	ckptRanks   = 48
	ckptBytes   = 64 << 20
	ckptPattern = 16 << 10 // per-rank size of the bit-exact check dump
	ckptName    = "/ckpt-0001"
	// ckptContainer is the container a dump on a fresh cluster creates:
	// rank 0's CreateContainer is the cluster's first.
	ckptContainer authz.ContainerID = 1
)

var ckptWorkload = workload{
	name:        "ckpt",
	units:       24,
	unitSeconds: 0.03,
	setup:       func(seed int64, tr *tracer) (*unit, error) { return setupCkpt(seed, ckptBytes, false, tr) },
	probe:       probePattern,
}

// probePattern proves a small dump with real, patterned content restores
// bit-exact.
func probePattern(seed int64) error {
	u, err := setupCkpt(seed, ckptPattern, true, nil)
	if err == nil {
		err = u.run()
	}
	if err == nil {
		r := newUnitResult()
		err = u.check(&r)
	}
	if err != nil {
		return fmt.Errorf("patterned dump: %w", err)
	}
	return nil
}

// restart is the outcome of one restart pass.
type restart struct {
	manifest checkpoint.Manifest
	payloads []netsim.Payload
	errs     []error
	opMs     []float64 // Restore, then each rank's RestoreRead
	start    sim.Time
	end      sim.Time
}

func setupCkpt(seed, bytesPerProc int64, pattern bool, tr *tracer) (*unit, error) {
	cl := cluster.New(cluster.DevCluster())
	cl.RegisterUser("app", "s3cret")
	lw := cl.DeployLWFS()
	cfg := checkpoint.Config{Procs: ckptRanks, BytesPerProc: bytesPerProc, Seed: seed, PatternData: pattern}
	restarter := cl.NewClient(lw, 0)
	readers := make([]*core.Client, ckptRanks)
	for i := range readers {
		readers[i] = cl.NewClient(lw, i)
	}
	res, err := checkpoint.SetupLWFS(cl, lw, cfg)
	if err != nil {
		return nil, err
	}
	var rs restart
	var start sim.Time
	var root, dump int32
	cl.Spawn("restart", func(p *sim.Proc) {
		// The restart begins once every rank, rank 0's commit tail
		// included, has folded its result.
		for len(res.Per) < ckptRanks {
			p.Sleep(time.Millisecond)
		}
		tr.end(dump, p.Now())
		rs = restartAll(p, cl.K, restarter, readers, tr, root)
		tr.end(root, p.Now())
	})
	run := func() error {
		start = cl.K.Now()
		root = tr.begin("ckpt.unit", 0, start)
		dump = tr.begin("checkpoint.dump", root, start)
		return cl.Run()
	}
	check := func(r *unitResult) error {
		r.virt = rs.end.Sub(start)
		r.ops = ckptRanks + 1 + ckptRanks
		if len(res.Per) != ckptRanks {
			r.failed = r.ops
			return fmt.Errorf("dump did not finish")
		}
		err := verifyRestore(res, &rs, bytesPerProc, pattern)
		if err != nil {
			r.failed = r.ops
			return err
		}
		for _, t := range res.Per {
			r.lat.Add(float64(t.Total) / 1e6)
		}
		for _, ms := range rs.opMs {
			r.lat.Add(ms)
		}
		restoreS := rs.end.Sub(rs.start).Seconds()
		r.layer["checkpoint.create_ms"] = float64(res.MaxTimes.Create) / 1e6
		r.layer["checkpoint.write_ms"] = float64(res.MaxTimes.Write) / 1e6
		r.layer["checkpoint.sync_ms"] = float64(res.MaxTimes.Sync) / 1e6
		r.layer["checkpoint.close_ms"] = float64(res.MaxTimes.Close) / 1e6
		r.layer["checkpoint.restore_ms"] = restoreS * 1e3
		r.layer["checkpoint.dump_MBps"] = res.ThroughputMBs()
		r.layer["checkpoint.restore_MBps"] = float64(res.Bytes) / mib / restoreS
		return nil
	}
	return &unit{cl: cl, lw: lw, run: run, check: check}, nil
}

// restartAll resolves the checkpoint and reads every rank back in
// parallel, one reader process per rank.
func restartAll(p *sim.Proc, k *sim.Kernel, c *core.Client, readers []*core.Client, tr *tracer, root int32) (rs restart) {
	rs = restart{start: p.Now(), payloads: make([]netsim.Payload, len(readers)), errs: make([]error, len(readers))}
	span := tr.begin("checkpoint.restore", root, p.Now())
	defer func() {
		rs.end = p.Now()
		tr.end(span, rs.end)
	}()
	if err := c.Login(p, "app", "s3cret"); err != nil {
		rs.errs[0] = err
		return rs
	}
	caps, err := c.GetCaps(p, ckptContainer, authz.AllOps...)
	if err != nil {
		rs.errs[0] = err
		return rs
	}
	t0 := p.Now()
	if rs.manifest, err = checkpoint.Restore(p, c, caps, ckptName); err != nil {
		rs.errs[0] = err
		return rs
	}
	rs.opMs = append(rs.opMs, float64(p.Now().Sub(t0))/1e6)
	var wg sim.WaitGroup
	lat := make([]time.Duration, len(readers))
	for i := range readers {
		i := i
		wg.Add(1)
		k.Spawn(fmt.Sprintf("restore%d", i), func(q *sim.Proc) {
			defer wg.Done()
			s := tr.begin("checkpoint.restore_read", span, q.Now())
			t0 := q.Now()
			rs.payloads[i], rs.errs[i] = checkpoint.RestoreRead(q, readers[i], caps, rs.manifest, i)
			lat[i] = q.Now().Sub(t0)
			tr.end(s, q.Now())
		})
	}
	wg.Wait(p)
	for _, d := range lat {
		rs.opMs = append(rs.opMs, float64(d)/1e6)
	}
	return rs
}

// verifyRestore checks a dump and its restart: the dump committed, the
// manifest covers every rank, every rank read back at full size, and —
// for a patterned dump — every byte matches checkpoint.PatternFor.
func verifyRestore(res *checkpoint.Result, rs *restart, bytesPerProc int64, pattern bool) error {
	if res.Aborted {
		return fmt.Errorf("dump aborted")
	}
	for rank, err := range rs.errs {
		if err != nil {
			return fmt.Errorf("restore rank %d: %w", rank, err)
		}
	}
	if rs.manifest.Ranks != ckptRanks || rs.manifest.BytesPerProc != bytesPerProc {
		return fmt.Errorf("manifest has %d ranks of %d bytes, want %d of %d",
			rs.manifest.Ranks, rs.manifest.BytesPerProc, ckptRanks, bytesPerProc)
	}
	for rank, pl := range rs.payloads {
		if pl.Size != bytesPerProc {
			return fmt.Errorf("rank %d restored %d of %d bytes", rank, pl.Size, bytesPerProc)
		}
		if pattern && !bytes.Equal(pl.Data, checkpoint.PatternFor(rank, bytesPerProc)) {
			return fmt.Errorf("rank %d restored content differs from its pattern", rank)
		}
	}
	return nil
}
