package checkpoint_test

import (
	"bytes"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
)

// burstSpec builds a small cluster with a staging tier: 2 storage servers on
// their own nodes plus the given number of burst-buffer nodes.
func burstSpec(buffers int) cluster.Spec {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec.ServersPerNode = 1
	spec = spec.WithServers(2)
	spec.BurstNodes = buffers
	return spec
}

type burstOutcome struct {
	res        *checkpoint.Result
	manifest   checkpoint.Manifest
	data       [][]byte
	restoreErr error
	l          *cluster.LWFS
	log        *testrig.ChaosLog
}

// runBurstCheckpoint runs one checkpoint through the staging tier on a fresh
// cluster, with an optional chaos script (built against the deployed
// services), then attempts a restore pass after everything — drains and any
// scripted faults included — has settled.
func runBurstCheckpoint(t *testing.T, spec cluster.Spec, cfg checkpoint.Config, chaos func(l *cluster.LWFS) []testrig.ChaosEvent) burstOutcome {
	t.Helper()
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	cfg.Burst = l.BurstTargets()

	out := burstOutcome{l: l}
	if chaos != nil {
		out.log = testrig.RunChaos(cl.K, chaos(l)...)
	}
	res, err := checkpoint.SetupLWFS(cl, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.res = res

	restarter := cl.NewClient(l, 0)
	gate := sim.NewMailbox(cl.K, "burst/gate")
	cl.Spawn("gate", func(p *sim.Proc) {
		// rank 0 folds its result only after the commit (or abort), so a full
		// Per slice means the checkpoint's fate is decided.
		for len(res.Per) < cfg.Procs {
			p.Sleep(50 * time.Millisecond)
		}
		p.Sleep(100 * time.Millisecond)
		gate.Send("go")
	})
	cl.Spawn("restore", func(p *sim.Proc) {
		gate.Recv(p)
		if err := restarter.Login(p, "app", "s3cret"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		caps, err := restarter.GetCaps(p, 1, authz.AllOps...)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		m, err := checkpoint.Restore(p, restarter, caps, "/ckpt-0001")
		if err != nil {
			out.restoreErr = err
			return
		}
		out.manifest = m
		out.data = make([][]byte, m.Ranks)
		for rank, ref := range m.Refs {
			payload, err := restarter.Read(p, ref, caps, 0, m.BytesPerProc)
			if err != nil {
				t.Errorf("rank %d read: %v", rank, err)
				return
			}
			out.data[rank] = payload.Data
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBurstApparentBelowDurable is the tier's reason to exist: the ranks are
// acked well before their state is on disk, so the apparent checkpoint time
// (Elapsed) sits materially below both the commit-inclusive Durable time and
// a direct (no-tier) run of the same job — and the drained data still
// restores bit-exactly.
func TestBurstApparentBelowDurable(t *testing.T) {
	cfg := checkpoint.Config{Procs: 4, BytesPerProc: 4 * mb, PatternData: true}
	out := runBurstCheckpoint(t, burstSpec(2), cfg, nil)
	if out.res.Aborted {
		t.Fatalf("healthy burst checkpoint aborted")
	}
	if out.restoreErr != nil {
		t.Fatalf("restore: %v", out.restoreErr)
	}
	t.Logf("apparent %v, durable %v (hidden tail %v)",
		out.res.Elapsed, out.res.Durable, out.res.Durable-out.res.Elapsed)
	if out.res.Durable < out.res.Elapsed*3/2 {
		t.Fatalf("durable %v not materially above apparent %v — the tier hid nothing",
			out.res.Durable, out.res.Elapsed)
	}

	direct, err := checkpoint.RunLWFS(burstSpec(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("direct (no tier) elapsed %v", direct.Elapsed)
	if direct.Elapsed < out.res.Elapsed*13/10 {
		t.Fatalf("direct run %v not materially above burst apparent %v",
			direct.Elapsed, out.res.Elapsed)
	}
	if direct.Durable != direct.Elapsed {
		t.Fatalf("without a tier, durable %v should equal elapsed %v", direct.Durable, direct.Elapsed)
	}
	for rank, got := range out.data {
		if !bytes.Equal(got, checkpoint.PatternFor(rank, out.manifest.BytesPerProc)) {
			t.Fatalf("rank %d restored data differs from pattern", rank)
		}
	}
}

// TestBurstBackpressureDegradesToPassthrough: with the staging window
// smaller than the burst and the drain throttled, later ranks pass through
// synchronously instead of failing — the checkpoint completes, commits after
// the throttled drain, and restores bit-exactly.
func TestBurstBackpressureDegradesToPassthrough(t *testing.T) {
	spec := burstSpec(1)
	spec.Burst.StageCapacity = 2 * mb
	spec.Burst.DrainBW = 2 * mb // ~1 s to drain one rank: the window stays full
	cfg := checkpoint.Config{
		Procs:        4,
		BytesPerProc: 2 * mb,
		PatternData:  true,
		DrainTimeout: 10 * time.Second,
	}
	out := runBurstCheckpoint(t, spec, cfg, nil)
	if out.res.Aborted {
		t.Fatalf("backpressured checkpoint aborted")
	}
	if out.restoreErr != nil {
		t.Fatalf("restore: %v", out.restoreErr)
	}
	bb := out.l.Burst[0]
	t.Logf("staged %d bytes, passthroughs %d, apparent %v, durable %v",
		bb.StagedBytes(), bb.Passthroughs(), out.res.Elapsed, out.res.Durable)
	if bb.Passthroughs() == 0 {
		t.Fatalf("no pass-throughs despite a 2 MB window and an 8 MB burst")
	}
	if bb.StagedBytes() == 0 {
		t.Fatalf("nothing staged — scenario should mix staged and pass-through writes")
	}
	for rank, got := range out.data {
		if !bytes.Equal(got, checkpoint.PatternFor(rank, out.manifest.BytesPerProc)) {
			t.Fatalf("rank %d restored data differs from pattern", rank)
		}
	}
}

// TestBurstBufferCrashAbortsDump is the tier's safety contract: a buffer
// crash after the acks but before the drain finishes loses volatile staged
// state, so the commit tail must abort the transaction — the manifest never
// exists, the provisional objects are swept, and a restore attempt fails
// cleanly instead of reading partially drained data.
func TestBurstBufferCrashAbortsDump(t *testing.T) {
	spec := burstSpec(1)
	spec.Burst.DrainBW = mb // ~2 s per rank: a wide window to crash inside
	cfg := checkpoint.Config{
		Procs:        4,
		BytesPerProc: 2 * mb,
		PatternData:  true,
		DrainTimeout: 300 * time.Millisecond,
	}
	out := runBurstCheckpoint(t, spec, cfg, func(l *cluster.LWFS) []testrig.ChaosEvent {
		return []testrig.ChaosEvent{
			// 100 ms: every rank's 2 MB stage has long been acked (~40 ms for
			// 8 MB through one 230 MB/s NIC), but at 1 MB/s drain the first
			// extent is still in flight.
			{At: 100 * time.Millisecond, Name: "crash-buffer", Do: func(p *sim.Proc) {
				l.Burst[0].Crash()
			}},
		}
	})
	t.Logf("chaos events: %v", out.log.Events)
	if !out.res.Aborted {
		t.Fatalf("buffer crash mid-drain did not abort the checkpoint")
	}
	if out.restoreErr == nil {
		t.Fatalf("restore of an aborted checkpoint succeeded: manifest %+v", out.manifest)
	}
	t.Logf("restore failed as required: %v", out.restoreErr)
	// The abort must have swept every provisional object: partially drained
	// data is not allowed to linger on the storage servers.
	for i, srv := range out.l.Servers {
		if ids := srv.Device().ListContainer(1); len(ids) != 0 {
			t.Fatalf("server %d still holds %d objects after abort", i, len(ids))
		}
	}
}
