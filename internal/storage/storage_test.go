package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

const mb = 1 << 20

// boot starts a storage server on rig node idx with default disk/config.
func boot(r *testrig.Rig, idx int) *storage.Server {
	dev := osd.NewDevice(r.K, fmt.Sprintf("osd%d", idx), osd.DefaultDiskParams())
	return storage.Start(r.Eps[idx], dev, r.AuthzClient(idx), storage.DefaultRPCPort, storage.DefaultConfig())
}

// session logs in, makes a container and grabs caps for the given ops.
type session struct {
	cred authn.Credential
	cid  authz.ContainerID
	caps map[authz.Op]authz.Capability
}

func newSession(t *testing.T, p *sim.Proc, r *testrig.Rig, node int, ops ...authz.Op) *session {
	t.Helper()
	az := r.AuthzClient(node)
	cred, err := r.AuthnClient(node).Login(p, "alice", testrig.Secret("alice"))
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	cid, err := az.CreateContainer(p, cred)
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	caps, err := az.GetCaps(p, cred, cid, ops...)
	if err != nil {
		t.Fatalf("getcaps: %v", err)
	}
	s := &session{cred: cred, cid: cid, caps: make(map[authz.Op]authz.Capability)}
	for _, c := range caps {
		s.caps[c.Op] = c
	}
	return s
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := []byte("the quick brown fox jumps over the lazy dog")
		n, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload(data))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, int64(len(data)))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Data, data) {
			t.Fatalf("read %q", got.Data)
		}
	})
	r.Run(t)
}

func TestMultiChunkReadReassembly(t *testing.T) {
	r := testrig.New(3)
	dev := osd.NewDevice(r.K, "osd1", osd.DefaultDiskParams())
	cfg := storage.DefaultConfig()
	cfg.ChunkSize = 16 // force many chunks
	cfg.PinnedBuffer = 64
	srv := storage.Start(r.Eps[1], dev, r.AuthzClient(1), storage.DefaultRPCPort, cfg)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := make([]byte, 1000)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 1000)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Data, data) {
			t.Fatal("multi-chunk reassembly corrupted data")
		}
		// Offset read across chunk boundaries.
		got, err = sc.Read(p, ref, s.caps[authz.OpRead], 10, 500)
		if err != nil || !bytes.Equal(got.Data, data[10:510]) {
			t.Fatalf("offset read: err=%v", err)
		}
	})
	r.Run(t)
}

func TestWriteWithoutCapRejected(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Zero capability.
		if _, err := sc.Write(p, ref, authz.Capability{}, 0, netsim.SyntheticPayload(10)); !errors.Is(err, storage.ErrNoCap) {
			t.Errorf("no cap: %v", err)
		}
		// Wrong operation: create cap used for write.
		if _, err := sc.Write(p, ref, s.caps[authz.OpCreate], 0, netsim.SyntheticPayload(10)); !errors.Is(err, storage.ErrWrongOp) {
			t.Errorf("wrong op: %v", err)
		}
		// Tampered capability.
		forged := s.caps[authz.OpWrite]
		forged.Sig[3] ^= 0x40
		if _, err := sc.Write(p, ref, forged, 0, netsim.SyntheticPayload(10)); !errors.Is(err, storage.ErrCapRejected) {
			t.Errorf("forged cap: %v", err)
		}
	})
	r.Run(t)
}

func TestCapForDifferentContainerRejected(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		az := r.AuthzClient(2)
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		// A second container with its own write cap.
		cid2, err := az.CreateContainer(p, s.cred)
		if err != nil {
			t.Fatalf("container2: %v", err)
		}
		caps2, err := az.GetCaps(p, s.cred, cid2, authz.OpWrite)
		if err != nil {
			t.Fatalf("getcaps2: %v", err)
		}
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// cid2's write cap must not open s.cid's object.
		if _, err := sc.Write(p, ref, caps2[0], 0, netsim.SyntheticPayload(10)); !errors.Is(err, storage.ErrWrongCont) {
			t.Errorf("cross-container cap: %v", err)
		}
	})
	r.Run(t)
}

func TestCapCacheAmortizesVerification(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 10; i++ {
			if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], int64(i)*10, netsim.SyntheticPayload(10)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	})
	r.Run(t)
	snap := r.Net.Metrics().Snapshot()
	hits, misses := snap.Sum("storage.*.cap_cache.hits"), snap.Sum("storage.*.cap_cache.misses")
	// One miss per distinct capability (create, write); the other 9 writes hit.
	if misses != 2 || hits != 9 {
		t.Fatalf("cache hits=%v misses=%v", hits, misses)
	}
	if verifies := snap.Value("authz.verifies"); verifies != 2 {
		t.Fatalf("authz verifies = %v", verifies)
	}
}

func TestRevocationStopsWriterKeepsReader(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		az := r.AuthzClient(2)
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload([]byte("v1"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Warm the read cap cache too.
		if _, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 2); err != nil {
			t.Fatalf("read: %v", err)
		}
		// chmod -w: revoke write capability only.
		if err := az.Revoke(p, s.cred, s.cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke: %v", err)
		}
		// The cached write cap was invalidated via the back pointer, and
		// re-verification fails: writes stop immediately.
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload([]byte("v2"))); !errors.Is(err, storage.ErrCapRejected) {
			t.Errorf("write after revoke: %v", err)
		}
		// Reads keep working (partial revocation).
		got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 2)
		if err != nil || string(got.Data) != "v1" {
			t.Errorf("read after partial revoke: %q %v", got.Data, err)
		}
	})
	r.Run(t)
	invalidated := r.Net.Metrics().Snapshot().Sum("storage.*.cap_cache.invalidated")
	if invalidated != 1 {
		t.Fatalf("invalidated = %v, want 1", invalidated)
	}
}

func TestStatListRemove(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead, authz.OpRemove, authz.OpList)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref1, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		ref2, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if _, err := sc.Write(p, ref1, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(12345)); err != nil {
			t.Fatalf("write: %v", err)
		}
		st, err := sc.Stat(p, ref1, s.caps[authz.OpRead])
		if err != nil || st.Size != 12345 {
			t.Fatalf("stat: %+v %v", st, err)
		}
		ids, err := sc.List(p, tgt, s.caps[authz.OpList], s.cid)
		if err != nil || len(ids) != 2 {
			t.Fatalf("list: %v %v", ids, err)
		}
		if err := sc.Remove(p, ref2, s.caps[authz.OpRemove]); err != nil {
			t.Fatalf("remove: %v", err)
		}
		ids, _ = sc.List(p, tgt, s.caps[authz.OpList], s.cid)
		if len(ids) != 1 || ids[0] != ref1.ID {
			t.Fatalf("list after remove: %v", ids)
		}
	})
	r.Run(t)
}

func TestAttrsRoundTrip(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err := sc.SetAttr(p, ref, s.caps[authz.OpWrite], "role", "ckpt-metadata"); err != nil {
			t.Fatalf("setattr: %v", err)
		}
		v, err := sc.GetAttr(p, ref, s.caps[authz.OpRead], "role")
		if err != nil || v != "ckpt-metadata" {
			t.Fatalf("getattr: %q %v", v, err)
		}
	})
	r.Run(t)
}

func TestSyncDurability(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	var syncAt, writeIssued sim.Time
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		writeIssued = p.Now()
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(64*mb)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := sc.Sync(p, tgt, s.caps[authz.OpWrite]); err != nil {
			t.Fatalf("sync: %v", err)
		}
		syncAt = p.Now()
	})
	r.Run(t)
	// 64MB at ~95MB/s disk is ~0.67s; sync must not return before that.
	if syncAt.Sub(writeIssued) < 600*time.Millisecond {
		t.Fatalf("sync returned too early: %v", syncAt.Sub(writeIssued))
	}
}

func TestLargeSyntheticWriteThroughput(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	var elapsed time.Duration
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		start := p.Now()
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(512*mb)); err != nil {
			t.Fatalf("write: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	r.Run(t)
	tput := 512.0 / elapsed.Seconds() // MB/s
	// Disk limit is ~95MB/s; pipelined pull should land within 15% of it.
	if tput < 75 || tput > 96 {
		t.Fatalf("single-writer throughput = %.1f MB/s", tput)
	}
}

func TestManyClientsShareServerFairly(t *testing.T) {
	r := testrig.New(6) // admin + server + 4 clients
	srv := boot(r, 1)
	tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
	var finishes []sim.Time
	capCh := sim.NewMailbox(r.K, "caps")
	r.Go("owner", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		for i := 0; i < 4; i++ {
			capCh.Send(s) // scatter caps to the other processes
		}
	})
	for i := 0; i < 4; i++ {
		node := 2 + i
		sc := storage.NewClient(r.Caller(node))
		r.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			s := capCh.Recv(p).(*session)
			ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(64*mb)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			finishes = append(finishes, p.Now())
		})
	}
	r.Run(t)
	if len(finishes) != 4 {
		t.Fatalf("finished %d/4", len(finishes))
	}
	// Aggregate: 256MB through one ~95MB/s disk ≈ 2.7s minimum.
	var last sim.Time
	for _, f := range finishes {
		if f > last {
			last = f
		}
	}
	if last.Seconds() < 2.6 {
		t.Fatalf("4x64MB finished impossibly fast: %v", last)
	}
	if last.Seconds() > 4.0 {
		t.Fatalf("server-directed overlap missing: %v", last)
	}
}

func TestWriteToRemovedObjectFails(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRemove)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err := sc.Remove(p, ref, s.caps[authz.OpRemove]); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(10)); !errors.Is(err, osd.ErrNoObject) {
			t.Errorf("write to removed object: %v", err)
		}
	})
	r.Run(t)
}

func TestDisabledCapCacheVerifiesEveryRequest(t *testing.T) {
	r := testrig.New(3)
	dev := osd.NewDevice(r.K, "osd1", osd.DefaultDiskParams())
	cfg := storage.DefaultConfig()
	cfg.DisableCapCache = true
	srv := storage.Start(r.Eps[1], dev, r.AuthzClient(1), storage.DefaultRPCPort, cfg)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		for i := 0; i < 5; i++ {
			if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(10)); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	})
	r.Run(t)
	snap := r.Net.Metrics().Snapshot()
	hits, misses := snap.Sum("storage.*.cap_cache.hits"), snap.Sum("storage.*.cap_cache.misses")
	if hits != 0 || misses != 6 { // 1 create + 5 writes
		t.Fatalf("hits=%v misses=%v", hits, misses)
	}
}

// Ensure a Target built from an ObjRef points back at the same server.
func TestTargetOf(t *testing.T) {
	ref := storage.ObjRef{Node: 3, Port: 22, ID: 9}
	tgt := storage.TargetOf(ref)
	if tgt.Node != 3 || tgt.Port != 22 {
		t.Fatalf("TargetOf = %+v", tgt)
	}
}
