package storage_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

var crashRetry = portals.RetryPolicy{
	MaxAttempts: 3,
	Timeout:     2 * time.Millisecond,
	Backoff:     200 * time.Microsecond,
	Jitter:      50 * time.Microsecond,
}

// TestCrashRestartReplaysJournal exercises the full fail-stop lifecycle: a
// provisional (transactional) create is journaled, the server crashes
// before the transaction resolves, requests during the crash fail closed at
// the client after its retry budget, and Restart replays the journal —
// resolving the in-doubt transaction by presumed abort and removing the
// orphaned object. Fresh work proceeds normally on the restarted server.
func TestCrashRestartReplaysJournal(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	caller := r.Caller(2)
	caller.SetRetry(crashRetry, sim.NewRand(3))
	sc := storage.NewClient(caller)
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		co := txn.NewCoordinator(r.Caller(2))
		tx := co.Begin()
		ref, err := sc.CreateTxn(p, tgt, s.caps[authz.OpCreate], s.cid, tx.ID)
		if err != nil {
			t.Fatalf("provisional create: %v", err)
		}

		srv.Crash()
		if !srv.Down() {
			t.Fatal("server not down after Crash")
		}
		// Requests during the crash exhaust the retry budget and fail.
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(100)); !errors.Is(err, portals.ErrRPCTimeout) {
			t.Fatalf("write to crashed server: err = %v, want ErrRPCTimeout", err)
		}

		removed, err := srv.Restart(p)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if removed != 1 {
			t.Fatalf("recovery removed %d objects, want 1 (the orphaned provisional create)", removed)
		}
		if _, err := srv.Device().Stat(ref.ID); err == nil {
			t.Fatal("orphaned object survived journal replay")
		}

		// The restarted server serves fresh work; its capability cache is
		// cold, so the create re-verifies with the authorization service.
		missesBefore := r.Net.Metrics().Snapshot().Sum("storage.*.cap_cache.misses")
		ref2, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create after restart: %v", err)
		}
		if _, err := sc.Write(p, ref2, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(100)); err != nil {
			t.Fatalf("write after restart: %v", err)
		}
		missesAfter := r.Net.Metrics().Snapshot().Sum("storage.*.cap_cache.misses")
		if missesAfter <= missesBefore {
			t.Fatal("capability cache survived the crash; it must restart cold")
		}
	})
	r.Run(t)
}

// TestCreateRetryIsExactlyOnce drops the create response on the wire: the
// client times out and retries, the server recognizes the duplicate request
// ID and answers from the original execution — exactly one object exists.
func TestCreateRetryIsExactlyOnce(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	caller := r.Caller(2)
	caller.SetRetry(crashRetry, sim.NewRand(3))
	sc := storage.NewClient(caller)
	storageNode := r.Eps[1].Node()
	clientNode := r.Eps[2].Node()
	var eaten int
	r.Net.SetFault(func(m netsim.Message) bool {
		// Eat the first storage->client message: the original create's
		// response, after the object exists server-side.
		if m.From == storageNode && m.To == clientNode && eaten == 0 {
			eaten++
			return true
		}
		return false
	})
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if objs := srv.Device().ListContainer(osd.ContainerID(s.cid)); len(objs) != 1 || objs[0] != ref.ID {
			t.Fatalf("container holds %v, want exactly [%d]", objs, ref.ID)
		}
	})
	r.Run(t)
	if eaten != 1 {
		t.Fatalf("fault injector ate %d messages", eaten)
	}
	if caller.LateReplies()+caller.Retries() == 0 {
		t.Fatal("expected a retry")
	}
}
