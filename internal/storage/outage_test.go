package storage_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// outageRetry keeps the fail-closed path fast in virtual time: the storage
// server's verify RPC gives up after ~3 short attempts instead of hanging.
var outageRetry = portals.RetryPolicy{
	MaxAttempts: 3,
	Timeout:     2 * time.Millisecond,
	Backoff:     200 * time.Microsecond,
	Jitter:      50 * time.Microsecond,
}

// TestCapCacheSurvivesAuthzOutage demonstrates a resilience property that
// falls straight out of the §3.1.2 verify-and-cache design: once a storage
// server has verified a capability, it can keep honoring it while the
// authorization service is unreachable. Only *new* capabilities (and
// revocations) need the service — the data path has no hard runtime
// dependency on the control plane.
//
// The flip side is that the design fails CLOSED: a capability the server
// has never verified cannot be honored during the outage. With the server's
// authorization caller armed with a retry policy, the verify call times out
// instead of hanging and the request is rejected — and once the partition
// heals, the same capability verifies and works.
func TestCapCacheSurvivesAuthzOutage(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	// Bound the server's authz verification so a cold-cache check during
	// the outage fails closed instead of wedging a service thread forever.
	srv.AuthzClient().Caller().SetRetry(outageRetry, sim.NewRand(7))
	sc := storage.NewClient(r.Caller(2))
	adminNode := r.Eps[0].Node()
	storageNode := r.Eps[1].Node()
	clientNode := r.Eps[2].Node()
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Warm the write cap's cache entry. The read cap stays cold.
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(100)); err != nil {
			t.Fatalf("warm write: %v", err)
		}

		// The admin node (authentication + authorization) drops off the
		// network.
		cut := r.Net.Partition([]netsim.NodeID{adminNode}, []netsim.NodeID{storageNode, clientNode})

		// Cached capability: writes keep flowing.
		for i := 1; i <= 5; i++ {
			if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], int64(i)*100, netsim.SyntheticPayload(100)); err != nil {
				t.Fatalf("write %d during outage: %v", i, err)
			}
		}
		// Cold capability: the server cannot verify it, so the request is
		// rejected — authorization fails closed, not open.
		if _, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 100); !errors.Is(err, storage.ErrCapRejected) {
			t.Fatalf("cold-cache read during outage: err = %v, want ErrCapRejected", err)
		}

		cut.Heal()
		// The same capability verifies normally once the service is back.
		if _, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 100); err != nil {
			t.Fatalf("read after heal: %v", err)
		}
	})
	r.Run(t)
	snap := r.Net.Metrics().Snapshot()
	hits, misses := snap.Sum("storage.*.cap_cache.hits"), snap.Sum("storage.*.cap_cache.misses")
	if hits < 5 {
		t.Fatalf("cache hits = %v; outage writes did not use the cache", hits)
	}
	// create, warm write, failed cold read, successful read — one
	// verification attempt each (the failed one does not populate the cache).
	if misses != 4 {
		t.Fatalf("misses = %v", misses)
	}
}

// TestRetriesRideOutTransientAuthzOutage is the happy-path companion: with
// retries on the server's authz caller AND a partition shorter than the
// retry budget, even a cold-cache request survives — the verify call's
// retransmission lands after the heal.
func TestRetriesRideOutTransientAuthzOutage(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	srv.AuthzClient().Caller().SetRetry(portals.RetryPolicy{
		MaxAttempts: 6,
		Timeout:     5 * time.Millisecond,
		Backoff:     time.Millisecond,
		Jitter:      100 * time.Microsecond,
	}, sim.NewRand(7))
	sc := storage.NewClient(r.Caller(2))
	adminNode := r.Eps[0].Node()
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Cut only the admin node, then heal while the server's verify is
		// still inside its retry budget.
		cut := r.Net.Partition([]netsim.NodeID{adminNode}, nil)
		r.K.After(8*time.Millisecond, cut.Heal)
		// Cold write cap: the first verify attempts are eaten by the
		// partition; a retransmission after the heal succeeds.
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(100)); err != nil {
			t.Fatalf("write across transient outage: %v", err)
		}
	})
	r.Run(t)
}
