package authz_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
)

// TestCredCacheTTLRechecksAuthn: after the credential-cache TTL passes, the
// authorization service consults the authentication service again — which
// is how a *credential* revocation eventually reaches authorization
// decisions even though verified credentials are cached.
func TestCredCacheTTLRechecksAuthn(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	ac := r.AuthnClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, err := az.CreateContainer(p, cred)
		if err != nil {
			t.Fatalf("container: %v", err)
		}
		if _, err := az.GetCaps(p, cred, cid, authz.OpRead); err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		// Revoke the credential at the authentication service. Within the
		// TTL the authorization cache still honors it...
		if err := ac.Revoke(p, cred); err != nil {
			t.Fatalf("revoke cred: %v", err)
		}
		if _, err := az.GetCaps(p, cred, cid, authz.OpRead); err != nil {
			t.Fatalf("getcaps within TTL: %v", err)
		}
		// ...but after the TTL (5 min default) the recheck rejects it.
		p.Sleep(6 * time.Minute)
		if _, err := az.GetCaps(p, cred, cid, authz.OpRead); err == nil {
			t.Fatal("revoked credential accepted after cache TTL")
		}
	})
	r.Run(t)
	verifies := r.Net.Metrics().Snapshot().Value("authn.verifies")
	if verifies < 2 {
		t.Fatalf("authn verifies = %v; TTL recheck missing", verifies)
	}
}

// TestRevokeUnknownContainer exercises the error path.
func TestRevokeUnknownContainer(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		if err := az.Revoke(p, cred, 4242, authz.OpWrite); !errors.Is(err, authz.ErrNoContainer) {
			t.Errorf("revoke unknown container: %v", err)
		}
	})
	r.Run(t)
}

// TestRevokeIsIdempotent: revoking twice neither errors nor re-fans-out.
func TestRevokeIsIdempotent(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		if _, err := az.GetCaps(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke 1: %v", err)
		}
		if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke 2: %v", err)
		}
	})
	r.Run(t)
	revocations := r.Net.Metrics().Snapshot().Value("authz.revocations")
	if revocations != 1 {
		t.Fatalf("revocations = %v, want 1 (second call found nothing)", revocations)
	}
}
