// Package authn implements the LWFS authentication service (paper §3.1.2,
// Figure 3): the component that interfaces with an external authentication
// mechanism (Kerberos in the paper; an in-simulation Realm here) and issues
// credentials — opaque, fully transferable proofs of user identity with a
// bounded lifetime.
//
// A credential's contents are opaque to its holder: the token is an HMAC
// that only the issuing authentication service can verify, so holding (or
// copying) a credential conveys exactly the right to act as the
// authenticated principal, and forging one requires guessing the HMAC.
// Credentials may be revoked at any time (application exit, compromise),
// which invalidates every verification thereafter.
package authn

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Portal is the well-known portal index of the authentication service.
const Portal portals.Index = 10

// Wire sizes (bytes) for the authentication protocol.
const (
	credWireSize = 96
	reqWireSize  = 128
)

// Principal is a user identity known to the external mechanism.
type Principal string

// Credential is proof of authentication. It is a value type and fully
// transferable: an application may hand it to every process acting on the
// principal's behalf (paper: a distributed application sharing a single
// identity). Token is opaque; only the issuing service can verify it.
type Credential struct {
	Token   [32]byte
	Expires sim.Time
}

// Zero reports whether the credential is the zero value.
func (c Credential) Zero() bool { return c.Token == [32]byte{} }

// Realm is the external authentication mechanism (the Kerberos stand-in):
// a registry of principals and their secrets.
type Realm struct {
	secrets map[Principal]string
}

// NewRealm creates an empty realm.
func NewRealm() *Realm { return &Realm{secrets: make(map[Principal]string)} }

// Register adds a principal with its secret.
func (r *Realm) Register(user Principal, secret string) { r.secrets[user] = secret }

// check validates a login attempt.
func (r *Realm) check(user Principal, secret string) bool {
	want, ok := r.secrets[user]
	return ok && want == secret
}

// Errors reported by the service.
var (
	ErrBadLogin    = errors.New("authn: unknown principal or bad secret")
	ErrInvalidCred = errors.New("authn: invalid credential")
	ErrExpiredCred = errors.New("authn: credential expired")
	ErrRevokedCred = errors.New("authn: credential revoked")
)

// Config tunes the service.
type Config struct {
	OpCost   time.Duration // CPU time per request (HMAC + table lookup)
	Lifetime time.Duration // credential lifetime
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{OpCost: 30 * time.Microsecond, Lifetime: 8 * time.Hour}
}

type credRecord struct {
	user    Principal
	expires sim.Time
	revoked bool
}

// Service is the authentication server process.
type Service struct {
	k     *sim.Kernel
	cfg   Config
	realm *Realm
	node  netsim.NodeID
	key   []byte
	creds map[[32]byte]*credRecord
	nonce uint64

	logins, verifies, revokes *metrics.Counter
}

// request bodies

type loginReq struct {
	User   Principal
	Secret string
}

type verifyReq struct{ Cred Credential }

type revokeReq struct{ Cred Credential }

// Start binds the authentication service to ep's node at the well-known
// portal and returns it.
func Start(ep *portals.Endpoint, realm *Realm, cfg Config) *Service {
	s := &Service{
		k:     ep.Kernel(),
		cfg:   cfg,
		realm: realm,
		node:  ep.Node(),
		key:   []byte("authn-service-instance-key"),
		creds: make(map[[32]byte]*credRecord),
	}
	an := ep.Metrics().Scope("authn")
	s.logins = an.Counter("logins")
	s.verifies = an.Counter("verifies")
	s.revokes = an.Counter("revokes")
	portals.Serve(ep, Portal, "authn", 2, s.handle)
	return s
}

// Node returns the node the service runs on.
func (s *Service) Node() netsim.NodeID { return s.node }

func (s *Service) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	p.Sleep(s.cfg.OpCost)
	switch r := req.(type) {
	case loginReq:
		return s.login(p, r)
	case verifyReq:
		s.verifies.Inc()
		return nil, s.check(r.Cred)
	case identityReq:
		s.verifies.Inc()
		user, err := s.identity(r.Cred)
		if err != nil {
			return nil, err
		}
		return VerifyResult{User: user}, nil
	case revokeReq:
		s.revokes.Inc()
		rec, ok := s.creds[r.Cred.Token]
		if !ok {
			return nil, ErrInvalidCred
		}
		rec.revoked = true
		return nil, nil
	default:
		return nil, fmt.Errorf("authn: unknown request %T", req)
	}
}

func (s *Service) login(p *sim.Proc, r loginReq) (interface{}, error) {
	if !s.realm.check(r.User, r.Secret) {
		return nil, ErrBadLogin
	}
	s.logins.Inc()
	s.nonce++
	mac := hmac.New(sha256.New, s.key)
	mac.Write([]byte(r.User))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], s.nonce)
	mac.Write(buf[:])
	var tok [32]byte
	copy(tok[:], mac.Sum(nil))
	cred := Credential{Token: tok, Expires: p.Now().Add(s.cfg.Lifetime)}
	s.creds[tok] = &credRecord{user: r.User, expires: cred.Expires}
	return cred, nil
}

// check validates a credential against the service's records. Only the
// issuing service can do this — the token is meaningless elsewhere.
func (s *Service) check(c Credential) error {
	rec, ok := s.creds[c.Token]
	if !ok {
		return ErrInvalidCred
	}
	if rec.revoked {
		return ErrRevokedCred
	}
	if s.k.Now() > rec.expires {
		return ErrExpiredCred
	}
	return nil
}

// Identity resolves a credential to its principal (service-side helper used
// by the authorization service after verification).
func (s *Service) identity(c Credential) (Principal, error) {
	if err := s.check(c); err != nil {
		return "", err
	}
	return s.creds[c.Token].user, nil
}

// VerifyResult carries the principal back to a verifying service.
type VerifyResult struct{ User Principal }

// identityReq asks for verification plus the principal (used by authz).
type identityReq struct{ Cred Credential }

// Client issues authentication RPCs from a node.
type Client struct {
	caller *portals.Caller
	server netsim.NodeID
}

// NewClient creates a client of the service at server, sending from caller.
func NewClient(caller *portals.Caller, server netsim.NodeID) *Client {
	return &Client{caller: caller, server: server}
}

// Login authenticates against the realm and returns a credential.
// This is the paper's GETCREDS().
func (c *Client) Login(p *sim.Proc, user Principal, secret string) (Credential, error) {
	v, err := c.caller.Call(p, c.server, Portal, loginReq{User: user, Secret: secret}, reqWireSize, credWireSize)
	if err != nil {
		return Credential{}, err
	}
	return v.(Credential), nil
}

// Verify checks a credential with the issuing service.
func (c *Client) Verify(p *sim.Proc, cred Credential) error {
	_, err := c.caller.Call(p, c.server, Portal, verifyReq{Cred: cred}, credWireSize, 16)
	return err
}

// Identity verifies a credential and returns its principal. Used by the
// authorization service (which trusts authn — Figure 5).
func (c *Client) Identity(p *sim.Proc, cred Credential) (Principal, error) {
	v, err := c.caller.Call(p, c.server, Portal, identityReq{Cred: cred}, credWireSize, 64)
	if err != nil {
		return "", err
	}
	return v.(VerifyResult).User, nil
}

// Revoke invalidates a credential immediately (application exit or
// compromise, paper §3.1.4).
func (c *Client) Revoke(p *sim.Proc, cred Credential) error {
	_, err := c.caller.Call(p, c.server, Portal, revokeReq{Cred: cred}, credWireSize, 16)
	return err
}
