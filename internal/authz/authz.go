// Package authz implements the LWFS authorization service (paper §3.1):
// coarse-grained, capability-based access control over containers of
// objects, with storage-server-side capability caching and near-immediate
// revocation.
//
// Design points taken from the paper:
//
//   - Access control is per *container*, not per object or byte range
//     (§3.1.1). Every object belongs to exactly one container and all
//     objects in a container share one policy.
//   - A capability entitles its holder to one operation on one container
//     (§3.1.2). Capabilities are opaque, fully transferable, and carry an
//     HMAC that only the issuing authorization service can verify — unlike
//     NASD/T10, there is no shared secret with the storage servers, so the
//     authorization service never has to trust storage not to mint new
//     capabilities.
//   - Storage servers cache positive verification results. The
//     authorization service records *back pointers* (which server caches
//     which capability, §3.1.4) so revocation can invalidate exactly the
//     affected cache entries — including *partial* revocation (revoke the
//     write capability for a container while its read capability keeps
//     working).
package authz

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Portal is the well-known portal index of the authorization service.
const Portal portals.Index = 11

// ContainerID names a container: the unit of access control.
type ContainerID uint64

// Op is a container operation a capability can authorize.
type Op uint8

// The operations of the LWFS-core storage API.
const (
	OpCreate Op = iota + 1 // create objects in the container
	OpRead                 // read objects
	OpWrite                // write objects
	OpRemove               // remove objects
	OpList                 // enumerate objects
	opMax
)

// AllOps lists every operation, in declaration order.
var AllOps = []Op{OpCreate, OpRead, OpWrite, OpRemove, OpList}

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	case OpList:
		return "list"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Capability is proof of authorization for one operation on one container
// (paper §3.1.2). It is a transferable value; Sig can only be validated by
// the issuing service, so a capability a storage server has never seen must
// be verified with the authorization service before being honored.
type Capability struct {
	Container ContainerID
	Op        Op
	ID        uint64 // capability identity, used for revocation bookkeeping
	Expires   sim.Time
	Sig       [32]byte
}

// CapWireSize is the on-the-wire size of one capability, in bytes.
const CapWireSize = 96

// Errors reported by the service.
var (
	ErrDenied      = errors.New("authz: operation not permitted by container policy")
	ErrBadCap      = errors.New("authz: invalid capability signature")
	ErrRevokedCap  = errors.New("authz: capability revoked")
	ErrExpiredCap  = errors.New("authz: capability expired")
	ErrNoContainer = errors.New("authz: no such container")
	ErrNotOwner    = errors.New("authz: only the container owner may change policy")
)

// Config tunes the service.
type Config struct {
	OpCost       time.Duration // CPU per request
	CapLifetime  time.Duration // capability lifetime
	CredCacheTTL time.Duration // how long a verified credential is trusted
	// before re-consulting the authentication service
}

// DefaultConfig returns calibrated defaults.
func DefaultConfig() Config {
	return Config{
		OpCost:       40 * time.Microsecond,
		CapLifetime:  4 * time.Hour,
		CredCacheTTL: 5 * time.Minute,
	}
}

type containerPolicy struct {
	owner Principal
	acl   map[Op]map[Principal]bool
}

// Principal aliases the authentication principal type.
type Principal = authn.Principal

type capRecord struct {
	cap     Capability
	revoked bool
	// cachedAt: storage servers holding this capability in their verify
	// cache — the back pointers of §3.1.4.
	cachedAt map[netsim.NodeID]portals.Index
}

type credCacheEntry struct {
	user Principal
	at   sim.Time
}

// Service is the authorization server.
type Service struct {
	k      *sim.Kernel
	cfg    Config
	node   netsim.NodeID
	authn  *authn.Client
	caller *portals.Caller
	key    []byte

	containers map[ContainerID]*containerPolicy
	nextCID    ContainerID
	nextCapID  uint64
	issued     map[uint64]*capRecord
	credCache  map[[32]byte]credCacheEntry

	verifies, cacheRegistrations, revocations, invalidationsSent *metrics.Counter
}

// request bodies

type createContainerReq struct{ Cred authn.Credential }

type getCapsReq struct {
	Cred      authn.Credential
	Container ContainerID
	Ops       []Op
}

type verifyCapsReq struct {
	Caps      []Capability
	CachePort portals.Index // where invalidation callbacks should go
}

type revokeReq struct {
	Cred      authn.Credential
	Container ContainerID
	Ops       []Op
}

type setACLReq struct {
	Cred      authn.Credential
	Container ContainerID
	Op        Op
	User      Principal
	Allow     bool
}

// InvalidateCaps is the callback request the authorization service sends to
// storage servers caching revoked capabilities. Exported because the
// storage package serves it.
type InvalidateCaps struct{ CapIDs []uint64 }

// Start binds the authorization service to ep's node. It verifies unknown
// credentials with the authentication client ac (the trust arrow of
// Figure 5: authorization trusts authentication).
func Start(ep *portals.Endpoint, ac *authn.Client, cfg Config) *Service {
	s := &Service{
		k:          ep.Kernel(),
		cfg:        cfg,
		node:       ep.Node(),
		authn:      ac,
		caller:     portals.NewCaller(ep),
		key:        []byte("authz-service-instance-key"),
		containers: make(map[ContainerID]*containerPolicy),
		issued:     make(map[uint64]*capRecord),
		credCache:  make(map[[32]byte]credCacheEntry),
	}
	az := ep.Metrics().Scope("authz")
	s.verifies = az.Counter("verifies")
	s.cacheRegistrations = az.Counter("cache_regs")
	s.revocations = az.Counter("revocations")
	s.invalidationsSent = az.Counter("invalidations")
	portals.Serve(ep, Portal, "authz", 2, s.handle)
	return s
}

// Node returns the node the service runs on.
func (s *Service) Node() netsim.NodeID { return s.node }

func (s *Service) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	p.Sleep(s.cfg.OpCost)
	switch r := req.(type) {
	case createContainerReq:
		return s.createContainer(p, r)
	case getCapsReq:
		return s.getCaps(p, r)
	case verifyCapsReq:
		return nil, s.verifyCaps(from, r)
	case revokeReq:
		return nil, s.revoke(p, r)
	case setACLReq:
		return nil, s.setACL(p, r)
	default:
		return nil, fmt.Errorf("authz: unknown request %T", req)
	}
}

// principal resolves a credential, consulting the authentication service on
// a cache miss (paper Figure 4a step 2).
func (s *Service) principal(p *sim.Proc, cred authn.Credential) (Principal, error) {
	if e, ok := s.credCache[cred.Token]; ok && p.Now().Sub(e.at) < s.cfg.CredCacheTTL {
		return e.user, nil
	}
	user, err := s.authn.Identity(p, cred)
	if err != nil {
		delete(s.credCache, cred.Token)
		return "", err
	}
	s.credCache[cred.Token] = credCacheEntry{user: user, at: p.Now()}
	return user, nil
}

func (s *Service) createContainer(p *sim.Proc, r createContainerReq) (interface{}, error) {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return nil, err
	}
	s.nextCID++
	s.containers[s.nextCID] = &containerPolicy{
		owner: user,
		acl:   make(map[Op]map[Principal]bool),
	}
	return s.nextCID, nil
}

func (s *Service) allowed(pol *containerPolicy, user Principal, op Op) bool {
	if pol.owner == user {
		return true
	}
	return pol.acl[op][user]
}

func (s *Service) getCaps(p *sim.Proc, r getCapsReq) (interface{}, error) {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return nil, err
	}
	pol, ok := s.containers[r.Container]
	if !ok {
		return nil, ErrNoContainer
	}
	caps := make([]Capability, 0, len(r.Ops))
	var denied []string
	for _, op := range r.Ops {
		if op == 0 || op >= opMax {
			return nil, fmt.Errorf("authz: bad op %d", op)
		}
		if !s.allowed(pol, user, op) {
			denied = append(denied, op.String())
			continue
		}
		caps = append(caps, s.mint(r.Container, op))
	}
	if len(denied) > 0 {
		return nil, fmt.Errorf("%w: %s on container %d for %q",
			ErrDenied, strings.Join(denied, ","), r.Container, user)
	}
	return caps, nil
}

// mint issues and records a new capability.
func (s *Service) mint(cid ContainerID, op Op) Capability {
	s.nextCapID++
	cap := Capability{
		Container: cid,
		Op:        op,
		ID:        s.nextCapID,
		Expires:   s.k.Now().Add(s.cfg.CapLifetime),
	}
	cap.Sig = s.sign(cap)
	s.issued[cap.ID] = &capRecord{cap: cap, cachedAt: make(map[netsim.NodeID]portals.Index)}
	return cap
}

// sign computes the HMAC that makes a capability unforgeable. The key never
// leaves the authorization service.
func (s *Service) sign(c Capability) [32]byte {
	mac := hmac.New(sha256.New, s.key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(c.Container))
	mac.Write(buf[:])
	mac.Write([]byte{byte(c.Op)})
	binary.BigEndian.PutUint64(buf[:], c.ID)
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(c.Expires))
	mac.Write(buf[:])
	var sig [32]byte
	copy(sig[:], mac.Sum(nil))
	return sig
}

// checkCap validates one capability without side effects.
func (s *Service) checkCap(c Capability) error {
	if s.sign(c) != c.Sig {
		return ErrBadCap
	}
	rec, ok := s.issued[c.ID]
	if !ok || rec.cap != c {
		return ErrBadCap
	}
	if rec.revoked {
		return ErrRevokedCap
	}
	if s.k.Now() > c.Expires {
		return ErrExpiredCap
	}
	return nil
}

// verifyCaps validates capabilities on behalf of a storage server and
// records the back pointer so future revocation can invalidate the server's
// cache entry (Figure 4b step 2).
func (s *Service) verifyCaps(from netsim.NodeID, r verifyCapsReq) error {
	for _, c := range r.Caps {
		if err := s.checkCap(c); err != nil {
			return err
		}
	}
	for _, c := range r.Caps {
		s.issued[c.ID].cachedAt[from] = r.CachePort
		s.cacheRegistrations.Inc()
	}
	s.verifies.Inc()
	return nil
}

// revoke invalidates every issued capability for the given ops on the
// container, then synchronously invalidates storage-server caches through
// the recorded back pointers — the combination of secure keys and back
// pointers described in §3.1.4. Other ops' capabilities are untouched
// (partial revocation).
func (s *Service) revoke(p *sim.Proc, r revokeReq) error {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return err
	}
	pol, ok := s.containers[r.Container]
	if !ok {
		return ErrNoContainer
	}
	if pol.owner != user {
		return ErrNotOwner
	}
	opSet := make(map[Op]bool, len(r.Ops))
	for _, op := range r.Ops {
		opSet[op] = true
	}
	// Collect victims and the caches holding them.
	perServer := make(map[netsim.NodeID]map[portals.Index][]uint64)
	for id, rec := range s.issued {
		if rec.cap.Container != r.Container || rec.revoked || !opSet[rec.cap.Op] {
			continue
		}
		rec.revoked = true
		s.revocations.Inc()
		for node, port := range rec.cachedAt {
			if perServer[node] == nil {
				perServer[node] = make(map[portals.Index][]uint64)
			}
			perServer[node][port] = append(perServer[node][port], id)
		}
	}
	// Fan the invalidations out and wait for every acknowledgment, so that
	// when Revoke returns, no storage server will honor a revoked
	// capability ("immediate" revocation).
	for node, ports := range perServer {
		for port, ids := range ports {
			s.invalidationsSent.Inc()
			if _, err := s.caller.Call(p, node, port, InvalidateCaps{CapIDs: ids},
				64+int64(len(ids))*8, 16); err != nil {
				return fmt.Errorf("authz: invalidating cache on node %d: %w", node, err)
			}
		}
	}
	return nil
}

// setACL updates a container's policy. Removing access also revokes
// outstanding capabilities for that op (the "chmod" scenario of §3.1.4).
func (s *Service) setACL(p *sim.Proc, r setACLReq) error {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return err
	}
	pol, ok := s.containers[r.Container]
	if !ok {
		return ErrNoContainer
	}
	if pol.owner != user {
		return ErrNotOwner
	}
	if pol.acl[r.Op] == nil {
		pol.acl[r.Op] = make(map[Principal]bool)
	}
	pol.acl[r.Op][r.User] = r.Allow
	if !r.Allow {
		return s.revoke(p, revokeReq{Cred: r.Cred, Container: r.Container, Ops: []Op{r.Op}})
	}
	return nil
}

// Client issues authorization RPCs from a node.
type Client struct {
	caller *portals.Caller
	server netsim.NodeID
}

// NewClient creates a client of the authorization service at server.
func NewClient(caller *portals.Caller, server netsim.NodeID) *Client {
	return &Client{caller: caller, server: server}
}

// Server returns the authorization service's node.
func (c *Client) Server() netsim.NodeID { return c.server }

// Caller exposes the underlying RPC caller, so fault harnesses can arm
// authorization traffic with a retry policy.
func (c *Client) Caller() *portals.Caller { return c.caller }

// CreateContainer makes a new container owned by the credential's
// principal and returns its ID.
func (c *Client) CreateContainer(p *sim.Proc, cred authn.Credential) (ContainerID, error) {
	v, err := c.caller.Call(p, c.server, Portal, createContainerReq{Cred: cred}, 128, 16)
	if err != nil {
		return 0, err
	}
	return v.(ContainerID), nil
}

// GetCaps acquires capabilities for the given operations on a container
// (paper GETCAPS, Figure 4a).
func (c *Client) GetCaps(p *sim.Proc, cred authn.Credential, cid ContainerID, ops ...Op) ([]Capability, error) {
	v, err := c.caller.Call(p, c.server, Portal,
		getCapsReq{Cred: cred, Container: cid, Ops: ops},
		128+int64(len(ops)), int64(len(ops))*CapWireSize)
	if err != nil {
		return nil, err
	}
	return v.([]Capability), nil
}

// VerifyCaps validates capabilities with the authorization service on
// behalf of a storage server, registering cachePort for invalidation
// callbacks. Storage servers call this on a capability-cache miss.
func (c *Client) VerifyCaps(p *sim.Proc, caps []Capability, cachePort portals.Index) error {
	_, err := c.caller.Call(p, c.server, Portal,
		verifyCapsReq{Caps: caps, CachePort: cachePort},
		int64(len(caps))*CapWireSize, 16)
	return err
}

// Revoke invalidates every outstanding capability for the given ops on the
// container. When it returns, no storage server honors them.
func (c *Client) Revoke(p *sim.Proc, cred authn.Credential, cid ContainerID, ops ...Op) error {
	_, err := c.caller.Call(p, c.server, Portal,
		revokeReq{Cred: cred, Container: cid, Ops: ops}, 128+int64(len(ops)), 16)
	return err
}

// SetACL grants (allow=true) or removes (allow=false) a principal's right
// to perform op on the container. Removing access revokes outstanding
// capabilities for the op.
func (c *Client) SetACL(p *sim.Proc, cred authn.Credential, cid ContainerID, op Op, user Principal, allow bool) error {
	_, err := c.caller.Call(p, c.server, Portal,
		setACLReq{Cred: cred, Container: cid, Op: op, User: user, Allow: allow}, 160, 16)
	return err
}
