// Package naming implements a namespace service for LWFS. In the paper's
// architecture (Figure 3) naming is *not* part of the LWFS-core: it is one
// of the client-side services layered above it, which is exactly why a
// checkpoint pays for it once per dataset instead of once per file create
// (§4). The service maps hierarchical paths to object references
// (storage-server + object-ID pairs) and participates in distributed
// transactions so that a name and the objects it describes appear
// atomically (Figure 8: CREATENAME runs inside the checkpoint transaction).
package naming

import (
	"errors"
	"fmt"
	gopath "path"
	"sort"
	"strings"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// Portal is the well-known portal index of the naming service.
const Portal portals.Index = 12

// TxnPortal is where the naming service's transaction participant listens.
const TxnPortal portals.Index = 13

// Entry is one namespace entry. A file entry normally points at a single
// metadata object (Ref); entries created through CreateRefs carry the full
// mirror set in Refs, with Ref doubling as the primary (Refs[0]) so that
// single-ref consumers decode multi-ref entries unchanged.
type Entry struct {
	Path  string
	IsDir bool
	Ref   storage.ObjRef   // zero for directories; primary mirror otherwise
	Refs  []storage.ObjRef // all mirrors; nil for single-ref entries
	Owner authn.Principal
}

// AllRefs returns every object reference the entry points at: Refs when the
// entry carries mirrors, else the single Ref (or nothing for directories).
func (e Entry) AllRefs() []storage.ObjRef {
	if len(e.Refs) > 0 {
		return e.Refs
	}
	if e.Ref == (storage.ObjRef{}) {
		return nil
	}
	return []storage.ObjRef{e.Ref}
}

// Errors reported by the service.
var (
	ErrExists   = errors.New("naming: entry already exists")
	ErrNotFound = errors.New("naming: no such entry")
	ErrNotDir   = errors.New("naming: parent is not a directory")
	ErrIsDir    = errors.New("naming: entry is a directory")
	ErrNotEmpty = errors.New("naming: directory not empty")
	ErrNotOwner = errors.New("naming: not the entry owner")
	ErrBadPath  = errors.New("naming: bad path")
	ErrBadCred  = errors.New("naming: credential rejected")
)

// Config tunes the service.
type Config struct {
	OpCost       time.Duration // CPU per namespace operation
	CredCacheTTL time.Duration
}

// DefaultConfig returns calibrated defaults.
func DefaultConfig() Config {
	return Config{OpCost: 80 * time.Microsecond, CredCacheTTL: 5 * time.Minute}
}

type node struct {
	entry    Entry
	children map[string]*node
	pending  bool // created under an uncommitted transaction
}

// Service is the naming server.
type Service struct {
	k     *sim.Kernel
	cfg   Config
	node  netsim.NodeID
	authn *authn.Client
	root  *node
	part  *txn.Participant

	credCache map[[32]byte]credEntry

	lookups, creates, removes, setrefs *metrics.Counter
}

type credEntry struct {
	user authn.Principal
	at   sim.Time
}

// request bodies

type mkdirReq struct {
	Cred authn.Credential
	Path string
}

type createReq struct {
	Cred authn.Credential
	Path string
	Ref  storage.ObjRef
	Refs []storage.ObjRef // optional mirror set; Ref must equal Refs[0]
	Txn  txn.ID
}

type setRefsReq struct {
	Cred authn.Credential
	Path string
	Refs []storage.ObjRef
	Txn  txn.ID
}

type lookupReq struct {
	Cred authn.Credential
	Path string
}

type removeReq struct {
	Cred authn.Credential
	Path string
}

type listReq struct {
	Cred authn.Credential
	Path string
}

type renameReq struct {
	Cred     authn.Credential
	Old, New string
}

// Start binds the naming service to ep's node. part is the service's
// transaction participant (created by the caller so the journal device is
// explicit); it may be nil if transactional naming is not needed.
func Start(ep *portals.Endpoint, ac *authn.Client, part *txn.Participant, cfg Config) *Service {
	s := &Service{
		k:         ep.Kernel(),
		cfg:       cfg,
		node:      ep.Node(),
		authn:     ac,
		root:      &node{entry: Entry{Path: "/", IsDir: true}, children: make(map[string]*node)},
		part:      part,
		credCache: make(map[[32]byte]credEntry),
	}
	nm := ep.Metrics().Scope("naming")
	s.lookups = nm.Counter("lookups")
	s.creates = nm.Counter("creates")
	s.removes = nm.Counter("removes")
	s.setrefs = nm.Counter("setrefs")
	portals.Serve(ep, Portal, "naming", 2, s.handle)
	return s
}

// Node returns the node the service runs on.
func (s *Service) Node() netsim.NodeID { return s.node }

func (s *Service) principal(p *sim.Proc, cred authn.Credential) (authn.Principal, error) {
	if e, ok := s.credCache[cred.Token]; ok && p.Now().Sub(e.at) < s.cfg.CredCacheTTL {
		return e.user, nil
	}
	user, err := s.authn.Identity(p, cred)
	if err != nil {
		delete(s.credCache, cred.Token)
		return "", fmt.Errorf("%w: %v", ErrBadCred, err)
	}
	s.credCache[cred.Token] = credEntry{user: user, at: p.Now()}
	return user, nil
}

// walk resolves a clean path to its node. Pending nodes are invisible.
func (s *Service) walk(path string) (*node, error) {
	if path == "/" {
		return s.root, nil
	}
	cur := s.root
	for _, part := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		next, ok := cur.children[part]
		if !ok || next.pending {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		cur = next
	}
	return cur, nil
}

// splitClean validates and splits a path into (parent, base).
func splitClean(path string) (string, string, error) {
	if path == "" || path[0] != '/' {
		return "", "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	clean := gopath.Clean(path)
	if clean == "/" {
		return "", "", fmt.Errorf("%w: %q is the root", ErrBadPath, path)
	}
	dir, base := gopath.Split(clean)
	return gopath.Clean(dir), base, nil
}

func (s *Service) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	p.Sleep(s.cfg.OpCost)
	switch r := req.(type) {
	case mkdirReq:
		user, err := s.principal(p, r.Cred)
		if err != nil {
			return nil, err
		}
		_, err = s.insert(r.Path, Entry{IsDir: true, Owner: user}, 0)
		return nil, err

	case createReq:
		user, err := s.principal(p, r.Cred)
		if err != nil {
			return nil, err
		}
		s.creates.Inc()
		nd, err := s.insert(r.Path, Entry{Ref: r.Ref, Refs: r.Refs, Owner: user}, r.Txn)
		if err != nil {
			return nil, err
		}
		if r.Txn != 0 && s.part != nil {
			if err := s.part.Log(p, txn.JournalRecord{Txn: r.Txn, Kind: "name", Detail: nd.entry.Path}); err != nil {
				return nil, err
			}
			s.part.OnCommit(r.Txn, func(q *sim.Proc) { nd.pending = false })
			s.part.OnAbort(r.Txn, func(q *sim.Proc) { s.unlink(nd.entry.Path) })
		}
		return nil, nil

	case setRefsReq:
		user, err := s.principal(p, r.Cred)
		if err != nil {
			return nil, err
		}
		s.setrefs.Inc()
		nd, err := s.walk(gopath.Clean(r.Path))
		if err != nil {
			return nil, err
		}
		if nd.entry.IsDir {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, r.Path)
		}
		if nd.entry.Owner != user {
			return nil, ErrNotOwner
		}
		if len(r.Refs) == 0 {
			return nil, fmt.Errorf("%w: empty ref set for %s", ErrBadPath, r.Path)
		}
		refs := append([]storage.ObjRef(nil), r.Refs...)
		if r.Txn != 0 && s.part != nil {
			// The old refs stay visible until the transaction commits, so
			// an aborted re-home never dangles the entry at objects the
			// abort is about to delete.
			if err := s.part.Log(p, txn.JournalRecord{Txn: r.Txn, Kind: "setrefs", Detail: nd.entry.Path}); err != nil {
				return nil, err
			}
			s.part.OnCommit(r.Txn, func(q *sim.Proc) {
				nd.entry.Ref = refs[0]
				nd.entry.Refs = refs
			})
			return nil, nil
		}
		nd.entry.Ref = refs[0]
		nd.entry.Refs = refs
		return nil, nil

	case lookupReq:
		if _, err := s.principal(p, r.Cred); err != nil {
			return nil, err
		}
		s.lookups.Inc()
		nd, err := s.walk(gopath.Clean(r.Path))
		if err != nil {
			return nil, err
		}
		return nd.entry, nil

	case removeReq:
		user, err := s.principal(p, r.Cred)
		if err != nil {
			return nil, err
		}
		s.removes.Inc()
		nd, err := s.walk(gopath.Clean(r.Path))
		if err != nil {
			return nil, err
		}
		if nd.entry.Owner != user {
			return nil, ErrNotOwner
		}
		if nd.entry.IsDir && len(nd.children) > 0 {
			return nil, ErrNotEmpty
		}
		return nd.entry, s.unlink(nd.entry.Path)

	case listReq:
		if _, err := s.principal(p, r.Cred); err != nil {
			return nil, err
		}
		nd, err := s.walk(gopath.Clean(r.Path))
		if err != nil {
			return nil, err
		}
		if !nd.entry.IsDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, r.Path)
		}
		var names []string
		for name, child := range nd.children {
			if !child.pending {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names, nil

	case renameReq:
		user, err := s.principal(p, r.Cred)
		if err != nil {
			return nil, err
		}
		return nil, s.rename(r.Old, r.New, user)

	default:
		return nil, fmt.Errorf("naming: unknown request %T", req)
	}
}

// insert adds an entry (pending when txnID != 0).
func (s *Service) insert(path string, e Entry, txnID txn.ID) (*node, error) {
	parent, base, err := splitClean(path)
	if err != nil {
		return nil, err
	}
	pn, err := s.walk(parent)
	if err != nil {
		return nil, err
	}
	if !pn.entry.IsDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	if _, ok := pn.children[base]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	e.Path = gopath.Join(parent, base)
	nd := &node{entry: e, pending: txnID != 0}
	if e.IsDir {
		nd.children = make(map[string]*node)
	}
	pn.children[base] = nd
	return nd, nil
}

// unlink removes the entry at path (pending or not).
func (s *Service) unlink(path string) error {
	parent, base, err := splitClean(path)
	if err != nil {
		return err
	}
	pn, err := s.walk(parent)
	if err != nil {
		return err
	}
	if _, ok := pn.children[base]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(pn.children, base)
	return nil
}

func (s *Service) rename(oldPath, newPath string, user authn.Principal) error {
	oldClean := gopath.Clean(oldPath)
	newClean := gopath.Clean(newPath)
	// Moving a directory into its own subtree would detach it into a
	// self-referential orphan.
	if newClean == oldClean || strings.HasPrefix(newClean, oldClean+"/") {
		return fmt.Errorf("%w: cannot move %s under itself", ErrBadPath, oldClean)
	}
	nd, err := s.walk(oldClean)
	if err != nil {
		return err
	}
	if nd.entry.Owner != user {
		return ErrNotOwner
	}
	parent, base, err := splitClean(newPath)
	if err != nil {
		return err
	}
	pn, err := s.walk(parent)
	if err != nil {
		return err
	}
	if !pn.entry.IsDir {
		return fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	if _, ok := pn.children[base]; ok {
		return fmt.Errorf("%w: %s", ErrExists, newPath)
	}
	if err := s.unlink(nd.entry.Path); err != nil {
		return err
	}
	nd.entry.Path = gopath.Join(parent, base)
	pn.children[base] = nd
	s.repath(nd)
	return nil
}

// repath fixes descendant paths after a rename.
func (s *Service) repath(nd *node) {
	for name, child := range nd.children {
		child.entry.Path = gopath.Join(nd.entry.Path, name)
		s.repath(child)
	}
}

// Client issues naming RPCs from a node.
type Client struct {
	caller *portals.Caller
	server netsim.NodeID
}

// NewClient creates a client of the naming service at server.
func NewClient(caller *portals.Caller, server netsim.NodeID) *Client {
	return &Client{caller: caller, server: server}
}

// Server returns the naming service's node.
func (c *Client) Server() netsim.NodeID { return c.server }

// TxnEndpoint returns the participant endpoint for enlisting the naming
// service in a transaction.
func (c *Client) TxnEndpoint() txn.Endpoint {
	return txn.Endpoint{Node: c.server, Port: TxnPortal}
}

func pathSize(path string) int64 { return 128 + int64(len(path)) }

// Mkdir creates a directory.
func (c *Client) Mkdir(p *sim.Proc, cred authn.Credential, path string) error {
	_, err := c.caller.Call(p, c.server, Portal, mkdirReq{Cred: cred, Path: path}, pathSize(path), 16)
	return err
}

// Create binds path to ref. With id != 0 the entry is provisional until the
// transaction commits (the paper's CREATENAME(txnid, path, mdobj)).
func (c *Client) Create(p *sim.Proc, cred authn.Credential, path string, ref storage.ObjRef, id txn.ID) error {
	_, err := c.caller.Call(p, c.server, Portal,
		createReq{Cred: cred, Path: path, Ref: ref, Txn: id}, pathSize(path)+64, 16)
	return err
}

// CreateRefs binds path to a set of mirrored object references. The first
// ref becomes the entry's primary; Lookup returns all of them via
// Entry.AllRefs. Semantics otherwise match Create.
func (c *Client) CreateRefs(p *sim.Proc, cred authn.Credential, path string, refs []storage.ObjRef, id txn.ID) error {
	if len(refs) == 0 {
		return fmt.Errorf("%w: empty ref set for %s", ErrBadPath, path)
	}
	_, err := c.caller.Call(p, c.server, Portal,
		createReq{Cred: cred, Path: path, Ref: refs[0], Refs: refs, Txn: id},
		pathSize(path)+64*int64(len(refs)), 16)
	return err
}

// SetRefs replaces the mirror set of an existing file entry. With id != 0
// the swap is deferred to transaction commit — the old refs stay visible
// until then — which is how Rebuild re-homes a metadata mirror atomically
// with writing its replacement. Only the entry owner may change refs.
func (c *Client) SetRefs(p *sim.Proc, cred authn.Credential, path string, refs []storage.ObjRef, id txn.ID) error {
	_, err := c.caller.Call(p, c.server, Portal,
		setRefsReq{Cred: cred, Path: path, Refs: refs, Txn: id},
		pathSize(path)+64*int64(len(refs)), 16)
	return err
}

// Lookup resolves path to its entry.
func (c *Client) Lookup(p *sim.Proc, cred authn.Credential, path string) (Entry, error) {
	v, err := c.caller.Call(p, c.server, Portal, lookupReq{Cred: cred, Path: path}, pathSize(path), 160)
	if err != nil {
		return Entry{}, err
	}
	return v.(Entry), nil
}

// Remove unlinks path (files, or empty directories) and returns the removed
// entry so callers can release the underlying objects.
func (c *Client) Remove(p *sim.Proc, cred authn.Credential, path string) (Entry, error) {
	v, err := c.caller.Call(p, c.server, Portal, removeReq{Cred: cred, Path: path}, pathSize(path), 160)
	if err != nil {
		return Entry{}, err
	}
	return v.(Entry), nil
}

// List returns the names in a directory, sorted.
func (c *Client) List(p *sim.Proc, cred authn.Credential, path string) ([]string, error) {
	v, err := c.caller.Call(p, c.server, Portal, listReq{Cred: cred, Path: path}, pathSize(path), 1024)
	if err != nil {
		return nil, err
	}
	return v.([]string), nil
}

// Rename moves an entry.
func (c *Client) Rename(p *sim.Proc, cred authn.Credential, oldPath, newPath string) error {
	_, err := c.caller.Call(p, c.server, Portal,
		renameReq{Cred: cred, Old: oldPath, New: newPath}, pathSize(oldPath+newPath), 16)
	return err
}
