package pfs

import (
	"fmt"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// MDS is the centralized metadata server: it owns the namespace and file
// layouts. Every create/open/stat/unlink passes through it, and namespace
// mutations serialize on an internal lock — faithful to the architecture
// the paper identifies as "inherently unscalable" (§4): adding OSTs does
// not add metadata throughput.
type MDS struct {
	cfg     Config
	node    netsim.NodeID
	osts    []OSTTarget
	files   map[string]*Layout
	nextIno uint64
	nsLock  *sim.Resource

	creates, opens, unlinks, stats *metrics.Counter
}

// request bodies

type mdsCreateReq struct {
	Path    string
	Stripes int // 0 = stripe over all OSTs
}

type mdsOpenReq struct{ Path string }

type mdsStatReq struct{ Path string }

type mdsUnlinkReq struct{ Path string }

type mdsSetSizeReq struct {
	Path string
	Size int64
}

// StartMDS binds the metadata server at (ep, MDSPortal) with the given OST
// roster.
func StartMDS(ep *portals.Endpoint, osts []OSTTarget, cfg Config) *MDS {
	m := &MDS{
		cfg:    cfg,
		node:   ep.Node(),
		osts:   osts,
		files:  make(map[string]*Layout),
		nsLock: sim.NewResource(ep.Kernel(), "mds/namespace", 1),
	}
	md := ep.Metrics().Scope("pfs").Scope("mds")
	m.creates = md.Counter("creates")
	m.opens = md.Counter("opens")
	m.unlinks = md.Counter("unlinks")
	m.stats = md.Counter("stats")
	portals.Serve(ep, MDSPortal, "mds", cfg.MDSThreads, m.handle)
	return m
}

// Node returns the MDS's node.
func (m *MDS) Node() netsim.NodeID { return m.node }

func (m *MDS) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	switch r := req.(type) {
	case mdsCreateReq:
		// Namespace mutation: exclusive, full service cost under the lock.
		m.nsLock.Acquire(p, 1)
		p.Sleep(m.cfg.MDSOpCost)
		defer m.nsLock.Release(1)
		if _, ok := m.files[r.Path]; ok {
			return nil, fmt.Errorf("%w: %s", ErrExists, r.Path)
		}
		stripes := r.Stripes
		if stripes <= 0 || stripes > len(m.osts) {
			stripes = len(m.osts)
		}
		m.nextIno++
		l := &Layout{
			Inode:      m.nextIno,
			StripeUnit: m.cfg.StripeUnit,
			OSTs:       append([]OSTTarget(nil), m.osts[:stripes]...),
		}
		m.files[r.Path] = l
		m.creates.Inc()
		return *l, nil

	case mdsOpenReq:
		p.Sleep(m.cfg.MDSOpCost)
		l, ok := m.files[r.Path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, r.Path)
		}
		m.opens.Inc()
		return *l, nil

	case mdsStatReq:
		p.Sleep(m.cfg.MDSOpCost / 2)
		l, ok := m.files[r.Path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, r.Path)
		}
		m.stats.Inc()
		return *l, nil

	case mdsSetSizeReq:
		p.Sleep(m.cfg.MDSOpCost / 2)
		l, ok := m.files[r.Path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, r.Path)
		}
		if r.Size > l.Size {
			l.Size = r.Size
		}
		return nil, nil

	case mdsUnlinkReq:
		m.nsLock.Acquire(p, 1)
		p.Sleep(m.cfg.MDSOpCost)
		defer m.nsLock.Release(1)
		if _, ok := m.files[r.Path]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, r.Path)
		}
		delete(m.files, r.Path)
		m.unlinks.Inc()
		return nil, nil

	default:
		return nil, fmt.Errorf("pfs: unknown MDS request %T", req)
	}
}
