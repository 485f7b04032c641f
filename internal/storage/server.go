// Package storage implements the LWFS storage service (paper §3.2–3.3):
// object-based storage servers that enforce the authorization service's
// access-control policies and move bulk data under *server* control.
//
// Data movement follows Figure 6. A client never streams data at a server:
//
//   - For a write, the client exposes its buffer through a portals match
//     entry and sends a small request describing it. The server pulls the
//     data with one-sided Gets, chunk by chunk, at its own pace, bounded by
//     its pinned buffer pool — a burst of ten thousand requests costs the
//     server ten thousand queue entries, not ten thousand buffers.
//   - For a read, the server pushes data into the client's posted receive
//     buffer with one-sided Puts.
//
// Every request carries a capability. The server checks its capability
// cache; on a miss it verifies with the authorization service, which
// records the back pointer used for revocation callbacks (§3.1.2, Figure
// 4b). The server never learns the authorization service's signing key, so
// a compromised storage server can replay previously authorized
// capabilities at worst — it cannot mint new ones.
package storage

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/txn"
)

// Well-known portal indexes. A node hosting several storage servers (the
// paper's dev cluster ran two per storage node) spaces them with PortalStride.
const (
	// DefaultRPCPort receives storage requests.
	DefaultRPCPort portals.Index = 20
	// DefaultCachePort receives capability-cache invalidation callbacks.
	DefaultCachePort portals.Index = 21
	// DefaultTxnPort receives two-phase-commit traffic for the server's
	// transaction participant.
	DefaultTxnPort portals.Index = 22
	// PortalStride separates co-located servers' portal triples.
	PortalStride = 4
	// ClientDataPortal is where clients expose write buffers and post read
	// buffers; match bits select the transfer.
	ClientDataPortal portals.Index = 19
)

// ObjRef names an object globally: the storage server holding it and the
// device-local object ID. Higher layers (naming, checkpoint metadata) store
// ObjRefs; the LWFS core never interprets them.
type ObjRef struct {
	Node netsim.NodeID
	Port portals.Index // the server's RPC portal
	ID   osd.ObjectID
}

// Errors reported by the storage service.
var (
	ErrNoCap       = errors.New("storage: request carried no capability")
	ErrWrongOp     = errors.New("storage: capability does not authorize this operation")
	ErrWrongCont   = errors.New("storage: capability is for a different container")
	ErrCapRejected = errors.New("storage: capability rejected by authorization service")
)

// Config tunes a storage server.
type Config struct {
	Threads      int           // concurrent request service processes
	ChunkSize    int64         // bulk-transfer granularity
	PinnedBuffer int64         // pull-buffer pool bound, bytes
	OpCost       time.Duration // CPU cost to parse/dispatch a request
	// DisableCapCache turns off verification caching (every request takes
	// an authorization-service round trip) — the ablation knob for the
	// §3.1.2 amortization argument.
	DisableCapCache bool
	// QoS, when non-nil, installs a per-tenant admission controller in
	// front of the request portal (fair-share scheduling, rate caps,
	// bounded queue with explicit overload shed). nil = FIFO, unbounded.
	QoS *qos.Config
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		Threads:      4,
		ChunkSize:    1 << 20,
		PinnedBuffer: 8 << 20,
		OpCost:       20 * time.Microsecond,
	}
}

// Server is one LWFS storage server: an RPC front end over an object-based
// storage device.
type Server struct {
	ep        *portals.Endpoint
	dev       *osd.Device
	az        *authz.Client
	cfg       Config
	rpcPort   portals.Index
	cachePort portals.Index
	bufPool   *sim.Resource

	capCache map[uint64]authz.Capability
	part     *txn.Participant
	filters  map[string]FilterFunc
	adm      *qos.Admission

	cacheHits, cacheMisses, invalidated *metrics.Counter
	rpc, cacheRPC                       *portals.Server
}

// Start binds a storage server to ep's node at the given RPC portal, with
// its cache-invalidation portal immediately above. The device holds the
// data; az verifies capabilities.
func Start(ep *portals.Endpoint, dev *osd.Device, az *authz.Client, rpcPort portals.Index, cfg Config) *Server {
	if cfg.Threads <= 0 || cfg.ChunkSize <= 0 || cfg.PinnedBuffer < cfg.ChunkSize {
		panic(fmt.Sprintf("storage: bad config %+v", cfg))
	}
	s := &Server{
		ep:        ep,
		dev:       dev,
		az:        az,
		cfg:       cfg,
		rpcPort:   rpcPort,
		cachePort: rpcPort + 1,
		bufPool:   sim.NewResource(ep.Kernel(), fmt.Sprintf("%s/pinned", dev.Name()), cfg.PinnedBuffer),
		capCache:  make(map[uint64]authz.Capability),
	}
	cc := ep.Metrics().Scope("storage").Scope(dev.Name()).Scope("cap_cache")
	s.cacheHits = cc.Counter("hits")
	s.cacheMisses = cc.Counter("misses")
	s.invalidated = cc.Counter("invalidated")
	s.rpc = portals.Serve(ep, s.rpcPort, dev.Name(), cfg.Threads, s.handle) //qos:admitted
	if cfg.QoS != nil {
		s.adm = qos.NewAdmission(ep.Kernel(), ep.Metrics().Scope("qos").Scope(metricName(dev.Name())), *cfg.QoS)
		s.rpc.SetDispatcher(s.adm)
	}
	// The invalidation port is the authorization service's revocation
	// channel, not tenant traffic — admission control would let one tenant
	// delay another's revocations. //qos:exempt
	s.cacheRPC = portals.Serve(ep, s.cachePort, dev.Name()+"/capcache", 1, s.handleInvalidate)
	s.part = txn.NewParticipant(ep, dev, s.rpcPort+2)
	return s
}

// metricName flattens a server name for a registry segment (mirrors the rpc
// scope convention).
func metricName(name string) string { return strings.ReplaceAll(name, "/", ".") }

// Admission exposes the server's admission controller (nil without
// Config.QoS) — tests and operators adjust tenant weights through it.
func (s *Server) Admission() *qos.Admission { return s.adm }

// Crash fail-stops the server process: in-flight requests die unanswered,
// queued requests are discarded, and all volatile state is lost — the
// capability cache and the transaction participant's in-memory statuses.
// Durable state (objects, the journal) survives on the device.
func (s *Server) Crash() {
	s.rpc.SetDown(true)
	s.cacheRPC.SetDown(true)
	s.part.Crash()
	s.capCache = make(map[uint64]authz.Capability)
}

// Restart brings a crashed server back: the RPC ports answer again and the
// transaction journal is replayed (Recover), removing objects created by
// transactions that resolved to aborted. It returns the orphan count.
// Capabilities must be re-verified on first use — the cache restarts cold.
func (s *Server) Restart(p *sim.Proc) (removed int, err error) {
	s.rpc.SetDown(false)
	s.cacheRPC.SetDown(false)
	s.part.Restart()
	return s.Recover(p)
}

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.rpc.Down() }

// TxnEndpoint returns the participant endpoint clients enlist for
// transactional object creation on this server.
func (s *Server) TxnEndpoint() txn.Endpoint {
	return txn.Endpoint{Node: s.Node(), Port: s.rpcPort + 2}
}

// Participant exposes the server's transaction participant (tests, recovery).
func (s *Server) Participant() *txn.Participant { return s.part }

// Recover replays the device's transaction journal after a crash/restart:
// transactions without a commit record presume abort, and the objects their
// "created" records name are removed. It returns the number of orphaned
// objects cleaned up. Call it from a service process before serving.
func (s *Server) Recover(p *sim.Proc) (removed int, err error) {
	recs, outcomes, err := s.part.Recover(p)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if rec.Kind != "created" || outcomes[rec.Txn] != txn.StatusAborted {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(rec.Detail, "obj=%d", &id); err != nil {
			continue
		}
		if err := s.dev.Remove(p, osd.ObjectID(id)); err == nil {
			removed++
		}
	}
	return removed, nil
}

// Node returns the node the server runs on.
func (s *Server) Node() netsim.NodeID { return s.ep.Node() }

// RPCPort returns the server's request portal.
func (s *Server) RPCPort() portals.Index { return s.rpcPort }

// Ref builds an ObjRef for an object on this server.
func (s *Server) Ref(id osd.ObjectID) ObjRef {
	return ObjRef{Node: s.Node(), Port: s.rpcPort, ID: id}
}

// Device exposes the underlying device (used by transaction participants
// and by tests).
func (s *Server) Device() *osd.Device { return s.dev }

// AuthzClient exposes the server's authorization-service client, so fault
// harnesses can arm its caller with a retry policy.
func (s *Server) AuthzClient() *authz.Client { return s.az }

// Served reports completed requests.
func (s *Server) Served() int64 { return s.rpc.Served() }

// Deduped reports retransmitted requests absorbed by the exactly-once
// request-ID filter (each is a retry whose original still answered).
func (s *Server) Deduped() int64 { return s.rpc.Deduped() }

// request bodies

type createReq struct {
	Cap       authz.Capability
	Container authz.ContainerID
	Txn       txn.ID // non-zero: provisional create inside a transaction
}

type writeReq struct {
	Cap        authz.Capability
	ID         osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits // where the client's buffer is matched
	DataPortal portals.Index
}

type readReq struct {
	Cap        authz.Capability
	ID         osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits // where to push the data
	DataPortal portals.Index
}

type readResp struct {
	Len    int64
	Chunks int
}

type removeReq struct {
	Cap authz.Capability
	ID  osd.ObjectID
}

type truncateReq struct {
	Cap  authz.Capability
	ID   osd.ObjectID
	Size int64
}

type statReq struct {
	Cap authz.Capability
	ID  osd.ObjectID
}

type listReq struct {
	Cap       authz.Capability
	Container authz.ContainerID
}

type syncReq struct {
	Cap authz.Capability
}

type setAttrReq struct {
	Cap        authz.Capability
	ID         osd.ObjectID
	Key, Value string
}

type getAttrReq struct {
	Cap authz.Capability
	ID  osd.ObjectID
	Key string
}

func (s *Server) handleInvalidate(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	inv, ok := req.(authz.InvalidateCaps)
	if !ok {
		return nil, fmt.Errorf("storage: bad invalidation %T", req)
	}
	for _, id := range inv.CapIDs {
		if _, ok := s.capCache[id]; ok {
			delete(s.capCache, id)
			s.invalidated.Inc()
		}
	}
	return nil, nil
}

// checkCap enforces policy: the capability must be genuine (cached or
// verified with the authorization service), authorize op, and name the
// container being touched.
func (s *Server) checkCap(p *sim.Proc, c authz.Capability, op authz.Op, cid authz.ContainerID) error {
	if c == (authz.Capability{}) {
		return ErrNoCap
	}
	if c.Op != op {
		return fmt.Errorf("%w: have %v, need %v", ErrWrongOp, c.Op, op)
	}
	if c.Container != cid {
		return fmt.Errorf("%w: cap is for %d, object in %d", ErrWrongCont, c.Container, cid)
	}
	if !s.cfg.DisableCapCache {
		if cached, ok := s.capCache[c.ID]; ok && cached == c {
			if s.ep.Kernel().Now() <= c.Expires {
				s.cacheHits.Inc()
				return nil
			}
			// A cached capability does not outlive its expiry: drop it and
			// fall through to re-verification (which will also reject).
			delete(s.capCache, c.ID)
		}
	}
	s.cacheMisses.Inc()
	if err := s.az.VerifyCaps(p, []authz.Capability{c}, s.cachePort); err != nil {
		return fmt.Errorf("%w: %w", ErrCapRejected, err)
	}
	if !s.cfg.DisableCapCache {
		s.capCache[c.ID] = c
	}
	return nil
}

// container looks up the container an object belongs to.
func (s *Server) container(id osd.ObjectID) (authz.ContainerID, error) {
	st, err := s.dev.Stat(id)
	if err != nil {
		return 0, err
	}
	return authz.ContainerID(st.Container), nil
}

func (s *Server) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	p.Sleep(s.cfg.OpCost)
	switch r := req.(type) {
	case createReq:
		if err := s.checkCap(p, r.Cap, authz.OpCreate, r.Container); err != nil {
			return nil, err
		}
		if r.Txn != 0 {
			// Write-ahead: log the intent before allocating, so recovery
			// after a crash can resolve the create via the journal.
			if err := s.part.Log(p, txn.JournalRecord{Txn: r.Txn, Kind: "create",
				Detail: fmt.Sprintf("container=%d", r.Container)}); err != nil {
				return nil, err
			}
		}
		obj := s.dev.Create(p, osd.ContainerID(r.Container))
		if r.Txn != 0 {
			id := obj.ID
			// Second journal record binds the allocated ID to the
			// transaction, so crash recovery can find the orphan.
			if err := s.part.Log(p, txn.JournalRecord{Txn: r.Txn, Kind: "created",
				Detail: fmt.Sprintf("obj=%d", uint64(id))}); err != nil {
				return nil, err
			}
			s.part.OnAbort(r.Txn, func(q *sim.Proc) {
				s.dev.Remove(q, id) //nolint:errcheck // already gone is fine
			})
		}
		return s.Ref(obj.ID), nil

	case writeReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpWrite, cid); err != nil {
			return nil, err
		}
		return s.pullWrite(p, from, r)

	case readReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpRead, cid); err != nil {
			return nil, err
		}
		return s.pushRead(p, from, r)

	case removeReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpRemove, cid); err != nil {
			return nil, err
		}
		return nil, s.dev.Remove(p, r.ID)

	case truncateReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpWrite, cid); err != nil {
			return nil, err
		}
		if r.Size < 0 {
			return nil, fmt.Errorf("storage: negative truncate size %d", r.Size)
		}
		return nil, s.dev.Truncate(p, r.ID, r.Size)

	case statReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		// Read or list capability suffices for metadata.
		if err := s.checkCap(p, r.Cap, r.Cap.Op, cid); err != nil {
			return nil, err
		}
		if r.Cap.Op != authz.OpRead && r.Cap.Op != authz.OpList {
			return nil, ErrWrongOp
		}
		return s.dev.Stat(r.ID)

	case listReq:
		if err := s.checkCap(p, r.Cap, authz.OpList, r.Container); err != nil {
			return nil, err
		}
		return s.dev.ListContainer(osd.ContainerID(r.Container)), nil

	case syncReq:
		// Any valid capability for any operation entitles the holder to
		// flush the device (sync has no container scope).
		if err := s.checkCap(p, r.Cap, r.Cap.Op, r.Cap.Container); err != nil {
			return nil, err
		}
		s.dev.Sync(p)
		return nil, nil

	case setAttrReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpWrite, cid); err != nil {
			return nil, err
		}
		return nil, s.dev.SetAttr(p, r.ID, r.Key, r.Value)

	case getAttrReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpRead, cid); err != nil {
			return nil, err
		}
		return s.dev.GetAttr(r.ID, r.Key)

	case copyReq:
		cid, err := s.container(r.DstID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.DstCap, authz.OpWrite, cid); err != nil {
			return nil, err
		}
		return s.serveCopy(p, r)

	case filterReq:
		cid, err := s.container(r.ID)
		if err != nil {
			return nil, err
		}
		if err := s.checkCap(p, r.Cap, authz.OpRead, cid); err != nil {
			return nil, err
		}
		return s.runFilter(p, r)

	default:
		return nil, fmt.Errorf("storage: unknown request %T", req)
	}
}

type pulledChunk struct {
	off     int64
	payload netsim.Payload
	err     error
}

// pullWrite implements the server-directed write of Figure 6: the server
// pulls the client's data in ChunkSize pieces, double-buffered against the
// pinned pool so the network pull of chunk i+1 overlaps the disk write of
// chunk i.
func (s *Server) pullWrite(p *sim.Proc, from netsim.NodeID, r writeReq) (interface{}, error) {
	written, err := ChunkedPull(p, s.ep, s.dev.Name(), from, r.DataPortal, r.Bits, r.Len, s.cfg.ChunkSize, s.bufPool,
		func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			return s.dev.Write(q, r.ID, r.Off+off, chunk)
		})
	return written, err
}

// pushRead implements the server-directed read: the server reads the disk
// chunk by chunk and pushes each chunk into the client's posted buffer with
// a one-sided Put. The RPC response follows the last Put through the same
// FIFO path, so when the client sees the response, all data has landed.
func (s *Server) pushRead(p *sim.Proc, from netsim.NodeID, r readReq) (interface{}, error) {
	st, err := s.dev.Stat(r.ID)
	if err != nil {
		return nil, err
	}
	length := r.Len
	if r.Off >= st.Size {
		length = 0
	} else if r.Off+length > st.Size {
		length = st.Size - r.Off
	}
	chunksSent := 0
	for off := int64(0); off < length; off += s.cfg.ChunkSize {
		n := s.cfg.ChunkSize
		if off+n > length {
			n = length - off
		}
		payload, err := s.dev.Read(p, r.ID, r.Off+off, n)
		if err != nil {
			return nil, err
		}
		s.ep.Put(from, r.DataPortal, r.Bits, off, payload)
		chunksSent++
	}
	return readResp{Len: length, Chunks: chunksSent}, nil
}
