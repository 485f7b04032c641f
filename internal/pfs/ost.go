package pfs

import (
	"errors"
	"fmt"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// OST is an object storage target: the baseline's per-disk data server.
// Unlike the LWFS storage server it trusts its callers completely and
// wraps every write in the distributed-lock-manager discipline: an extent
// lock per backing object, granted whole-object to the current writer, and
// revoked (with a callback round trip) whenever a different client writes.
type OST struct {
	ep   *portals.Endpoint
	dev  *osd.Device
	cfg  Config
	port portals.Index

	locks map[osd.ObjectID]*ostLock

	lockSwitches, writesServed *metrics.Counter
}

type ostLock struct {
	res    *sim.Resource
	holder uint64 // client identity of the current extent-lock holder
}

// ost request bodies

type ostWriteReq struct {
	Obj        osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits
	DataPortal portals.Index
	ClientID   uint64 // lock-holder identity
}

type ostReadReq struct {
	Obj        osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits
	DataPortal portals.Index
}

type ostReadResp struct {
	Len    int64
	Chunks int
}

type ostSyncReq struct{}

// StartOST binds an OST over dev at (ep, port).
func StartOST(ep *portals.Endpoint, dev *osd.Device, port portals.Index, cfg Config) *OST {
	o := &OST{
		ep:    ep,
		dev:   dev,
		cfg:   cfg,
		port:  port,
		locks: make(map[osd.ObjectID]*ostLock),
	}
	po := ep.Metrics().Scope("pfs").Scope(dev.Name())
	o.lockSwitches = po.Counter("lock_switches")
	o.writesServed = po.Counter("writes_served")
	portals.Serve(ep, port, dev.Name(), cfg.OSTThreads, o.handle)
	return o
}

// Target returns the OST's address.
func (o *OST) Target() OSTTarget { return OSTTarget{Node: o.ep.Node(), Port: o.port} }

// Device exposes the backing device.
func (o *OST) Device() *osd.Device { return o.dev }

// ostContainer tags PFS backing objects on the shared device model.
const ostContainer osd.ContainerID = 1 << 40

// ensureObject lazily instantiates a backing object (the role of Lustre's
// precreated-object pool: creates never wait on OSTs).
func (o *OST) ensureObject(p *sim.Proc, id osd.ObjectID) error {
	if _, err := o.dev.Lookup(id); err == nil {
		return nil
	}
	if _, err := o.dev.CreateWithID(p, id, ostContainer); err != nil && !errors.Is(err, osd.ErrExists) {
		return err // ErrExists: another service thread won the race
	}
	return nil
}

func (o *OST) lockOf(id osd.ObjectID) *ostLock {
	l, ok := o.locks[id]
	if !ok {
		l = &ostLock{res: sim.NewResource(o.ep.Kernel(), fmt.Sprintf("%s/dlm-%d", o.dev.Name(), id), 1)}
		o.locks[id] = l
	}
	return l
}

func (o *OST) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	switch r := req.(type) {
	case ostWriteReq:
		return o.write(p, from, r)
	case ostReadReq:
		return o.read(p, from, r)
	case ostSyncReq:
		o.dev.Sync(p)
		return nil, nil
	default:
		return nil, fmt.Errorf("pfs: unknown OST request %T", req)
	}
}

// write services one striped write under the DLM discipline. For a
// single-writer object the lock is a formality (same holder, no contention,
// and the object's requests arrive one at a time anyway). For a shared
// object the lock both serializes service — forfeiting pull/disk overlap —
// and charges a revocation callback whenever the writing client changes.
func (o *OST) write(p *sim.Proc, from netsim.NodeID, r ostWriteReq) (interface{}, error) {
	if err := o.ensureObject(p, r.Obj); err != nil {
		return nil, err
	}
	l := o.lockOf(r.Obj)
	l.res.Acquire(p, 1)
	defer l.res.Release(1)
	p.Sleep(o.cfg.LockOpCost)
	if l.holder != r.ClientID {
		if l.holder != 0 {
			// Revoke the previous holder's cached extent lock: a blocking
			// callback round trip, client-side lock cancellation and page
			// invalidation, and a flush barrier on the object's dirty
			// state before the new grant is safe.
			p.Sleep(o.cfg.RevokeCost + 2*o.ep.Network().Latency())
			o.dev.Sync(p)
			o.lockSwitches.Inc()
		}
		l.holder = r.ClientID
	}
	// Pull the data server-directed with a read-ahead pipeline, writing
	// through to disk as chunks land. Within one bulk RPC the network pull
	// of chunk i+1 overlaps the disk write of chunk i — this is why a
	// single-writer file matches LWFS bandwidth. A shared file never gets
	// here with large extents: its writers arrive one stripe unit at a
	// time (see Client.write), each under the lock discipline above.
	k := p.Kernel()
	chunks := sim.NewMailbox(k, o.dev.Name()+"/pull")
	window := sim.NewResource(k, o.dev.Name()+"/window", 2)
	nchunks := int((r.Len + o.cfg.ChunkSize - 1) / o.cfg.ChunkSize)
	k.Spawn(o.dev.Name()+"/puller", func(q *sim.Proc) {
		for off := int64(0); off < r.Len; off += o.cfg.ChunkSize {
			n := o.cfg.ChunkSize
			if off+n > r.Len {
				n = r.Len - off
			}
			window.Acquire(q, 1)
			payload, err := o.ep.Get(q, from, r.DataPortal, r.Bits, off, n)
			chunks.Send(pulled{off: off, payload: payload, err: err})
			if err != nil {
				return
			}
		}
	})
	var written int64
	var firstErr error
	for i := 0; i < nchunks; i++ {
		c := chunks.Recv(p).(pulled)
		if c.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pfs: pulling write data: %w", c.err)
			}
			break
		}
		if firstErr == nil {
			if err := o.dev.Write(p, r.Obj, r.Off+c.off, c.payload); err != nil {
				firstErr = err
			} else {
				written += c.payload.Size
			}
		}
		window.Release(1)
	}
	if firstErr != nil {
		return written, firstErr
	}
	o.writesServed.Inc()
	return written, nil
}

type pulled struct {
	off     int64
	payload netsim.Payload
	err     error
}

func (o *OST) read(p *sim.Proc, from netsim.NodeID, r ostReadReq) (interface{}, error) {
	if err := o.ensureObject(p, r.Obj); err != nil {
		return nil, err
	}
	st, err := o.dev.Stat(r.Obj)
	if err != nil {
		return nil, err
	}
	length := r.Len
	if r.Off >= st.Size {
		length = 0
	} else if r.Off+length > st.Size {
		length = st.Size - r.Off
	}
	chunks := 0
	for off := int64(0); off < length; off += o.cfg.ChunkSize {
		n := o.cfg.ChunkSize
		if off+n > length {
			n = length - off
		}
		payload, err := o.dev.Read(p, r.Obj, r.Off+off, n)
		if err != nil {
			return nil, err
		}
		o.ep.Put(from, r.DataPortal, r.Bits, off, payload)
		chunks++
	}
	return ostReadResp{Len: length, Chunks: chunks}, nil
}
