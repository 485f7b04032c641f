// Package netsim models the communication network of a partitioned MPP
// (paper §2.1, Figure 1): a set of nodes, each with a network interface
// whose egress and ingress sides are FIFO bandwidth servers, connected by a
// full-crossbar fabric with uniform latency.
//
// A message of size s from node A to node B costs
//
//	serialize on A's egress (s / egressBW)
//	+ fabric latency
//	+ serialize on B's ingress (s / ingressBW)
//	+ fixed per-message software overhead at the receiver.
//
// Contention is emergent: when thousands of compute nodes burst I/O at one
// I/O node (paper §3.2), their transfers serialize on that node's ingress
// server, exactly the queueing effect server-directed I/O is designed to
// control.
package netsim

import (
	"fmt"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/sim"
)

// NodeID identifies a node in the network.
type NodeID int

// Invalid is a sentinel for "no node".
const Invalid NodeID = -1

// Payload describes message data. Data may be nil for synthetic payloads:
// benchmarks move terabytes of virtual data without allocating it, while
// tests and examples carry real bytes end-to-end.
type Payload struct {
	Size int64  // bytes on the wire
	Data []byte // optional real content; len(Data) <= Size
}

// BytesPayload wraps real bytes in a payload.
func BytesPayload(b []byte) Payload { return Payload{Size: int64(len(b)), Data: b} }

// SyntheticPayload describes size bytes with no backing content.
func SyntheticPayload(size int64) Payload { return Payload{Size: size} }

// Message is a single network transfer.
type Message struct {
	From, To NodeID
	Size     int64       // wire size in bytes (headers + payload)
	Body     interface{} // protocol-level content (request structs, Payload, ...)
}

// Handler consumes messages delivered to a node. It runs in kernel context
// and must not block; long work should be queued to a service process.
type Handler func(m Message)

// Config describes a node's network interface.
type Config struct {
	EgressBW   float64       // bytes/second out of the node
	IngressBW  float64       // bytes/second into the node
	SWOverhead time.Duration // per-message receive processing (interrupt, demux)
}

// Node is one endpoint of the network. Its counters live in the network's
// metrics registry under `net.<name>.*`: these are *link-level* message
// counts — every portals Put/Get, data chunk, ack and RPC header crossing
// the NIC — not to be confused with `rpc.<server>.served`, which counts
// completed RPC requests (one served request typically moves several
// net-level messages).
type Node struct {
	ID      NodeID
	Name    string
	egress  *sim.FIFOServer
	ingress *sim.FIFOServer
	cfg     Config
	handler Handler

	// net.<name>.msgs_sent|msgs_received|bytes_sent|bytes_received count
	// link-level messages (every chunk, ack and header), a different unit
	// from `rpc.<server>.served`, which counts completed RPC requests.
	sent, received           *metrics.Counter
	bytesSent, bytesReceived *metrics.Counter
}

// Network is a full crossbar of nodes with uniform latency.
type Network struct {
	k       *sim.Kernel
	latency time.Duration
	nodes   []*Node
	trace   func(at sim.Time, m Message, event string)
	fault   func(m Message) bool
	rules   []*Fault
	rng     *sim.Rand
	reg     *metrics.Registry
	dropped *metrics.Counter
	pool    *xfer // free list of delivery-pipeline records
}

// xfer is one in-flight message's delivery pipeline. The three stage
// callbacks (egress done → fabric latency done → ingress done) are bound
// once when the record is first allocated and the record is recycled
// through Network.pool, so a steady-state Send performs no allocation —
// previously every message allocated three nested closures, at link level
// one set per chunk, ack, and RPC header. The kernel is single-threaded, so
// a plain free list is safe and deterministic.
type xfer struct {
	n      *Network
	m      Message
	dst    *Node
	extra  time.Duration // fault-injected extra latency
	next   *xfer         // free-list link
	stage1 func()        // pre-bound: egress serialization complete
	stage2 func()        // pre-bound: fabric latency elapsed
	stage3 func()        // pre-bound: ingress serialization complete
}

func (n *Network) allocXfer() *xfer {
	t := n.pool
	if t == nil {
		t = &xfer{n: n}
		t.stage1 = t.egressDone
		t.stage2 = t.latencyDone
		t.stage3 = t.ingressDone
		return t
	}
	n.pool = t.next
	t.next = nil
	return t
}

func (t *xfer) egressDone() { t.n.k.After(t.n.latency+t.extra, t.stage2) }

func (t *xfer) latencyDone() {
	d := t.dst
	d.ingress.Schedule(sim.Rate(t.m.Size, d.cfg.IngressBW)+d.cfg.SWOverhead, t.stage3)
}

func (t *xfer) ingressDone() {
	n, d, m := t.n, t.dst, t.m
	// Release before invoking the handler: the handler may send again and
	// reuse this record immediately.
	t.m = Message{} // drop the Body reference
	t.dst = nil
	t.next = n.pool
	n.pool = t
	d.received.Inc()
	d.bytesReceived.Add(m.Size)
	n.traceMsg(m, "rx")
	if d.handler != nil {
		d.handler(m)
	}
}

// SetFault installs an ad-hoc fault injector consulted for every message at
// send time; returning true silently drops the message. Pass nil to remove
// it. Declarative fault rules (InjectFault, Partition, Degrade in faults.go)
// compose with and are preferred over this closure. Timing note: drops
// happen before egress, so the sender pays nothing — appropriate for
// modeling partitions, where packets vanish in the fabric.
func (n *Network) SetFault(f func(m Message) bool) { n.fault = f }

// Dropped reports messages removed by fault injection.
func (n *Network) Dropped() int64 { return n.dropped.Value() }

// Metrics returns the network's instrument registry — the cluster-wide
// observability surface every service hanging off this network registers
// into. Snapshots are stamped with the kernel's virtual time.
func (n *Network) Metrics() *metrics.Registry { return n.reg }

// SetTrace installs a message-trace hook, called at send ("tx") and
// delivery ("rx") of every message. Pass nil to disable. The hook runs in
// kernel context and must not block.
func (n *Network) SetTrace(f func(at sim.Time, m Message, event string)) { n.trace = f }

func (n *Network) traceMsg(m Message, event string) {
	if n.trace != nil {
		n.trace(n.k.Now(), m, event)
	}
}

// New creates an empty network with the given fabric latency. The network's
// registry also exposes the kernel's event-queue health under `sim.*`:
// events scheduled/dispatched, canceled timeouts awaiting compaction
// (events_canceled), and the event-arena high-water mark (event_pool).
func New(k *sim.Kernel, latency time.Duration) *Network {
	reg := metrics.NewRegistry(k.Now)
	reg.GaugeFunc("sim.events_scheduled", func() int64 { return int64(k.EventsScheduled()) })
	reg.GaugeFunc("sim.events_dispatched", func() int64 { return int64(k.EventsDispatched()) })
	reg.GaugeFunc("sim.events_canceled", func() int64 { return int64(k.EventsCanceled()) })
	reg.GaugeFunc("sim.event_pool", func() int64 { return int64(k.EventPoolSize()) })
	return &Network{k: k, latency: latency, reg: reg, dropped: reg.Counter("net.dropped")}
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Latency returns the fabric latency.
func (n *Network) Latency() time.Duration { return n.latency }

// AddNode registers a node and returns it.
func (n *Network) AddNode(name string, cfg Config) *Node {
	if cfg.EgressBW <= 0 || cfg.IngressBW <= 0 {
		panic(fmt.Sprintf("netsim: node %q: non-positive bandwidth", name))
	}
	id := NodeID(len(n.nodes))
	scope := n.reg.Scope("net").Scope(name)
	nd := &Node{
		ID:            id,
		Name:          name,
		egress:        sim.NewFIFOServer(n.k, name+"/egress"),
		ingress:       sim.NewFIFOServer(n.k, name+"/ingress"),
		cfg:           cfg,
		sent:          scope.Counter("msgs_sent"),
		received:      scope.Counter("msgs_received"),
		bytesSent:     scope.Counter("bytes_sent"),
		bytesReceived: scope.Counter("bytes_received"),
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: unknown node %d", id))
	}
	return n.nodes[id]
}

// Nodes returns all registered nodes.
func (n *Network) Nodes() []*Node { return n.nodes }

// SetHandler installs the message handler for a node. A node without a
// handler drops messages (and panics in debug builds of protocols, which
// always bind handlers first).
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// IngressBusy reports the total time the node's ingress server was busy.
func (nd *Node) IngressBusy() time.Duration { return nd.ingress.BusyTime() }

// EgressBusy reports the total time the node's egress server was busy.
func (nd *Node) EgressBusy() time.Duration { return nd.egress.BusyTime() }

// Send transmits m asynchronously: the caller continues immediately and the
// message is delivered to the destination handler after egress
// serialization, latency and ingress serialization. Send may be called from
// kernel context or any process.
func (n *Network) Send(m Message) {
	src := n.Node(m.From)
	dst := n.Node(m.To)
	if m.Size <= 0 {
		m.Size = 1
	}
	drop, extra := n.applyFaults(m)
	if drop {
		n.dropped.Inc()
		return
	}
	src.sent.Inc()
	src.bytesSent.Add(m.Size)
	n.traceMsg(m, "tx")
	t := n.allocXfer()
	t.m, t.dst, t.extra = m, dst, extra
	src.egress.Schedule(sim.Rate(m.Size, src.cfg.EgressBW), t.stage1)
}

// SendWait is Send, but the calling process blocks until the message has
// fully left the local NIC (egress serialization complete). This models a
// blocking send whose local buffer cannot be reused until the DMA engine is
// done — the natural shape for a client streaming checkpoint chunks.
func (n *Network) SendWait(p *sim.Proc, m Message) {
	src := n.Node(m.From)
	dst := n.Node(m.To)
	if m.Size <= 0 {
		m.Size = 1
	}
	drop, extra := n.applyFaults(m)
	if drop {
		n.dropped.Inc()
		return
	}
	src.sent.Inc()
	src.bytesSent.Add(m.Size)
	n.traceMsg(m, "tx")
	// Block for our egress slot, then launch the rest of the pipeline.
	src.egress.Wait(p, sim.Rate(m.Size, src.cfg.EgressBW))
	t := n.allocXfer()
	t.m, t.dst, t.extra = m, dst, extra
	t.egressDone()
}
