package portals

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// This file provides a small request/response convention over portals, used
// by every LWFS and PFS control protocol: the client Puts a small request to
// the service's portal index, carrying a reply token; the service Puts the
// response back to the client's reply portal matched by that token.
//
// Bulk data never rides on RPC — it moves via one-sided Get/Put against the
// memory descriptors named inside request headers (server-directed I/O).

// replyPortal is the reserved portal index where all RPC responses land.
const replyPortal Index = 1022

// rpcRequest is the header of an RPC request message.
type rpcRequest struct {
	Token    uint64
	ReqID    uint64 // nonzero for retryable calls; servers dedup on (From, ReqID)
	From     netsim.NodeID
	Class    uint8 // scheduling class (Caller.SetClass); 0 = foreground
	Body     interface{}
	RespSize int64 // wire size the response should occupy (0 => header only)
}

// rpcResponse is the header of an RPC response message. Err travels as an
// error value: message bodies are in-memory values throughout the simulated
// network, so preserving error identity (errors.Is against the service
// packages' sentinel errors) costs nothing and makes the client API honest.
type rpcResponse struct {
	Token uint64
	Body  interface{}
	Err   error
}

// Handler processes one RPC request on a service process. It may block
// (sleep for service time, do disk I/O, issue portals Gets). The returned
// body travels back to the caller.
type Handler func(p *sim.Proc, from netsim.NodeID, req interface{}) (resp interface{}, err error)

// ErrOverload is the explicit shed verdict: an admission-controlled server
// whose queue is full answers immediately with this error instead of letting
// the request age into a timeout. Callers should back off and retry (Call
// treats it as retryable); it is NOT a timeout — the server is alive.
var ErrOverload = errors.New("portals: server overloaded, request shed")

// ErrCircuitOpen is returned by a breaker-armed Caller without issuing the
// attempt: the target's circuit is open after consecutive failures. It wraps
// ErrRPCTimeout deliberately — every failover/degraded-read path that treats
// a timeout as "route around this server" handles a fast-failed attempt
// identically, except the caller waited zero time instead of a full timeout.
var ErrCircuitOpen = fmt.Errorf("portals: circuit open (fast-fail): %w", ErrRPCTimeout)

// Delivery is one parsed request in flight between arrival and service —
// what a Dispatcher schedules. From, Class and Body are visible so admission
// policy can classify it; the reply routing stays private to the Server.
type Delivery struct {
	From  netsim.NodeID
	Class uint8
	Body  interface{}

	req   rpcRequest
	valid bool
}

// Dispatcher is a pluggable queue discipline between request arrival and the
// service threads (an admission controller). Submit is called on arrival: it
// either queues the delivery or rejects it with an error (typically
// ErrOverload) which is sent straight back to the caller without consuming a
// service thread. Next blocks a service thread until a delivery is
// dispatchable — the dispatcher picks the order (fair-share, priority). Len
// reports queued deliveries; Clear discards them all (server crash) and
// returns how many were dropped.
type Dispatcher interface {
	Submit(d Delivery) error
	Next(p *sim.Proc) Delivery
	Len() int
	Clear() int
}

// dedupKey identifies one logical client request across retries.
type dedupKey struct {
	from  netsim.NodeID
	reqID uint64
}

// dedupResult is what a completed execution leaves behind for duplicates.
type dedupResult struct {
	body interface{}
	err  error
}

// defaultDedupCap bounds the dedup table; the oldest *completed* entries
// fall out FIFO (in-flight executions are never evicted — a retransmission
// of one must keep finding its future, or the handler would re-run). 4096
// logical requests in flight or recently completed per server is far beyond
// anything the simulated workloads generate.
const defaultDedupCap = 4096

// Server dispatches RPC requests arriving at one portal index to a pool of
// service processes. Threads models the server's internal concurrency: a
// Lustre MDS with one service thread serializes every create; an LWFS
// storage server with several threads overlaps network pulls with disk
// writes across requests.
//
// Retried requests (nonzero ReqID) are deduplicated: a duplicate of a
// request still executing waits for the original and returns its response;
// a duplicate of a completed request returns the recorded response without
// re-running the handler. This is what makes client retry safe for
// non-idempotent operations (object create, 2PC prepare).
type Server struct {
	ep      *Endpoint
	pt      Index
	name    string
	q       *sim.Mailbox
	handler Handler

	inflight map[dedupKey]*sim.Future
	order    []dedupKey // FIFO eviction of inflight
	dedupCap int

	// down models a crashed process: requests are discarded unanswered and
	// replies from handler executions that straddled the crash are
	// suppressed. epoch increments on every SetDown(true) so an execution
	// that began before a crash cannot leak its reply after a restart.
	down  bool
	epoch uint64

	// disp, when set, reorders/limits requests between arrival and
	// service (admission control). nil keeps the FIFO mailbox path.
	disp Dispatcher

	// Registered under `rpc.<name>.*` — these count *completed RPC
	// requests*, a different unit from the link-level `net.<node>.*`
	// message counters (one served request typically moves several
	// network messages: request, pull/push data, reply).
	served    *metrics.Counter
	deduped   *metrics.Counter
	discarded *metrics.Counter
	shed      *metrics.Counter
}

// metricName flattens an RPC server name into a registry instance segment:
// "osd0.0/txn" registers under "rpc.osd0.0.txn.*".
func metricName(name string) string { return strings.ReplaceAll(name, "/", ".") }

// Serve attaches an RPC server at (ep, pt) with the given number of service
// processes. The server registers `rpc.<name>.served|deduped|discarded`
// counters and a `rpc.<name>.queue_depth` gauge in the network's metrics
// registry.
func Serve(ep *Endpoint, pt Index, name string, threads int, handler Handler) *Server {
	if threads <= 0 {
		panic(fmt.Sprintf("portals: server %q: need at least one thread", name))
	}
	k := ep.Kernel()
	scope := ep.Metrics().Scope("rpc").Scope(metricName(name))
	s := &Server{
		ep: ep, pt: pt, name: name,
		q:         sim.NewMailbox(k, name+"/rpcq"),
		handler:   handler,
		inflight:  make(map[dedupKey]*sim.Future),
		dedupCap:  defaultDedupCap,
		served:    scope.Counter("served"),
		deduped:   scope.Counter("deduped"),
		discarded: scope.Counter("discarded"),
		shed:      scope.Counter("shed"),
	}
	scope.GaugeFunc("queue_depth", func() int64 {
		n := int64(s.q.Len())
		if s.disp != nil {
			n += int64(s.disp.Len())
		}
		return n
	})
	ep.Attach(pt, 0, ^MatchBits(0), &MD{EQ: s.q})
	for i := 0; i < threads; i++ {
		k.SpawnDaemon(fmt.Sprintf("%s/worker%d", name, i), s.worker)
	}
	return s
}

// SetDispatcher installs an admission controller between request arrival and
// the service threads. An intake daemon parses arrivals off the wire mailbox
// and offers them to d.Submit; a rejection (ErrOverload) is answered
// immediately with the error and zero payload — the caller learns "shed" at
// network latency instead of aging into a timeout. Service threads then pull
// work through d.Next in whatever order the dispatcher chooses.
//
// Must be called once, before the simulation runs (servers are configured at
// deploy time); installing a second dispatcher panics.
func (s *Server) SetDispatcher(d Dispatcher) {
	if s.disp != nil {
		panic(fmt.Sprintf("portals: server %q: dispatcher already set", s.name))
	}
	s.disp = d
	s.ep.Kernel().SpawnDaemon(s.name+"/intake", func(p *sim.Proc) {
		for {
			ev := s.q.Recv(p).(*Event)
			req, ok := ev.Hdr.(rpcRequest)
			if !ok {
				continue
			}
			if s.down {
				s.discarded.Inc()
				continue
			}
			if err := d.Submit(Delivery{From: req.From, Class: req.Class, Body: req.Body, req: req, valid: true}); err != nil {
				s.shedReply(s.epoch, req, err)
			}
		}
	})
}

// shedReply answers a rejected request with err and no payload. Sheds are
// counted separately from served: the handler never ran.
func (s *Server) shedReply(epoch uint64, req rpcRequest, err error) {
	if s.down || epoch != s.epoch {
		return
	}
	s.shed.Inc()
	s.ep.Put(req.From, replyPortal, MatchBits(req.Token), rpcResponse{Token: req.Token, Err: err}, netsim.Payload{})
}

// Served reports the number of requests completed (`rpc.<name>.served`).
func (s *Server) Served() int64 { return s.served.Value() }

// Deduped reports retried requests answered without re-running the handler
// (`rpc.<name>.deduped`).
func (s *Server) Deduped() int64 { return s.deduped.Value() }

// QueueLen reports requests waiting for a service thread (also exported as
// the `rpc.<name>.queue_depth` gauge).
func (s *Server) QueueLen() int { return s.q.Len() }

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// SetDown crashes (true) or restarts (false) the server. Crashing discards
// queued requests, forgets the volatile dedup table, and suppresses replies
// from handler executions already underway; the RPC port itself stays bound,
// modeling a machine that is unreachable at the process level rather than
// the NIC level. Durable state recovery is the owner's job (storage servers
// replay their journal on restart).
func (s *Server) SetDown(down bool) {
	if down && !s.down {
		s.epoch++
		s.inflight = make(map[dedupKey]*sim.Future)
		s.order = nil
		for {
			if _, ok := s.q.TryRecv(); !ok {
				break
			}
			s.discarded.Inc()
		}
		if s.disp != nil {
			s.discarded.Add(int64(s.disp.Clear()))
		}
	}
	s.down = down
}

func (s *Server) reply(epoch uint64, req rpcRequest, body interface{}, err error) {
	if s.down || epoch != s.epoch {
		return // crashed (or crashed+restarted) since this execution began
	}
	s.served.Inc()
	size := HeaderSize + req.RespSize
	s.ep.Put(req.From, replyPortal, MatchBits(req.Token), rpcResponse{Token: req.Token, Body: body, Err: err},
		netsim.SyntheticPayload(size-HeaderSize))
}

func (s *Server) worker(p *sim.Proc) {
	for {
		var req rpcRequest
		if s.disp != nil {
			del := s.disp.Next(p)
			if !del.valid {
				continue
			}
			req = del.req
		} else {
			ev := s.q.Recv(p).(*Event)
			var ok bool
			req, ok = ev.Hdr.(rpcRequest)
			if !ok {
				continue
			}
		}
		if s.down {
			s.discarded.Inc()
			continue
		}
		epoch := s.epoch
		if req.ReqID == 0 {
			body, err := s.handler(p, req.From, req.Body)
			s.reply(epoch, req, body, err)
			continue
		}
		key := dedupKey{from: req.From, reqID: req.ReqID}
		if fut, dup := s.inflight[key]; dup {
			// Retry of a request we have seen: wait for (or read) the
			// original execution's result and answer at this reply token.
			s.deduped.Inc()
			v, _ := fut.Wait(p)
			r := v.(dedupResult)
			s.reply(epoch, req, r.body, r.err)
			continue
		}
		fut := sim.NewFuture()
		s.inflight[key] = fut
		s.order = append(s.order, key)
		s.evictDedup()
		body, err := s.handler(p, req.From, req.Body)
		fut.Complete(dedupResult{body: body, err: err}, nil)
		s.reply(epoch, req, body, err)
	}
}

// evictDedup trims the dedup table to its cap, oldest-first, skipping
// entries whose execution is still in flight: evicting one of those would
// let a later retransmission re-run a non-idempotent handler. The table may
// transiently exceed the cap while more than dedupCap executions are
// genuinely concurrent; later inserts trim it back once they complete.
func (s *Server) evictDedup() {
	for len(s.order) > s.dedupCap {
		victim := -1
		for i, k := range s.order {
			if s.inflight[k].Done() {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		delete(s.inflight, s.order[victim])
		s.order = append(s.order[:victim], s.order[victim+1:]...)
	}
}

// ErrRPCTimeout is returned by CallTimeout when the deadline passes.
var ErrRPCTimeout = errors.New("portals: rpc timeout")

// Breaker is the client-side circuit breaker consulted by a Caller before
// each attempt. Allow asked false means fast-fail with ErrCircuitOpen instead
// of issuing the attempt; Record feeds every attempt's outcome (nil on
// success) back so the breaker can trip on consecutive timeouts/overloads.
// Keyed by (target, portal) so one sick service on a node does not condemn
// its healthy neighbors.
type Breaker interface {
	Allow(target netsim.NodeID, pt Index) bool
	Record(target netsim.NodeID, pt Index, err error)
}

// Caller issues RPCs from an endpoint. Tokens come from the endpoint's
// shared space, so any number of callers may coexist on one node.
type Caller struct {
	ep    *Endpoint
	retry RetryPolicy
	rng   *sim.Rand

	class   uint8   // stamped on every outgoing request (qos scheduling class)
	breaker Breaker // optional fast-fail gate, consulted per attempt

	// Per-caller instruments (tests assert individual callers), mirrored
	// into the shared node-wide `rpc.client.<node>.retries|late_replies`
	// registry counters so snapshots see the totals.
	lateReplies metrics.Counter
	retries     metrics.Counter

	nodeLateReplies *metrics.Counter
	nodeRetries     *metrics.Counter
}

// NewCaller creates a caller on ep.
func NewCaller(ep *Endpoint) *Caller {
	scope := ep.Metrics().Scope("rpc").Scope("client").Scope(ep.NodeName())
	return &Caller{
		ep:              ep,
		nodeLateReplies: scope.Counter("late_replies"),
		nodeRetries:     scope.Counter("retries"),
	}
}

// Endpoint returns the caller's endpoint.
func (c *Caller) Endpoint() *Endpoint { return c.ep }

// SetRetry arms Call with a retry policy. rng seeds the backoff jitter and
// may be nil for a default seed; pass a per-caller seeded generator to keep
// chaos runs deterministic.
func (c *Caller) SetRetry(pol RetryPolicy, rng *sim.Rand) {
	if rng == nil {
		rng = sim.NewRand(0)
	}
	c.retry, c.rng = pol, rng
}

// Retry returns the caller's retry policy (zero if disabled).
func (c *Caller) Retry() RetryPolicy { return c.retry }

// SetClass stamps every request this caller sends with a scheduling class
// (0 = foreground, the default). Admission-controlled servers use it to run
// foreground traffic ahead of background batches (burst drains).
func (c *Caller) SetClass(class uint8) { c.class = class }

// SetBreaker arms the caller with a circuit breaker. nil disarms.
func (c *Caller) SetBreaker(b Breaker) { c.breaker = b }

// LateReplies reports responses that arrived after their attempt timed out.
// Each was dropped at the reply portal — never delivered to another call.
// Node-wide totals are registered as `rpc.client.<node>.late_replies`.
func (c *Caller) LateReplies() int64 { return c.lateReplies.Value() }

// Retries reports re-sent attempts (excluding each call's first attempt).
// Node-wide totals are registered as `rpc.client.<node>.retries`.
func (c *Caller) Retries() int64 { return c.retries.Value() }

// Call sends req (occupying reqSize bytes on the wire, in addition to the
// portals header) to the server at (target, pt) and blocks p for the
// response. respSize tells the server how large its answer is on the wire.
// With a retry policy armed (SetRetry), lost requests or responses are
// retried under a per-attempt timeout with exponential backoff; the server
// deduplicates re-executions, so retried calls stay exactly-once.
func (c *Caller) Call(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64) (interface{}, error) {
	if !c.retry.Enabled() {
		return c.call(p, target, pt, req, reqSize, respSize, 0, 0)
	}
	reqID := c.ep.nextTok()
	var lastErr error
	for a := 0; a < c.retry.MaxAttempts; a++ {
		if a > 0 {
			c.retries.Inc()
			c.nodeRetries.Inc()
			p.Sleep(c.retry.Pause(a-1, c.rng))
		}
		v, err := c.call(p, target, pt, req, reqSize, respSize, c.retry.Timeout, reqID)
		if errors.Is(err, ErrCircuitOpen) {
			// Fast-fail, not a lost message: retrying would just spin on
			// the open breaker (ErrCircuitOpen wraps ErrRPCTimeout so the
			// caller's failover logic still reads it as "route around").
			return v, err
		}
		if !errors.Is(err, ErrRPCTimeout) {
			return v, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// CallTimeout is Call with a deadline and exactly one attempt; it returns
// ErrRPCTimeout if no response arrives in time. A response that arrives
// later is dropped at the reply portal and counted (LateReplies) — reply
// tokens are never reused, so a late response can never satisfy a
// different call.
func (c *Caller) CallTimeout(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64, timeout time.Duration) (interface{}, error) {
	return c.call(p, target, pt, req, reqSize, respSize, timeout, 0)
}

func (c *Caller) call(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64, timeout time.Duration, reqID uint64) (interface{}, error) {
	if c.breaker != nil && !c.breaker.Allow(target, pt) {
		return nil, ErrCircuitOpen
	}
	token := c.ep.nextTok()
	mb := sim.NewMailbox(c.ep.Kernel(), fmt.Sprintf("rpc-reply-%d", token))
	me := c.ep.AttachOnce(replyPortal, MatchBits(token), 0, &MD{EQ: mb})
	c.ep.Put(target, pt, 0, rpcRequest{Token: token, ReqID: reqID, From: c.ep.Node(), Class: c.class, Body: req, RespSize: respSize},
		netsim.SyntheticPayload(reqSize))

	var ev interface{}
	if timeout > 0 {
		v, ok := mb.RecvTimeout(p, timeout)
		if !ok {
			me.Unlink()
			// If the response is merely late (not lost), count it when it
			// finally lands instead of mistaking it for a stray message.
			c.ep.watchLate(replyPortal, MatchBits(token), func() {
				c.lateReplies.Inc()
				c.nodeLateReplies.Inc()
			})
			if c.breaker != nil {
				c.breaker.Record(target, pt, ErrRPCTimeout)
			}
			return nil, ErrRPCTimeout
		}
		ev = v
	} else {
		ev = mb.Recv(p)
	}
	resp := ev.(*Event).Hdr.(rpcResponse)
	if c.breaker != nil {
		c.breaker.Record(target, pt, resp.Err)
	}
	return resp.Body, resp.Err
}
