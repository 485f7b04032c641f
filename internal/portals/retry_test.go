package portals

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// quickRetry keeps virtual times short in tests.
var quickRetry = RetryPolicy{
	MaxAttempts: 3,
	Timeout:     10 * time.Millisecond,
	Backoff:     time.Millisecond,
	MaxBackoff:  4 * time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

func TestCallRetriesThroughDropWindow(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	var calls int
	Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		calls++
		return req.(int) * 2, nil
	})
	// Drop everything for the first 15ms: the first attempt's request
	// vanishes; the retry (after timeout + backoff) goes through.
	r.net.InjectFault(netsim.FaultSpec{End: sim.Time(0).Add(15 * time.Millisecond), DropProb: 1})
	c := NewCaller(r.eps[0])
	c.SetRetry(quickRetry, sim.NewRand(1))
	var got interface{}
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		got, err = c.Call(p, r.eps[1].Node(), 5, 21, 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || got.(int) != 42 {
		t.Fatalf("got %v, %v", got, err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times", calls)
	}
	if c.Retries() == 0 {
		t.Fatal("expected at least one retry")
	}
}

func TestRetryExhaustionReturnsTimeout(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		return nil, nil
	})
	r.net.Partition([]netsim.NodeID{r.eps[0].Node()}, []netsim.NodeID{r.eps[1].Node()})
	c := NewCaller(r.eps[0])
	c.SetRetry(quickRetry, sim.NewRand(1))
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		_, err = c.Call(p, r.eps[1].Node(), 5, "x", 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerDedupsSlowRequestRetries(t *testing.T) {
	// The handler is slower (30ms) than the retry budget's per-attempt
	// timeout (10ms), so the client re-sends twice while the original
	// execution is still running. The server must run the handler ONCE and
	// answer the final attempt's token from the original execution.
	r := newRig(t, 2, 100*mb)
	var calls int
	srv := Serve(r.eps[1], 5, "svc", 4, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		calls++
		p.Sleep(30 * time.Millisecond)
		return "done", nil
	})
	c := NewCaller(r.eps[0])
	c.SetRetry(quickRetry, sim.NewRand(1))
	var got interface{}
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		got, err = c.Call(p, r.eps[1].Node(), 5, "op", 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || got.(string) != "done" {
		t.Fatalf("got %v, %v", got, err)
	}
	if calls != 1 {
		t.Fatalf("non-idempotent handler ran %d times", calls)
	}
	if srv.Deduped() != 2 {
		t.Fatalf("deduped = %d, want 2", srv.Deduped())
	}
	// The first two attempts' replies eventually landed after their
	// timeouts: dropped and counted, never delivered to a live call.
	if c.LateReplies() != 2 {
		t.Fatalf("late replies = %d, want 2", c.LateReplies())
	}
}

func TestLateReplyAfterCallTimeoutIsCountedNotDelivered(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	Serve(r.eps[1], 5, "svc", 2, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		if req.(string) == "slow" {
			p.Sleep(50 * time.Millisecond)
		}
		return "resp:" + req.(string), nil
	})
	c := NewCaller(r.eps[0])
	var first, second interface{}
	var err1, err2 error
	r.k.Spawn("client", func(p *sim.Proc) {
		// Times out at 5ms; its reply arrives ~50ms, long after the next
		// call is in flight.
		first, err1 = c.CallTimeout(p, r.eps[1].Node(), 5, "slow", 64, 64, 5*time.Millisecond)
		second, err2 = c.Call(p, r.eps[1].Node(), 5, "fast", 64, 64)
		// Park past the late reply's arrival so the drop is observable.
		p.Sleep(100 * time.Millisecond)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err1, ErrRPCTimeout) || first != nil {
		t.Fatalf("first = %v, %v", first, err1)
	}
	if err2 != nil || second.(string) != "resp:fast" {
		t.Fatalf("second call corrupted by late reply: %v, %v", second, err2)
	}
	if c.LateReplies() != 1 {
		t.Fatalf("late replies = %d, want 1", c.LateReplies())
	}
	if r.eps[0].lateDrops.Value() != 1 {
		t.Fatalf("endpoint late drops = %d, want 1", r.eps[0].lateDrops.Value())
	}
}

func TestServerDownDiscardsAndRestartServes(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	srv := Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		return "ok", nil
	})
	c := NewCaller(r.eps[0])
	c.SetRetry(RetryPolicy{MaxAttempts: 8, Timeout: 5 * time.Millisecond, Backoff: 2 * time.Millisecond}, sim.NewRand(1))
	srv.SetDown(true)
	r.k.After(20*time.Millisecond, func() { srv.SetDown(false) })
	var got interface{}
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		got, err = c.Call(p, r.eps[1].Node(), 5, "x", 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || got.(string) != "ok" {
		t.Fatalf("got %v, %v", got, err)
	}
	if srv.discarded.Value() == 0 {
		t.Fatal("expected discarded requests while down")
	}
}

func TestCrashSuppressesInFlightReply(t *testing.T) {
	// A handler that is mid-execution when the server crashes must not leak
	// its reply after the crash — even if the server restarts first.
	r := newRig(t, 2, 100*mb)
	srv := Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(10 * time.Millisecond)
		return "stale", nil
	})
	r.k.After(5*time.Millisecond, func() { srv.SetDown(true) })
	r.k.After(7*time.Millisecond, func() { srv.SetDown(false) })
	c := NewCaller(r.eps[0])
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		_, err = c.CallTimeout(p, r.eps[1].Node(), 5, "x", 64, 64, 30*time.Millisecond)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v, want timeout (reply suppressed)", err)
	}
	if srv.Served() != 0 {
		t.Fatalf("served = %d, want 0", srv.Served())
	}
}

func TestGetRetryRidesOutDropWindow(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.BytesPayload([]byte("abcdefgh"))})
	r.eps[0].SetGetRetry(quickRetry, sim.NewRand(1))
	r.net.InjectFault(netsim.FaultSpec{End: sim.Time(0).Add(15 * time.Millisecond), DropProb: 1})
	var got netsim.Payload
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		got, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 0, 8)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || string(got.Data) != "abcdefgh" {
		t.Fatalf("got %q, %v", got.Data, err)
	}
}

func TestGetRetryExhaustionReturnsError(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.SyntheticPayload(64)})
	r.eps[0].SetGetRetry(quickRetry, sim.NewRand(1))
	r.net.Partition([]netsim.NodeID{r.eps[0].Node()}, []netsim.NodeID{r.eps[1].Node()})
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		_, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 0, 8)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrGetTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestPauseUncappedBackoffGrows(t *testing.T) {
	// MaxBackoff == 0 documents "uncapped": the backoff must still double
	// per attempt instead of sticking at Backoff.
	pol := RetryPolicy{MaxAttempts: 6, Timeout: time.Millisecond, Backoff: time.Millisecond}
	for a, want := 0, time.Millisecond; a < 5; a, want = a+1, want*2 {
		if got := pol.Pause(a, nil); got != want {
			t.Fatalf("attempt %d: pause = %v, want %v", a, got, want)
		}
	}
	capped := pol
	capped.MaxBackoff = 3 * time.Millisecond
	if got := capped.Pause(4, nil); got != 3*time.Millisecond {
		t.Fatalf("capped pause = %v, want %v", got, 3*time.Millisecond)
	}
}

func TestDedupEvictionSkipsInFlightEntries(t *testing.T) {
	// With the dedup table full of newer completed entries, an in-flight
	// execution must never be evicted: a retransmission of it has to find
	// the original's future, or a non-idempotent handler would run twice.
	r := newRig(t, 2, 100*mb)
	calls := make(map[string]int)
	srv := Serve(r.eps[1], 5, "svc", 4, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		calls[req.(string)]++
		if req.(string) == "slow" {
			p.Sleep(40 * time.Millisecond)
		}
		return "ok", nil
	})
	srv.dedupCap = 1
	// Swallow replies: this test drives raw requests, not a Caller.
	r.eps[0].Attach(replyPortal, 0, ^MatchBits(0), &MD{EQ: sim.NewMailbox(r.k, "replies")})
	me := r.eps[0].Node()
	r.k.Spawn("driver", func(p *sim.Proc) {
		put := func(tok, reqID uint64, body string) {
			r.eps[0].Put(r.eps[1].Node(), 5, 0,
				rpcRequest{Token: tok, ReqID: reqID, From: me, Body: body, RespSize: 0},
				netsim.SyntheticPayload(64))
		}
		put(1, 100, "slow") // starts a 40ms execution
		p.Sleep(5 * time.Millisecond)
		put(2, 101, "fast1") // completes; its insert must not evict "slow"
		p.Sleep(5 * time.Millisecond)
		put(3, 102, "fast2") // pushes the table past cap again
		p.Sleep(5 * time.Millisecond)
		put(4, 100, "slow") // retransmission while the original still runs
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if calls["slow"] != 1 {
		t.Fatalf("non-idempotent in-flight handler ran %d times after eviction pressure", calls["slow"])
	}
	if srv.Deduped() != 1 {
		t.Fatalf("deduped = %d, want 1", srv.Deduped())
	}
}
