package portals

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

const mb = 1 << 20

type rig struct {
	k   *sim.Kernel
	net *netsim.Network
	eps []*Endpoint
}

func newRig(t *testing.T, nodes int, bw float64) *rig {
	if t != nil {
		t.Helper()
	}
	k := sim.NewKernel()
	net := netsim.New(k, 5*time.Microsecond)
	r := &rig{k: k, net: net}
	for i := 0; i < nodes; i++ {
		nd := net.AddNode(fmt.Sprintf("n%d", i), netsim.Config{EgressBW: bw, IngressBW: bw})
		r.eps = append(r.eps, NewEndpoint(net, nd))
	}
	return r
}

func TestPutDeliversEvent(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	eq := sim.NewMailbox(r.k, "eq")
	r.eps[1].Attach(7, 42, 0, &MD{EQ: eq})
	var got *Event
	r.k.Spawn("recv", func(p *sim.Proc) { got = eq.Recv(p).(*Event) })
	r.k.Spawn("send", func(p *sim.Proc) {
		r.eps[0].Put(r.eps[1].Node(), 7, 42, "hdr", netsim.BytesPayload([]byte("payload")))
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Type != EventPut || got.Hdr.(string) != "hdr" ||
		string(got.Payload.Data) != "payload" || got.Initiator != r.eps[0].Node() {
		t.Fatalf("event = %+v", got)
	}
}

func TestPutNoMatchDropped(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[0].Put(r.eps[1].Node(), 9, 1, nil, netsim.SyntheticPayload(10))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.eps[1].dropped.Value() != 1 {
		t.Fatalf("dropped = %d", r.eps[1].dropped.Value())
	}
}

func TestMatchBitsAndIgnore(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	eqA := sim.NewMailbox(r.k, "a")
	eqB := sim.NewMailbox(r.k, "b")
	// Entry A matches exactly bits 5; entry B matches anything (ignore all).
	r.eps[1].Attach(3, 5, 0, &MD{EQ: eqA})
	r.eps[1].Attach(3, 0, ^MatchBits(0), &MD{EQ: eqB})
	r.eps[0].Put(r.eps[1].Node(), 3, 5, nil, netsim.SyntheticPayload(1))
	r.eps[0].Put(r.eps[1].Node(), 3, 6, nil, netsim.SyntheticPayload(1))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if eqA.Len() != 1 || eqB.Len() != 1 {
		t.Fatalf("eqA=%d eqB=%d", eqA.Len(), eqB.Len())
	}
}

func TestAttachOnceUnlinksAfterFirstMatch(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	eq := sim.NewMailbox(r.k, "eq")
	r.eps[1].AttachOnce(3, 5, 0, &MD{EQ: eq})
	r.eps[0].Put(r.eps[1].Node(), 3, 5, nil, netsim.SyntheticPayload(1))
	r.eps[0].Put(r.eps[1].Node(), 3, 5, nil, netsim.SyntheticPayload(1))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if eq.Len() != 1 || r.eps[1].dropped.Value() != 1 {
		t.Fatalf("eq=%d dropped=%d", eq.Len(), r.eps[1].dropped.Value())
	}
}

func TestGetPullsRealBytes(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	data := []byte("0123456789abcdef")
	r.eps[1].Attach(4, 77, 0, &MD{Payload: netsim.BytesPayload(data)})
	var got netsim.Payload
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		got, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 77, 4, 8)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("456789ab")) || got.Size != 8 {
		t.Fatalf("got %q size %d", got.Data, got.Size)
	}
}

func TestGetSyntheticPayload(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.SyntheticPayload(512 * mb)})
	var got netsim.Payload
	r.k.Spawn("getter", func(p *sim.Proc) {
		var err error
		got, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 128*mb, 4*mb)
		if err != nil {
			t.Errorf("get: %v", err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got.Size != 4*mb || got.Data != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestGetTimingChargesDataOnReplyPath(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.SyntheticPayload(100 * mb)})
	var elapsed time.Duration
	r.k.Spawn("getter", func(p *sim.Proc) {
		start := p.Now()
		if _, err := r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 0, 100*mb); err != nil {
			t.Errorf("get: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// Request ~free; reply: 1s egress + latency + 1s ingress ≈ 2s.
	if elapsed < 2*time.Second || elapsed > 2*time.Second+time.Millisecond {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestGetNoMatchError(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		_, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 9, 0, 16)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err == nil || err.Error() != ErrNoMatch.Error() {
		t.Fatalf("err = %v", err)
	}
}

func TestGetBoundsError(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.SyntheticPayload(100)})
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		_, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 90, 20)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err == nil || err.Error() != ErrBounds.Error() {
		t.Fatalf("err = %v", err)
	}
}

func TestGetEventNotifiesOwner(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	eq := sim.NewMailbox(r.k, "eq")
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.SyntheticPayload(1000), EQ: eq})
	r.k.Spawn("getter", func(p *sim.Proc) {
		if _, err := r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 100, 200); err != nil {
			t.Errorf("get: %v", err)
		}
	})
	var ev *Event
	r.k.Spawn("owner", func(p *sim.Proc) { ev = eq.Recv(p).(*Event) })
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Type != EventGet || ev.Offset != 100 || ev.Length != 200 {
		t.Fatalf("ev = %+v", ev)
	}
}

func TestEcho(t *testing.T) {
	r := newRig(t, 2, 1000*mb)
	r.eps[1].ServeEcho()
	var rtt time.Duration
	r.k.Spawn("pinger", func(p *sim.Proc) {
		var err error
		rtt, err = r.eps[0].Echo(p, r.eps[1].Node())
		if err != nil {
			t.Errorf("echo: %v", err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// RTT at least 2x latency.
	if rtt < 10*time.Microsecond || rtt > 100*time.Microsecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	Serve(r.eps[1], 10, "adder", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		return req.(int) + 1, nil
	})
	c := NewCaller(r.eps[0])
	var got int
	r.k.Spawn("client", func(p *sim.Proc) {
		v, err := c.Call(p, r.eps[1].Node(), 10, 41, 64, 64)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		got = v.(int)
	})
	if err := r.k.Run(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestRPCErrorPropagates(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	boom := errors.New("boom")
	Serve(r.eps[1], 10, "failer", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		return nil, boom
	})
	c := NewCaller(r.eps[0])
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		_, err = c.Call(p, r.eps[1].Node(), 10, nil, 64, 64)
	})
	if e := r.k.Run(sim.Time(time.Minute)); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCServerSerializesWithOneThread(t *testing.T) {
	r := newRig(t, 3, 1000*mb)
	Serve(r.eps[2], 10, "slow", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(10 * time.Millisecond)
		return nil, nil
	})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		c := NewCaller(r.eps[i])
		r.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			if _, err := c.Call(p, r.eps[2].Node(), 10, nil, 64, 64); err != nil {
				t.Errorf("call: %v", err)
			}
			done[i] = p.Now()
		})
	}
	if err := r.k.Run(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	d0, d1 := done[0].Duration(), done[1].Duration()
	if d1 < d0 {
		d0, d1 = d1, d0
	}
	if d0 < 10*time.Millisecond || d1 < 20*time.Millisecond {
		t.Fatalf("done = %v %v", done[0], done[1])
	}
}

func TestRPCTimeout(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	Serve(r.eps[1], 10, "sleeper", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(time.Hour)
		return nil, nil
	})
	c := NewCaller(r.eps[0])
	var err error
	var elapsed time.Duration
	r.k.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		_, err = c.CallTimeout(p, r.eps[1].Node(), 10, nil, 64, 64, time.Second)
		elapsed = p.Now().Sub(start)
	})
	// The sleeping worker keeps an event pending until the hour passes;
	// limit the run so the test stays fast.
	if e := r.k.Run(sim.Time(2 * time.Hour)); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRPCTimeout) || elapsed != time.Second {
		t.Fatalf("err=%v elapsed=%v", err, elapsed)
	}
}

func TestUnlinkRemovesEntry(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	eq := sim.NewMailbox(r.k, "eq")
	me := r.eps[1].Attach(3, 5, 0, &MD{EQ: eq})
	me.Unlink()
	me.Unlink() // idempotent
	r.eps[0].Put(r.eps[1].Node(), 3, 5, nil, netsim.SyntheticPayload(1))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if eq.Len() != 0 || r.eps[1].dropped.Value() != 1 {
		t.Fatalf("eq=%d dropped=%d", eq.Len(), r.eps[1].dropped.Value())
	}
}

// Property: Get round-trips arbitrary offsets/lengths of a real buffer
// exactly, and rejects anything out of bounds.
func TestGetRoundTripProperty(t *testing.T) {
	prop := func(data []byte, off, ln uint16) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		offset := int64(off) % int64(len(data))
		length := int64(ln) % (int64(len(data)) - offset + 1)
		r := newRig(nil, 2, 100*mb)
		r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.BytesPayload(data)})
		okc := make(chan bool, 1)
		r.k.Spawn("getter", func(p *sim.Proc) {
			got, err := r.eps[0].Get(p, r.eps[1].Node(), 4, 1, offset, length)
			okc <- err == nil && got.Size == length && bytes.Equal(got.Data, data[offset:offset+length])
		})
		if err := r.k.Run(sim.MaxTime); err != nil {
			return false
		}
		return <-okc
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
