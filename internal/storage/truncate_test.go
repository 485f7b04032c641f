package storage_test

import (
	"errors"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

func TestTruncate(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload([]byte("keep-and-cut"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := sc.Truncate(p, ref, s.caps[authz.OpWrite], 4); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		st, _ := sc.Stat(p, ref, s.caps[authz.OpRead])
		if st.Size != 4 {
			t.Fatalf("size after truncate = %d", st.Size)
		}
		got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 100)
		if err != nil || string(got.Data) != "keep" {
			t.Fatalf("read after truncate: %q %v", got.Data, err)
		}
		// Truncate needs a write capability.
		if err := sc.Truncate(p, ref, s.caps[authz.OpRead], 0); !errors.Is(err, storage.ErrWrongOp) {
			t.Errorf("truncate with read cap: %v", err)
		}
		// Negative size rejected.
		if err := sc.Truncate(p, ref, s.caps[authz.OpWrite], -1); !errors.Is(err, storage.ErrBadRange) {
			t.Errorf("negative truncate: %v", err)
		}
	})
	r.Run(t)
}

// TestNegativeRangeRejected: a write or read with a negative offset or
// length is an error answer, not a crash of the storage worker, and the
// server keeps serving.
func TestNegativeRangeRejected(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		wcap, rcap := s.caps[authz.OpWrite], s.caps[authz.OpRead]
		if _, err := sc.Write(p, ref, wcap, -3, netsim.BytesPayload([]byte("abc"))); !errors.Is(err, storage.ErrBadRange) {
			t.Errorf("write at -3: %v", err)
		}
		if _, err := sc.Write(p, ref, wcap, 0, netsim.Payload{Size: -1}); !errors.Is(err, storage.ErrBadRange) {
			t.Errorf("write of length -1: %v", err)
		}
		if _, err := sc.Read(p, ref, rcap, -3, 10); !errors.Is(err, storage.ErrBadRange) {
			t.Errorf("read at -3: %v", err)
		}
		if _, err := sc.Read(p, ref, rcap, 0, -1); !errors.Is(err, storage.ErrBadRange) {
			t.Errorf("read of length -1: %v", err)
		}
		if _, err := sc.Write(p, ref, wcap, 0, netsim.BytesPayload([]byte("still here"))); err != nil {
			t.Fatalf("write after rejected ranges: %v", err)
		}
		if got, err := sc.Read(p, ref, rcap, 0, 100); err != nil || string(got.Data) != "still here" {
			t.Fatalf("read after rejected ranges: %q %v", got.Data, err)
		}
	})
	r.Run(t)
}
