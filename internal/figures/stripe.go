package figures

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/txn"
)

// The stripe sweep (experiment E17): single-large-file bandwidth through
// the lwfspfs client library, old serial transfer path vs the coalesced
// parallel engine (internal/stripe), swept over server count and stripe
// unit. The serial path pays one round trip per stripe unit in file order;
// the engine plans one coalesced request per object and fans them out, so
// bandwidth should scale with servers until the client NIC saturates —
// the distribution-policy-as-a-library payoff of Figures 2/3. The serial
// path is serialFile below: lwfspfs itself has only the engine.

// StripeOpts parameterize the sweep.
type StripeOpts struct {
	Servers  []int   // storage-server counts (also the stripe width)
	Units    []int64 // stripe units in bytes
	FileMB   int64   // single file size in MB
	Trials   int
	Progress func(format string, args ...interface{}) // optional
}

func (o *StripeOpts) defaults() {
	o.Servers = orDefault(o.Servers, []int{1, 2, 4, 8, 16})
	o.Units = orDefault(o.Units, []int64{1 << 20})
	o.FileMB = cmp.Or(o.FileMB, 64)
	o.Trials = cmp.Or(o.Trials, 3)
}

// StripePoint is the measurement at one (server count, stripe unit):
// write/read bandwidth for both paths plus the storage-RPC count of one
// steady-state WriteAt call (the coalescing evidence: units vs objects).
type StripePoint struct {
	Servers int
	Unit    int64

	SerialWrite   stats.Sample // MB/s
	ParallelWrite stats.Sample // MB/s
	SerialRead    stats.Sample // MB/s
	ParallelRead  stats.Sample // MB/s

	SerialRPCs   float64 // storage RPCs per WriteAt (== stripe units)
	ParallelRPCs float64 // storage RPCs per WriteAt (== objects touched)
}

// StripeResult is the whole sweep.
type StripeResult struct {
	Opts   StripeOpts
	Points []StripePoint
}

// StripeSweep measures both transfer paths at every point.
func StripeSweep(opts StripeOpts) (StripeResult, error) {
	opts.defaults()
	res := StripeResult{Opts: opts}
	for _, servers := range opts.Servers {
		for _, unit := range opts.Units {
			point := StripePoint{Servers: servers, Unit: unit}
			for trial := 0; trial < opts.Trials; trial++ {
				for _, serial := range []bool{true, false} {
					m, err := stripeTrial(servers, unit, opts.FileMB<<20, serial, trial)
					if err != nil {
						return res, fmt.Errorf("stripe servers=%d unit=%d serial=%v trial=%d: %w",
							servers, unit, serial, trial, err)
					}
					if serial {
						point.SerialWrite.Add(m.writeMBs)
						point.SerialRead.Add(m.readMBs)
						point.SerialRPCs = float64(m.rpcs)
					} else {
						point.ParallelWrite.Add(m.writeMBs)
						point.ParallelRead.Add(m.readMBs)
						point.ParallelRPCs = float64(m.rpcs)
					}
				}
			}
			report(opts.Progress, "stripe servers=%d unit=%dKiB: write %s -> %s MB/s, read %s -> %s MB/s",
				servers, unit>>10, point.SerialWrite.String(), point.ParallelWrite.String(),
				point.SerialRead.String(), point.ParallelRead.String())
			res.Points = append(res.Points, point)
		}
	}
	return res, nil
}

// stripeMeasure is one trial's outcome for one path.
type stripeMeasure struct {
	writeMBs float64
	readMBs  float64
	rpcs     int64 // storage RPCs in one steady-state WriteAt
}

func stripeTrial(servers int, unit, bytes int64, serial bool, trial int) (stripeMeasure, error) {
	var m stripeMeasure
	spec := cluster.DevCluster().WithServers(servers)
	spec.ComputeNodes = 1
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	c := cl.NewClient(l, 0)
	// RPC counts come from the metrics registry, not per-server getters:
	// during the measured steady-state window the only served RPCs are the
	// storage data writes (caps cached, metadata write skipped, locks ride
	// their own non-RPC protocol).
	served := func() int64 {
		return int64(cl.Metrics().Snapshot().Sum("rpc.*.served"))
	}
	err := runProc(cl.K, "bench", func(p *sim.Proc) error {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			return fmt.Errorf("login: %w", err)
		}
		fs, err := lwfspfs.Format(p, c, "/stripe", lwfspfs.Options{StripeUnit: unit})
		if err != nil {
			return fmt.Errorf("format: %w", err)
		}
		f, err := fs.Create(p, fmt.Sprintf("/big%d", trial))
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		// Priming write establishes the size so the measured passes are
		// steady-state (no metadata RPC mixed into the measurement).
		if _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		var arm stripeFile = f
		if serial {
			arm = serialFile{c: c, caps: fs.Caps(), f: f}
		}
		before := served()
		t0 := p.Now()
		if _, err := arm.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		elapsed := p.Now().Sub(t0)
		m.rpcs = served() - before
		m.writeMBs = float64(bytes) / (1 << 20) / elapsed.Seconds()
		t0 = p.Now()
		if _, err := arm.ReadAt(p, 0, bytes); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		m.readMBs = float64(bytes) / (1 << 20) / p.Now().Sub(t0).Seconds()
		return nil
	})
	return m, err
}

// stripeFile is the data path one E17 arm measures.
type stripeFile interface {
	WriteAt(p *sim.Proc, off int64, payload netsim.Payload) (int64, error)
	ReadAt(p *sim.Proc, off, length int64) (netsim.Payload, error)
}

// serialFile is E17's baseline arm: the transfer path lwfspfs used before
// the striped engine, one storage RPC per stripe unit in file order, under
// the same file lock as File.WriteAt/ReadAt. It presents the mount's own
// capabilities; fresh ones would miss the storage servers' capability
// cache and slow the baseline. It moves data only: a RAID-0 layout, and
// writes within the size the file already has.
type serialFile struct {
	c    *core.Client
	caps core.CapSet
	f    *lwfspfs.File
}

func (s serialFile) WriteAt(p *sim.Proc, off int64, payload netsim.Payload) (int64, error) {
	locks := s.c.Locks()
	if err := locks.Lock(p, s.f.LockKey(), txn.Exclusive); err != nil {
		return 0, err
	}
	defer locks.Unlock(p, s.f.LockKey()) //nolint:errcheck
	var written int64
	err := eachUnit(s.f.Layout(), off, payload.Size, func(ref storage.ObjRef, objOff, cur, n int64) error {
		piece := netsim.SyntheticPayload(n)
		if payload.Data != nil {
			piece = netsim.BytesPayload(payload.Data[cur-off : cur-off+n])
		}
		w, err := s.c.Write(p, ref, s.caps, objOff, piece)
		written += w
		return err
	})
	return written, err
}

// ReadAt reads [off, off+length) truncated at the file's size, as
// File.ReadAt does.
func (s serialFile) ReadAt(p *sim.Proc, off, length int64) (netsim.Payload, error) {
	locks := s.c.Locks()
	if err := locks.Lock(p, s.f.LockKey(), txn.Shared); err != nil {
		return netsim.Payload{}, err
	}
	defer locks.Unlock(p, s.f.LockKey()) //nolint:errcheck
	if off >= s.f.Size() {
		return netsim.Payload{}, nil
	}
	length = min(length, s.f.Size()-off)
	out := netsim.Payload{Size: length}
	err := eachUnit(s.f.Layout(), off, length, func(ref storage.ObjRef, objOff, cur, n int64) error {
		piece, err := s.c.Read(p, ref, s.caps, objOff, n)
		if err != nil {
			return err
		}
		if piece.Data != nil {
			if out.Data == nil {
				out.Data = make([]byte, length)
			}
			copy(out.Data[cur-off:], piece.Data)
		}
		return nil
	})
	return out, err
}

// eachUnit calls fn for every stripe unit [cur, cur+n) of the file range
// [off, off+length), in file order, with the object holding it and the
// unit's offset in that object.
func eachUnit(l stripe.Layout, off, length int64, fn func(ref storage.ObjRef, objOff, cur, n int64) error) error {
	for cur := off; cur < off+length; {
		idx, objOff := l.Locate(cur)
		n := min(l.Unit-cur%l.Unit, off+length-cur)
		if err := fn(l.Objs[idx], objOff, cur, n); err != nil {
			return err
		}
		cur += n
	}
	return nil
}

// Render prints the sweep: the speedup columns are the engine's payoff and
// the RPC columns the coalescing evidence (units sent vs objects touched).
func (r StripeResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Striped I/O engine: single %d MB file, one client, %d trials\n",
		r.Opts.FileMB, r.Opts.Trials)
	fmt.Fprintln(w, "# serial = one RPC per stripe unit; parallel = one coalesced request per object, concurrent fan-out")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "servers\tunit\twrite serial\twrite parallel\tspeedup\tread serial\tread parallel\tspeedup\tRPCs/write serial->parallel")
	for _, pt := range r.Points {
		ws, wp := pt.SerialWrite.Mean(), pt.ParallelWrite.Mean()
		rs, rp := pt.SerialRead.Mean(), pt.ParallelRead.Mean()
		speed := func(a, b float64) string {
			if a <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1fx", b/a)
		}
		fmt.Fprintf(tw, "%d\t%dKiB\t%.0f MB/s\t%.0f MB/s\t%s\t%.0f MB/s\t%.0f MB/s\t%s\t%.0f -> %.0f\n",
			pt.Servers, pt.Unit>>10, ws, wp, speed(ws, wp), rs, rp, speed(rs, rp),
			pt.SerialRPCs, pt.ParallelRPCs)
	}
	tw.Flush()
}
