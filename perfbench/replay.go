package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/trace"
)

// The replay workload: experiment E24's seismic trace replayed through the
// full client stack (stdfs → lwfspfs → stripe → core) by replayWorkers
// workers, one per compute node, running replayClones clones over 8
// servers. It is the only workload that exercises the client library and
// the strided read path, and the only one that re-reads data.
const (
	replayWorkers = 16
	replayClones  = 16
	replayServers = 8
	// replaySeeded is how many of the trace's 256 KiB writes the seed
	// turns into real, seeded content, which the check reads back.
	replaySeeded = 8
	replayUnit   = 256 << 10
)

// replayOps are the trace.Mount and trace.File calls the traced run
// wraps in spans.
var replayOps = []string{"mkdir", "create", "open", "read", "write", "close"}

var replayWorkload = workload{
	name:        "replay",
	units:       3,
	unitSeconds: 10,
	setup:       setupReplay,
	spanLayers:  replaySpanLayers,
}

// seededTrace returns the seismic trace with replaySeeded of its 256 KiB
// writes, chosen by the seed among those no later write overlaps, given
// seeded content. It also returns the indexes of those writes.
func seededTrace(seed int64) (*trace.Trace, []int, error) {
	base, err := trace.Example("seismic")
	if err != nil {
		return nil, nil, err
	}
	tr := &trace.Trace{Events: append([]trace.Event(nil), base.Events...)}
	var cand []int
	for i, ev := range tr.Events {
		if ev.Op == trace.OpWrite && ev.Len == replayUnit && !overwritten(tr.Events[i+1:], ev) {
			cand = append(cand, i)
		}
	}
	if len(cand) < replaySeeded {
		return nil, nil, fmt.Errorf("seismic trace has %d candidate writes, need %d", len(cand), replaySeeded)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	picked := cand[:replaySeeded]
	for _, i := range picked {
		tr.Events[i].Seed = rng.Uint64() | 1
	}
	return tr, picked, nil
}

func overwritten(later []trace.Event, w trace.Event) bool {
	for _, ev := range later {
		if ev.Op == trace.OpWrite && ev.Path == w.Path && ev.Off < w.Off+w.Len && w.Off < ev.Off+ev.Len {
			return true
		}
	}
	return false
}

func setupReplay(seed int64, tr *tracer) (*unit, error) {
	input, seeded, err := seededTrace(seed)
	if err != nil {
		return nil, err
	}
	spec := cluster.DevCluster()
	spec.ComputeNodes = replayWorkers
	spec.ServersPerNode = 1
	spec = spec.WithServers(replayServers)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	lw := cl.DeployLWFS()
	clients := make([]*core.Client, replayWorkers)
	for i := range clients {
		clients[i] = cl.NewClient(lw, i)
	}
	verifier := cl.NewClient(lw, 0)
	setupC := cl.NewClient(lw, 0)
	rng := rand.New(rand.NewSource(seed))
	jitter := make([]time.Duration, replayWorkers)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Int63n(int64(time.Millisecond)))
	}

	var pfs *lwfspfs.FS
	var setupErr error
	cl.Spawn("replay-setup", func(p *sim.Proc) {
		if setupErr = setupC.Login(p, "app", "s3cret"); setupErr != nil {
			return
		}
		pfs, setupErr = lwfspfs.Format(p, setupC, "/replay", lwfspfs.Options{StripeUnit: 64 << 10})
	})
	if err := cl.Run(); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("format: %w", setupErr)
	}
	container := pfs.Container()

	var res *trace.Result
	var root int32
	next := 0
	mount := func(p *sim.Proc) (trace.Mount, error) {
		w := next
		next++
		p.Sleep(jitter[w])
		c := clients[w]
		if err := c.Login(p, "app", "s3cret"); err != nil {
			return nil, err
		}
		fs, err := lwfspfs.Mount(p, c, "/replay", container)
		if err != nil {
			return nil, err
		}
		m := stdfs.New(p, fs).ReplayMount()
		if tr == nil {
			return m, nil
		}
		return &spanMount{inner: m, p: p, tr: tr, root: root, seen: map[string][][2]int64{}}, nil
	}
	run := func() error {
		root = tr.begin("replay.unit", 0, cl.K.Now())
		res = trace.StartReplay(cl.K, input, mount, trace.Options{
			Concurrency: replayWorkers,
			Clones:      replayClones,
			Metrics:     cl.Metrics(),
		})
		err := cl.Run()
		tr.end(root, res.End)
		return err
	}
	check := func(r *unitResult) error {
		r.ops, r.failed = res.Ops, res.Errors
		r.virt = res.Elapsed()
		r.lat = res.OpMs
		r.layer["trace.replay.MBps"] = res.MBps()
		if err := verifyReplay(res, input, replayClones); err != nil {
			return err
		}
		got := make([][]byte, 0, replayClones*len(seeded))
		var readErr error
		cl.Spawn("replay-verify", func(p *sim.Proc) {
			if readErr = verifier.Login(p, "app", "s3cret"); readErr != nil {
				return
			}
			fs, err := lwfspfs.Mount(p, verifier, "/replay", container)
			if err != nil {
				readErr = err
				return
			}
			got, readErr = readExtents(stdfs.New(p, fs), input, seeded, replayClones)
		})
		if err := cl.Run(); err != nil {
			return err
		}
		if readErr != nil {
			return fmt.Errorf("reading back seeded extents: %w", readErr)
		}
		return verifyExtents(input, seeded, replayClones, got)
	}
	return &unit{cl: cl, lw: lw, run: run, check: check}, nil
}

// verifyReplay checks the replay's accounting: no errors, every op of
// every clone executed, and every payload byte moved.
func verifyReplay(res *trace.Result, tr *trace.Trace, clones int) error {
	if res.Errors != 0 {
		return fmt.Errorf("replay had %d errors, first: %v", res.Errors, res.Err())
	}
	if want := clones * len(tr.Events); res.Ops != want {
		return fmt.Errorf("replay ran %d ops, want %d", res.Ops, want)
	}
	if want := int64(clones) * tr.Payload(); res.Bytes != want {
		return fmt.Errorf("replay moved %d bytes, want %d", res.Bytes, want)
	}
	return nil
}

// readExtents reads every seeded extent of every clone back through
// stdfs's io.ReaderAt, in clone order.
func readExtents(fsys *stdfs.FS, tr *trace.Trace, seeded []int, clones int) ([][]byte, error) {
	var out [][]byte
	for ci := 0; ci < clones; ci++ {
		for _, i := range seeded {
			ev := tr.Events[i]
			f, err := fsys.OpenFile(fmt.Sprintf("r%d%s", ci, ev.Path))
			if err != nil {
				return nil, err
			}
			buf := make([]byte, ev.Len)
			_, err = f.ReadAt(buf, ev.Off)
			f.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, buf)
		}
	}
	return out, nil
}

// verifyExtents compares what readExtents read with the content each
// seeded write regenerates from its seed (ReadDiscard never checks it).
func verifyExtents(tr *trace.Trace, seeded []int, clones int, got [][]byte) error {
	if len(got) != clones*len(seeded) {
		return fmt.Errorf("read back %d extents, want %d", len(got), clones*len(seeded))
	}
	for k, b := range got {
		ev := tr.Events[seeded[k%len(seeded)]]
		if !bytes.Equal(b, trace.DataFor(ev.Seed, ev.Len)) {
			return fmt.Errorf("clone %d %s@%d: content differs from its seed", k/len(seeded), ev.Path, ev.Off)
		}
	}
	return nil
}

// spanMount wraps one worker's replay mount in the traced run: a span per
// call, parented to the unit, and a count of the read bytes this mount had
// already read or written — what a client-side cache could have served.
type spanMount struct {
	inner trace.Mount
	p     *sim.Proc
	tr    *tracer
	root  int32
	seen  map[string][][2]int64 // extents read or written, per file
}

func (m *spanMount) span(op string, fn func() error) error {
	s := m.tr.begin("stdfs."+op, m.root, m.p.Now())
	err := fn()
	m.tr.end(s, m.p.Now())
	return err
}

func (m *spanMount) Mkdir(name string) error {
	return m.span("mkdir", func() error { return m.inner.Mkdir(name) })
}

func (m *spanMount) Remove(name string) error {
	return m.span("remove", func() error { return m.inner.Remove(name) })
}

func (m *spanMount) Create(name string) (f trace.File, err error) {
	err = m.span("create", func() error { f, err = m.inner.Create(name); return err })
	return m.wrap(name, f, err)
}

func (m *spanMount) OpenFile(name string) (f trace.File, err error) {
	err = m.span("open", func() error { f, err = m.inner.OpenFile(name); return err })
	return m.wrap(name, f, err)
}

func (m *spanMount) wrap(name string, f trace.File, err error) (trace.File, error) {
	if err != nil {
		return nil, err
	}
	return &spanFile{inner: f, m: m, name: name}, nil
}

type spanFile struct {
	inner trace.File
	m     *spanMount
	name  string
}

// touch records [off, off+n) as seen and returns how much of it was
// already seen.
func (f *spanFile) touch(off, n int64) int64 {
	ext := f.m.seen[f.name]
	already := covered(append([][2]int64(nil), ext...), off, off+n)
	f.m.seen[f.name] = append(ext, [2]int64{off, off + n})
	return already
}

func (f *spanFile) WriteSeeded(off, length int64, seed uint64) (n int64, err error) {
	err = f.m.span("write", func() error { n, err = f.inner.WriteSeeded(off, length, seed); return err })
	f.touch(off, n)
	return n, err
}

func (f *spanFile) WriteSynthetic(off, length int64) (n int64, err error) {
	err = f.m.span("write", func() error { n, err = f.inner.WriteSynthetic(off, length); return err })
	f.touch(off, n)
	return n, err
}

func (f *spanFile) ReadDiscard(off, length int64) (n int64, err error) {
	err = f.m.span("read", func() error { n, err = f.inner.ReadDiscard(off, length); return err })
	f.m.tr.count("stdfs.read_bytes", n)
	f.m.tr.count("stdfs.reread_bytes", f.touch(off, n))
	return n, err
}

func (f *spanFile) Sync() error {
	return f.m.span("sync", f.inner.Sync)
}

func (f *spanFile) Close() error {
	return f.m.span("close", f.inner.Close)
}

// replaySpanLayers reports the client-stack spans per op and the RPCs
// each replayed op cost.
func replaySpanLayers(tr *tracer, m map[string]float64) {
	for _, op := range replayOps {
		spanStats(tr, "stdfs."+op, m)
	}
	if rd := tr.counts["stdfs.read_bytes"]; rd > 0 {
		m["stdfs.reread_frac"] = float64(tr.counts["stdfs.reread_bytes"]) / float64(rd)
	}
	if ops := m["trace.replay.ops"]; ops > 0 {
		m["stdfs.rpcs_per_op"] = m["portals.rpcs"] / ops
	}
}
