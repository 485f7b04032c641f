// Package lwfspfs is the paper's §6 short-term future work, built: a
// traditional parallel file system implemented *entirely as a client
// library* over the LWFS-core. Nothing here required changing a single
// core service — which is the point of the open-architecture argument
// (§3, guideline 4):
//
//   - The namespace is the LWFS naming service.
//   - A file is a metadata object (superblock-style layout record) plus
//     data objects striped over the storage servers — RAID-0 by default,
//     or a redundant scheme (N-way replicas, XOR parity) chosen at Format
//     time; placement and transfer planning live in internal/stripe, plain
//     library code any application could replace.
//   - POSIX write atomicity comes from the LWFS lock service: writers take
//     the file's exclusive lock, readers its shared lock. Applications
//     that don't want that pay nothing for it — the checkpoint library
//     never touches a lock.
//
// Data moves through the striped-layout engine: a WriteAt/ReadAt spanning M
// servers issues one coalesced request per object and runs them
// concurrently, so the transfer pays ~one round trip instead of M serial
// ones. Options.Serial retains the historical per-unit serial path as a
// measurement baseline (figures.StripeSweep, experiment E17).
//
// The companion example examples/posixfs runs it end to end.
package lwfspfs

import (
	"errors"
	"fmt"
	"strings"

	"lwfs/internal/authz"
	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/txn"
)

// Options tune a file system instance. StripeUnit, Stripes, Scheme and
// Copies persist in the superblock; Serial and Window are per-mount runtime
// knobs.
type Options struct {
	StripeUnit int64 // bytes per stripe chunk (default 1 MiB)
	Stripes    int   // data columns per file (default: as many as servers allow)

	// Scheme selects the per-file redundancy layout: stripe.Raid0 (the
	// default, no redundancy), stripe.Replica (Copies mirrors of every
	// column), or stripe.Parity (one XOR parity object per file). Files
	// under a redundant scheme survive a storage-server crash: reads
	// reconstruct transparently and FS.Rebuild re-homes the lost objects.
	Scheme stripe.Scheme
	// Copies is the replica count for stripe.Replica (default 2).
	Copies int

	// MetaCopies is the number of mirrors of the per-file metadata object
	// (the layout record). It defaults to 2 under a redundant scheme and
	// 1 under RAID-0 — mirroring the layout record of a file whose data
	// dies with the first crash buys nothing. Persisted in the superblock.
	MetaCopies int

	// Serial selects the legacy one-RPC-per-stripe-unit transfer path
	// instead of the coalesced parallel engine — the baseline arm of the
	// E17 comparison. Redundant layouts always use the engine (the serial
	// path knows nothing about mirrors or parity). Not persisted.
	Serial bool
	// Window bounds the engine's in-flight requests per call
	// (default stripe.DefaultWindow). Not persisted.
	Window int
}

func (o Options) withDefaults(servers int) Options {
	if o.StripeUnit == 0 {
		o.StripeUnit = 1 << 20
	}
	if o.Scheme == stripe.Replica && o.Copies < 2 {
		o.Copies = 2
	}
	if o.MetaCopies == 0 {
		if o.Scheme == stripe.Raid0 {
			o.MetaCopies = 1
		} else {
			o.MetaCopies = 2
		}
	}
	if o.MetaCopies < 1 {
		o.MetaCopies = 1
	}
	// Default width leaves room for the redundancy so each object of a
	// file lands on its own server when the cluster is big enough.
	width := servers
	switch o.Scheme {
	case stripe.Replica:
		width = servers / o.Copies
	case stripe.Parity:
		width = servers - 1
	}
	if width < 1 {
		width = 1
	}
	if o.Stripes == 0 || o.Stripes > width {
		o.Stripes = width
	}
	return o
}

// objectsPerFile is how many objects a Create allocates under the options.
func (o Options) objectsPerFile() int {
	switch o.Scheme {
	case stripe.Replica:
		return o.Stripes * o.Copies
	case stripe.Parity:
		return o.Stripes + 1
	}
	return o.Stripes
}

// FS is a mounted file system: a container, its capabilities, and a root
// directory in the naming service.
type FS struct {
	c    *core.Client
	root string
	cid  authz.ContainerID
	caps core.CapSet
	opts Options
	eng  *stripe.Engine

	degradedOpens *metrics.Counter // opens served by a non-primary metadata mirror
	mirrorsStale  *metrics.Counter // mirrors absorbed by a tolerant metadata flush
	metaRehomed   *metrics.Counter // metadata mirrors re-homed by Rebuild
	metaScope     metrics.Scope    // "pfs.meta", for the per-slot open counters
}

// initMetrics binds the metadata-redundancy instruments on the mounting
// client's registry.
func (fs *FS) initMetrics() {
	mm := fs.c.Endpoint().Metrics().Scope("pfs").Scope("meta")
	fs.metaScope = mm
	fs.degradedOpens = mm.Counter("degraded_opens")
	fs.mirrorsStale = mm.Counter("mirrors_stale")
	fs.metaRehomed = fs.c.Endpoint().Metrics().Scope("rebuild").Counter("meta_rehomed")
}

// countOpenSlot records which naming-entry slot served an open, under
// pfs.meta.open_slot.<slot> — the load-balance evidence that rotation
// spreads healthy opens across the mirror set. Single-mirror files are not
// counted; there is nothing to balance.
func (fs *FS) countOpenSlot(slot int) {
	fs.metaScope.Counter(fmt.Sprintf("open_slot.%d", slot)).Inc()
}

// mirrorStart picks where this client starts walking an n-mirror set: its
// node id modulo n. Different clients therefore favor different mirrors,
// spreading healthy open load, while one client is self-consistent — the
// mirror its Create handle calls primary is the one its Opens try first.
func (fs *FS) mirrorStart(n int) int {
	if n < 2 {
		return 0
	}
	return int(fs.c.Node()) % n
}

// rotateRefs returns refs rotated left by start (a copy; refs is shared
// with the naming entry).
func rotateRefs(refs []storage.ObjRef, start int) []storage.ObjRef {
	if start == 0 {
		return refs
	}
	out := make([]storage.ObjRef, 0, len(refs))
	out = append(out, refs[start:]...)
	return append(out, refs[:start]...)
}

// Format creates a new file system rooted at rootDir: a fresh container, a
// naming directory, and a superblock object recording the layout defaults.
// The client must be logged in.
func Format(p *sim.Proc, c *core.Client, rootDir string, opts Options) (*FS, error) {
	opts = opts.withDefaults(len(c.Servers()))
	cid, err := c.CreateContainer(p)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: container: %w", err)
	}
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: caps: %w", err)
	}
	if err := c.Mkdir(p, rootDir); err != nil {
		return nil, fmt.Errorf("lwfspfs: root: %w", err)
	}
	fs := &FS{c: c, root: rootDir, cid: cid, caps: caps, opts: opts,
		eng: stripe.NewEngine(c, caps, opts.Window)}
	fs.initMetrics()
	// Superblock: records container and layout so another process can
	// Mount by path alone.
	sb, err := c.CreateObject(p, c.Server(0), caps)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: superblock: %w", err)
	}
	content := fmt.Sprintf("lwfspfs v1\ncontainer %d\nstripeunit %d\nstripes %d\n",
		cid, opts.StripeUnit, opts.Stripes)
	// Redundant schemes append one line the legacy parser never wrote, so
	// RAID-0 superblocks stay byte-identical to the v1 format.
	switch opts.Scheme {
	case stripe.Replica:
		content += fmt.Sprintf("scheme replica %d\n", opts.Copies)
	case stripe.Parity:
		content += "scheme parity\n"
	}
	if opts.MetaCopies > 1 {
		content += fmt.Sprintf("meta %d\n", opts.MetaCopies)
	}
	if _, err := c.Write(p, sb, caps, 0, netsim.BytesPayload([]byte(content))); err != nil {
		return nil, err
	}
	if err := c.CreateName(p, fs.sbPath(), sb, nil); err != nil {
		return nil, err
	}
	return fs, nil
}

// sbPath is the superblock's well-known name under the root.
func (fs *FS) sbPath() string { return fs.root + "/.lwfspfs" }

// Mount opens an existing file system given its root directory and
// container ID. The container ID travels out of band, exactly like a
// capability does (paper §3.1.2): whoever invites you to the file system
// hands you both. The caller's principal must be admitted by the
// container's policy (the owner grants with SetACL).
func Mount(p *sim.Proc, c *core.Client, rootDir string, cid authz.ContainerID) (*FS, error) {
	return mount(p, c, rootDir, cid, authz.AllOps)
}

// MountReadOnly is Mount for principals granted only read and list access:
// ReadAt, Open and List work; Create, WriteAt and Remove fail with the
// zero-capability errors of the storage service.
func MountReadOnly(p *sim.Proc, c *core.Client, rootDir string, cid authz.ContainerID) (*FS, error) {
	return mount(p, c, rootDir, cid, []authz.Op{authz.OpRead, authz.OpList})
}

func mount(p *sim.Proc, c *core.Client, rootDir string, cid authz.ContainerID, ops []authz.Op) (*FS, error) {
	fs := &FS{c: c, root: rootDir, cid: cid}
	caps, err := c.GetCaps(p, cid, ops...)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: caps: %w", err)
	}
	fs.caps = caps
	e, err := c.Lookup(p, fs.sbPath())
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: superblock: %w", err)
	}
	payload, err := c.Read(p, e.Ref, caps, 0, 256)
	if err != nil {
		return nil, err
	}
	opts, ok := parseSuperblock(payload.Data)
	if !ok {
		return nil, stripe.ErrBadLayout
	}
	fs.opts = opts.withDefaults(len(c.Servers()))
	fs.eng = stripe.NewEngine(c, caps, fs.opts.Window)
	fs.initMetrics()
	return fs, nil
}

func parseSuperblock(data []byte) (Options, bool) {
	var opts Options
	var cid uint64
	n, err := fmt.Sscanf(string(data), "lwfspfs v1\ncontainer %d\nstripeunit %d\nstripes %d\n",
		&cid, &opts.StripeUnit, &opts.Stripes)
	if err != nil || n != 3 {
		return opts, false
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines[4:] {
		switch {
		case strings.HasPrefix(line, "scheme replica "):
			opts.Scheme = stripe.Replica
			if _, err := fmt.Sscanf(line, "scheme replica %d", &opts.Copies); err != nil {
				return opts, false
			}
		case line == "scheme parity":
			opts.Scheme = stripe.Parity
		case strings.HasPrefix(line, "meta "):
			if _, err := fmt.Sscanf(line, "meta %d", &opts.MetaCopies); err != nil {
				return opts, false
			}
		default:
			return opts, false
		}
	}
	return opts, true
}

// Container returns the file system's container ID (hand it to mounters).
func (fs *FS) Container() authz.ContainerID { return fs.cid }

// Root returns the mount directory.
func (fs *FS) Root() string { return fs.root }

// full converts an FS-relative path to a naming-service path.
func (fs *FS) full(path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return fs.root + path
}

// lockName is the lock-service key protecting a file.
func (fs *FS) lockName(path string) string { return "lwfspfs:" + fs.full(path) }

// Mkdir creates a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	return fs.c.Mkdir(p, fs.full(path))
}

// List lists a directory, hiding the superblock.
func (fs *FS) List(p *sim.Proc, path string) ([]string, error) {
	names, err := fs.c.ListNames(p, fs.full(path))
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if n != ".lwfspfs" {
			out = append(out, n)
		}
	}
	return out, nil
}

// Info describes one path: a directory, or a file and its logical size.
type Info struct {
	Path  string
	Size  int64
	IsDir bool
}

// Stat resolves a path to an Info. Files pay an Open (the size lives in
// the layout record, not the naming entry); directories only a Lookup.
func (fs *FS) Stat(p *sim.Proc, path string) (Info, error) {
	e, err := fs.c.Lookup(p, fs.full(path))
	if err != nil {
		return Info{}, err
	}
	if e.IsDir {
		return Info{Path: path, IsDir: true}, nil
	}
	f, err := fs.Open(p, path)
	if err != nil {
		return Info{}, err
	}
	return Info{Path: path, Size: f.Size()}, nil
}

// layoutWireMax bounds the metadata object read size.
const layoutWireMax = 64 << 10

// File is an open file. Its persistent metadata is a stripe.Layout (data
// objects, stripe unit, logical size) stored in the metadata object — or,
// under a redundant scheme, in MetaCopies mirrors of it, every one listed
// in the naming entry.
type File struct {
	fs       *FS
	path     string
	mdRefs   []storage.ObjRef // metadata mirrors, in this client's walk order
	stale    []bool           // mirrors absorbed by a fault; never re-read or re-written
	degraded bool             // Open skipped at least one unreachable mirror
	l        stripe.Layout
	mdLen    int64 // metadata object length as of the last read or flush
	dirty    bool
}

// MetaRefs returns a copy of the file's metadata mirror refs in this
// client's walk order: [0] is the mirror the owning client tries first on
// open — its primary. (The naming entry stores placement order; each client
// rotates it by its own id, see mirrorStart.) Tests and experiments use it
// to aim faults at the server hosting a given mirror.
func (f *File) MetaRefs() []storage.ObjRef {
	return append([]storage.ObjRef(nil), f.mdRefs...)
}

// Degraded reports whether Open had to skip an unreachable metadata mirror
// to read the layout record.
func (f *File) Degraded() bool { return f.degraded }

// Create makes a new file: data objects placed round-robin from a
// path-derived starting server (a simple distribution policy; applications
// can mount with Stripes=1 and do their own), a metadata object, and a
// naming entry — all inside one distributed transaction, so a crashed
// create leaves no debris. Redundant schemes allocate their extra objects
// on the following servers, so copy c of column i (and the parity object)
// each get their own server when the cluster is big enough.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	tx := fs.c.BeginTxn()
	l := stripe.Layout{Unit: fs.opts.StripeUnit, Scheme: fs.opts.Scheme}
	if fs.opts.Scheme == stripe.Replica {
		l.Copies = fs.opts.Copies
	}
	base := pathHash(path)
	for i := 0; i < fs.opts.objectsPerFile(); i++ {
		ref, err := fs.c.CreateObjectTxn(p, fs.c.Server(base+i), fs.caps, tx)
		if err != nil {
			tx.Abort(p) //nolint:errcheck
			return nil, err
		}
		l.Objs = append(l.Objs, ref)
	}
	var mdRefs []storage.ObjRef
	for _, t := range fs.placeMeta(base) {
		ref, err := fs.c.CreateObjectTxn(p, t, fs.caps, tx)
		if err != nil {
			tx.Abort(p) //nolint:errcheck
			return nil, err
		}
		mdRefs = append(mdRefs, ref)
	}
	enc := l.Encode()
	for _, ref := range mdRefs {
		if _, err := fs.c.Write(p, ref, fs.caps, 0, netsim.BytesPayload(enc)); err != nil {
			tx.Abort(p) //nolint:errcheck
			return nil, err
		}
	}
	var err error
	if len(mdRefs) == 1 {
		// Single-record files keep the legacy naming form.
		err = fs.c.CreateName(p, fs.full(path), mdRefs[0], tx)
	} else {
		err = fs.c.CreateNameRefs(p, fs.full(path), mdRefs, tx)
	}
	if err != nil {
		tx.Abort(p) //nolint:errcheck
		return nil, err
	}
	if err := tx.Commit(p); err != nil {
		return nil, err
	}
	// The naming entry keeps placement order; the handle walks it rotated
	// by this client's id, matching what the client's own Open would do, so
	// MetaRefs()[0] is the same mirror either way a handle was obtained.
	mdRefs = rotateRefs(mdRefs, fs.mirrorStart(len(mdRefs)))
	return &File{fs: fs, path: path, mdRefs: mdRefs,
		stale: make([]bool, len(mdRefs)), l: l, mdLen: int64(len(enc))}, nil
}

// placeMeta picks the servers for a file's metadata mirrors. The walk
// starts just past the rotation slots the data objects occupy, so the
// mirrors sit skewed from the data columns, and column 0's server — where
// the single metadata object historically lived, the mount's last single
// point of failure — is avoided while any other distinct server exists, so
// a file's layout record and its first data column never share a fate
// domain on clusters with room to spare. Mirrors land on distinct servers
// whenever the cluster has enough of them; smaller clusters wrap.
func (fs *FS) placeMeta(base int) []storage.Target {
	m := fs.opts.MetaCopies
	if m <= 1 {
		// Legacy single-record placement: column 0's server.
		return []storage.Target{fs.c.Server(base)}
	}
	n := len(fs.c.Servers())
	col0 := fs.c.Server(base)
	used := make(map[storage.Target]bool, m)
	var out []storage.Target
	for pass := 0; pass < 2 && len(out) < m; pass++ {
		for j := 0; j < n && len(out) < m; j++ {
			t := fs.c.Server(base + fs.opts.objectsPerFile() + j)
			if used[t] || (pass == 0 && t == col0) {
				continue
			}
			used[t] = true
			out = append(out, t)
		}
	}
	for len(out) < m { // cluster smaller than the mirror count
		out = append(out, fs.c.Server(base+len(out)))
	}
	return out
}

// Open opens an existing file, reading its layout record from the first
// reachable metadata mirror. The walk order is the naming entry's mirror
// list rotated by this client's id (mirrorStart), so healthy opens from a
// population of clients spread across the mirror set instead of all landing
// on entry slot 0; pfs.meta.open_slot.<n> counts which entry slot served
// each multi-mirror open. Faults are classified before the fallback
// lands: only ErrRPCTimeout — the fail-stop signature of a dead server —
// falls through to the next mirror. ErrNoObject means the record was
// fenced by a presumed-abort deletion on a live server, and a decode
// failure (stripe.ErrBadLayout) means corruption; neither may be masked as
// transience by reading another mirror (DESIGN.md §4.11). An open served
// by a mirror later in the client's walk than its first choice is recorded
// in pfs.meta.degraded_opens.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	e, err := fs.c.Lookup(p, fs.full(path))
	if err != nil {
		return nil, err
	}
	all := e.AllRefs()
	start := fs.mirrorStart(len(all))
	refs := rotateRefs(all, start)
	var lastErr error
	for i, ref := range refs {
		payload, err := fs.c.Read(p, ref, fs.caps, 0, layoutWireMax)
		if err != nil {
			switch {
			case errors.Is(err, portals.ErrRPCTimeout):
				lastErr = err
				continue
			case errors.Is(err, osd.ErrNoObject):
				return nil, fmt.Errorf("lwfspfs: metadata object fenced: %w", err)
			default:
				return nil, err
			}
		}
		l, err := stripe.Decode(payload.Data)
		if err != nil {
			return nil, err
		}
		f := &File{fs: fs, path: path, mdRefs: refs,
			stale: make([]bool, len(refs)), l: l, mdLen: int64(len(payload.Data))}
		if len(all) > 1 {
			fs.countOpenSlot((start + i) % len(all))
		}
		if i > 0 {
			f.degraded = true
			fs.degradedOpens.Inc()
			// The skipped mirrors are unreachable; this handle never
			// writes to them again — once their server restarts they hold
			// an old record and must be re-homed by Rebuild, never re-read.
			for j := 0; j < i; j++ {
				f.stale[j] = true
			}
		}
		return f, nil
	}
	return nil, fmt.Errorf("lwfspfs: no metadata mirror of %s reachable: %w", path, lastErr)
}

// Remove unlinks a file and frees its objects.
func (fs *FS) Remove(p *sim.Proc, path string) error {
	f, err := fs.Open(p, path)
	if err != nil {
		return err
	}
	if _, err := fs.c.RemoveName(p, fs.full(path)); err != nil {
		return err
	}
	for _, o := range f.l.Objs {
		if err := fs.c.Remove(p, o, fs.caps); err != nil {
			return err
		}
	}
	for _, ref := range f.mdRefs {
		if err := fs.c.Remove(p, ref, fs.caps); err != nil {
			return err
		}
	}
	return nil
}

// Rebuild reconstructs path's objects hosted on the dead server onto
// spares (nil means every server), patching and persisting the file's
// layout. The whole repair runs under the file's exclusive lock — the
// rebuild fencing rule: no reader or writer ever observes a half-rebuilt
// layout, and by the time the lock drops the dead server's stale objects
// are unreferenced, so its eventual restart cannot resurrect old bytes.
// The caller's client should be armed with a retry policy (core.SetRetry)
// so the dead server's silence reads as a timeout, not a hang.
func (fs *FS) Rebuild(p *sim.Proc, path string, dead storage.Target, spares []storage.Target) error {
	locks := fs.c.Locks()
	if err := locks.Lock(p, fs.lockName(path), txn.Exclusive); err != nil {
		return err
	}
	defer locks.Unlock(p, fs.lockName(path)) //nolint:errcheck
	f, err := fs.Open(p, path)
	if err != nil {
		return err
	}
	if spares == nil {
		spares = fs.c.Servers()
	}
	nl, err := stripe.NewRebuilder(fs.eng).Rebuild(p, f.l, dead, spares)
	if err != nil {
		return err
	}
	f.l = nl
	// Metadata mirrors hosted on the dead server (and any a tolerant flush
	// already absorbed) are re-homed in their own transaction, still under
	// the write lock, before the repaired layout is flushed everywhere.
	if err := f.rehomeMeta(p, dead, spares); err != nil {
		return err
	}
	return f.flushMeta(p)
}

// rehomeMeta replaces every metadata mirror hosted on dead — plus any
// mirror already marked stale — with a fresh object on a spare, topping
// the mirror set back up to the mount's MetaCopies (a tolerant flush may
// have demoted a mirror earlier). The replacement objects, their contents,
// and the naming-entry swap commit in one transaction under the caller's
// exclusive file lock: the data rebuild's fencing rule applied to
// metadata. An aborted re-home leaves the old entry intact (SetRefs is
// deferred to commit) and the fresh objects die with the transaction, so
// no reader can ever resolve the path to a half-built mirror set.
func (f *File) rehomeMeta(p *sim.Proc, dead storage.Target, spares []storage.Target) error {
	var keep []storage.ObjRef
	lost := 0
	for i, ref := range f.mdRefs {
		if storage.TargetOf(ref) == dead || f.stale[i] {
			lost++
			continue
		}
		keep = append(keep, ref)
	}
	want := f.fs.opts.MetaCopies
	if want < 1 {
		want = 1
	}
	need := want - len(keep)
	if lost == 0 && need <= 0 {
		return nil
	}
	if len(keep) == 0 {
		return fmt.Errorf("lwfspfs: no live metadata mirror of %s to rebuild from: %w",
			f.path, stripe.ErrUnrecoverable)
	}
	used := make(map[storage.Target]bool, len(keep))
	for _, ref := range keep {
		used[storage.TargetOf(ref)] = true
	}
	tx := f.fs.c.BeginTxn()
	refs := append([]storage.ObjRef(nil), keep...)
	enc := f.l.Encode()
	// Prefer spares that host no surviving mirror; fall back to doubling up
	// only when the cluster is too small for independence. A spare that
	// times out is skipped — it may have died alongside dead.
	for pass := 0; pass < 2 && need > 0; pass++ {
		for _, t := range spares {
			if need <= 0 {
				break
			}
			if t == dead || (pass == 0 && used[t]) {
				continue
			}
			ref, err := f.fs.c.CreateObjectTxn(p, t, f.fs.caps, tx)
			if err != nil {
				if errors.Is(err, portals.ErrRPCTimeout) {
					continue
				}
				tx.Abort(p) //nolint:errcheck
				return err
			}
			if _, err := f.fs.c.Write(p, ref, f.fs.caps, 0, netsim.BytesPayload(enc)); err != nil {
				tx.Abort(p) //nolint:errcheck
				return err
			}
			used[t] = true
			refs = append(refs, ref)
			need--
			f.fs.metaRehomed.Inc()
		}
	}
	if err := f.fs.c.SetNameRefs(p, f.fs.full(f.path), refs, tx); err != nil {
		tx.Abort(p) //nolint:errcheck
		return err
	}
	if err := tx.Commit(p); err != nil {
		return err
	}
	f.mdRefs = refs
	f.stale = make([]bool, len(refs))
	f.degraded = false
	return nil
}

// Size returns the file's current size (as of open or last local write).
func (f *File) Size() int64 { return f.l.Size }

// Layout returns a copy of the file's striped layout (the object set is
// shared; treat it as read-only).
func (f *File) Layout() stripe.Layout { return f.l }

// WriteAt writes payload at off under POSIX semantics: the file's
// exclusive lock is held for the duration, so concurrent writers serialize
// and readers never observe torn writes. The transfer itself runs through
// the striped engine — one coalesced request per object, fanned out
// concurrently — unless the file system is in Serial mode.
func (f *File) WriteAt(p *sim.Proc, off int64, payload netsim.Payload) (int64, error) {
	locks := f.fs.c.Locks()
	if err := locks.Lock(p, f.fs.lockName(f.path), txn.Exclusive); err != nil {
		return 0, err
	}
	defer locks.Unlock(p, f.fs.lockName(f.path)) //nolint:errcheck
	var n int64
	var err error
	if f.fs.opts.Serial && f.l.Scheme == stripe.Raid0 {
		n, err = f.writeSerial(p, off, payload)
	} else {
		n, err = f.fs.eng.WriteAt(p, f.l, off, payload)
	}
	if err != nil {
		return n, err
	}
	if end := off + payload.Size; end > f.l.Size {
		f.l.Size = end
		f.dirty = true
	}
	if !f.dirty {
		// Steady-state overwrite: the layout record is unchanged, so the
		// metadata RPC would be a no-op — skip it.
		return n, nil
	}
	// Persist the new size immediately: POSIX readers opening after this
	// write returns must see it.
	return n, f.flushMeta(p)
}

// writeSerial is the historical transfer path: one RPC per stripe unit, in
// file order. Kept as the baseline arm of the E17 comparison.
func (f *File) writeSerial(p *sim.Proc, off int64, payload netsim.Payload) (int64, error) {
	var written int64
	u := f.l.Unit
	for cur := off; cur < off+payload.Size; {
		idx, objOff := f.l.Locate(cur)
		n := u - (cur % u)
		if n > off+payload.Size-cur {
			n = off + payload.Size - cur
		}
		piece := netsim.SyntheticPayload(n)
		if payload.Data != nil {
			piece = netsim.BytesPayload(payload.Data[cur-off : cur-off+n])
		}
		w, err := f.fs.c.Write(p, f.l.Objs[idx], f.fs.caps, objOff, piece)
		written += w
		if err != nil {
			return written, err
		}
		cur += n
	}
	return written, nil
}

// ReadAt reads [off, off+length) under the file's shared lock, truncated at
// the file's logical size.
func (f *File) ReadAt(p *sim.Proc, off, length int64) (netsim.Payload, error) {
	locks := f.fs.c.Locks()
	if err := locks.Lock(p, f.fs.lockName(f.path), txn.Shared); err != nil {
		return netsim.Payload{}, err
	}
	defer locks.Unlock(p, f.fs.lockName(f.path)) //nolint:errcheck
	if off >= f.l.Size {
		return netsim.Payload{}, nil
	}
	if off+length > f.l.Size {
		length = f.l.Size - off
	}
	if f.fs.opts.Serial && f.l.Scheme == stripe.Raid0 {
		return f.readSerial(p, off, length)
	}
	return f.fs.eng.ReadAt(p, f.l, off, length)
}

// readSerial is the per-unit serial read path (baseline arm of E17).
func (f *File) readSerial(p *sim.Proc, off, length int64) (netsim.Payload, error) {
	out := netsim.Payload{Size: length}
	var buf []byte
	u := f.l.Unit
	for cur := off; cur < off+length; {
		idx, objOff := f.l.Locate(cur)
		n := u - (cur % u)
		if n > off+length-cur {
			n = off + length - cur
		}
		piece, err := f.fs.c.Read(p, f.l.Objs[idx], f.fs.caps, objOff, n)
		if err != nil {
			return out, err
		}
		if piece.Data != nil {
			if buf == nil {
				buf = make([]byte, length)
			}
			copy(buf[cur-off:], piece.Data)
		}
		cur += n
	}
	out.Data = buf
	return out, nil
}

// Sync flushes every storage server holding part of the file. The
// per-target Sync RPCs fan out concurrently (serially in Serial mode).
func (f *File) Sync(p *sim.Proc) error {
	targets := f.l.Targets()
	if f.fs.opts.Serial {
		for _, t := range targets {
			if err := f.fs.c.Sync(p, t, f.fs.caps); err != nil {
				return err
			}
		}
		return nil
	}
	return f.fs.eng.SyncTargets(p, targets)
}

// Close persists metadata if needed.
func (f *File) Close(p *sim.Proc) error {
	if !f.dirty {
		return nil
	}
	return f.flushMeta(p)
}

// flushMeta rewrites the layout record at offset 0 on every live metadata
// mirror. Size-only updates are length-monotonic, but Rebuild swaps object
// refs, so the new encoding can be shorter than what's on disk — the
// metadata object is truncated in that case, or the stale tail of the old
// encoding would make the next Open's Decode fail with stripe.ErrBadLayout.
//
// The flush has WriteAtTolerant semantics: while more than one live mirror
// remains, a mirror that times out is absorbed — marked stale, counted in
// pfs.meta.mirrors_stale, and demoted from the naming entry so that no
// later Open can be served its old record (staleness is made durable
// before the flush succeeds). A stale mirror is never re-read or
// re-written; Rebuild re-homes it. A non-timeout error, or the last live
// mirror failing, stays hard.
func (f *File) flushMeta(p *sim.Proc) error {
	enc := f.l.Encode()
	liveLeft := 0
	for i := range f.mdRefs {
		if !f.stale[i] {
			liveLeft++
		}
	}
	for i, ref := range f.mdRefs {
		if f.stale[i] {
			continue
		}
		err := f.writeMirror(p, ref, enc)
		if err == nil {
			continue
		}
		if !errors.Is(err, portals.ErrRPCTimeout) || liveLeft == 1 {
			return err
		}
		liveLeft--
		f.stale[i] = true
		f.fs.mirrorsStale.Inc()
	}
	for i := range f.mdRefs {
		if f.stale[i] {
			// At least one mirror is out of date (absorbed now or skipped
			// by a degraded open): demote it from the entry so the flush's
			// record is the only one the namespace can hand out.
			if err := f.demoteStale(p); err != nil {
				return err
			}
			break
		}
	}
	f.mdLen = int64(len(enc))
	f.dirty = false
	return nil
}

// writeMirror writes one mirror's record, truncating the shrink case.
func (f *File) writeMirror(p *sim.Proc, ref storage.ObjRef, enc []byte) error {
	if _, err := f.fs.c.Write(p, ref, f.fs.caps, 0, netsim.BytesPayload(enc)); err != nil {
		return err
	}
	if int64(len(enc)) < f.mdLen {
		return f.fs.c.Truncate(p, ref, f.fs.caps, int64(len(enc)))
	}
	return nil
}

// demoteStale rewrites the naming entry to list only live mirrors, making
// staleness durable: a crash right after a tolerant flush cannot leave the
// namespace pointing at a mirror holding an old layout record.
func (f *File) demoteStale(p *sim.Proc) error {
	var live []storage.ObjRef
	for i, ref := range f.mdRefs {
		if !f.stale[i] {
			live = append(live, ref)
		}
	}
	return f.fs.c.SetNameRefs(p, f.fs.full(f.path), live, nil)
}

// pathHash spreads files' starting servers.
func pathHash(path string) int {
	h := 2166136261
	for i := 0; i < len(path); i++ {
		h = (h ^ int(path[i])) * 16777619
	}
	if h < 0 {
		h = -h
	}
	return h
}
