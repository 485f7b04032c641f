// Package osd implements the object-based storage device of the LWFS
// storage architecture (paper §3.3, Figure 7b): a flat store of objects
// addressed by object ID, each belonging to exactly one container (the unit
// of access control, §3.1.1), fronted by a simulated disk with calibrated
// bandwidth and per-operation overheads.
//
// Block-layout decisions and policy enforcement live here, on the device —
// not on a central file server — which is what lets LWFS clients reach
// storage without a metadata-server round trip per access.
package osd

import (
	"slices"
	"sort"

	"lwfs/internal/netsim"
)

// Blob is a sparse byte sequence supporting mixed real and synthetic
// writes. Real writes (payload carries bytes) are stored as extents and
// read back exactly, with zero-fill for holes; synthetic writes (size-only
// payloads used by large-scale benchmarks) extend the logical size without
// allocating memory.
type Blob struct {
	size    int64
	extents []extent // sorted by off, non-overlapping, non-empty
}

type extent struct {
	off  int64
	data []byte
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// Size returns the logical size (highest written offset + length).
func (b *Blob) Size() int64 { return b.size }

// Write stores payload at off. If payload carries real bytes they become
// readable; a synthetic payload only extends the logical size.
func (b *Blob) Write(off int64, payload netsim.Payload) {
	if off < 0 {
		panic("osd: negative write offset")
	}
	if end := off + payload.Size; end > b.size {
		b.size = end
	}
	if payload.Data == nil {
		return
	}
	data := make([]byte, len(payload.Data))
	copy(data, payload.Data)
	b.insert(extent{off: off, data: data})
}

// insert places e into the extent list in place. Binary search finds the
// run [i, j) of extents that e overlaps; the run is replaced by at most the
// head of its first extent, e, and the tail of its last. An append past the
// last extent moves nothing (amortised O(1) growth after an O(log n)
// search); an overwrite of k extents costs O(log n + k), plus a memmove of
// the later extents when it changes their count.
func (b *Blob) insert(e extent) {
	if len(e.data) == 0 {
		return
	}
	xs := b.extents
	i := sort.Search(len(xs), func(k int) bool { return xs[k].end() > e.off })
	j := i + sort.Search(len(xs)-i, func(k int) bool { return xs[i+k].off >= e.end() })
	var buf [3]extent
	repl := buf[:0]
	if i < j && xs[i].off < e.off {
		// Cap the head so no later growth can alias the dropped middle.
		n := e.off - xs[i].off
		repl = append(repl, extent{off: xs[i].off, data: xs[i].data[:n:n]})
	}
	repl = append(repl, e)
	if i < j && xs[j-1].end() > e.end() {
		x := xs[j-1]
		repl = append(repl, extent{off: e.end(), data: x.data[e.end()-x.off:]})
	}
	b.extents = slices.Replace(xs, i, j, repl...)
}

// Read returns [off, off+length). If the blob holds any real bytes in the
// range (or anywhere — callers treat a real blob as fully materializable),
// the result carries real bytes with zero-filled holes; otherwise it is a
// synthetic payload of the requested length. Reading past the logical size
// zero-fills (like reading a sparse file's hole); callers that care check
// Size first.
func (b *Blob) Read(off, length int64) netsim.Payload {
	if off < 0 || length < 0 {
		panic("osd: negative read range")
	}
	if len(b.extents) == 0 {
		return netsim.SyntheticPayload(length)
	}
	out := make([]byte, length)
	end := off + length
	xs := b.extents
	for k := sort.Search(len(xs), func(k int) bool { return xs[k].end() > off }); k < len(xs) && xs[k].off < end; k++ {
		x := xs[k]
		lo, hi := max(x.off, off), min(x.end(), end)
		copy(out[lo-off:hi-off], x.data[lo-x.off:hi-x.off])
	}
	return netsim.Payload{Size: length, Data: out}
}

// Truncate sets the logical size, discarding real data past it.
func (b *Blob) Truncate(size int64) {
	if size < 0 {
		panic("osd: negative truncate")
	}
	b.size = size
	xs := b.extents
	k := sort.Search(len(xs), func(k int) bool { return xs[k].end() > size })
	if k < len(xs) && xs[k].off < size {
		n := size - xs[k].off
		xs[k].data = xs[k].data[:n:n]
		k++
	}
	clear(xs[k:])
	b.extents = xs[:k]
}
