package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"lwfs/internal/sim"
)

// span is one traced call into a layer: its name, the span that caused
// it, and its start and end on both clocks — virtual time from the
// simulation kernel and host time from the benchmark process.
type span struct {
	id, parent int32 // parent 0 = root
	name       string
	vStart     sim.Time
	vEnd       sim.Time
	hStart     int64 // host ns since the tracer started
	hEnd       int64
}

func (s span) virt() time.Duration { return s.vEnd.Sub(s.vStart) }
func (s span) host() time.Duration { return time.Duration(s.hEnd - s.hStart) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads call it unconditionally. Only one simulated
// process runs at a time and the kernel hands control over through
// channels, so the slice needs no lock.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts map[string]int64 // counts recorded at the same boundaries
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]int64{}} }

// count adds n to the named count.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// begin opens a span at virtual instant now and returns its id.
func (t *tracer) begin(name string, parent int32, now sim.Time) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		id: int32(len(t.spans) + 1), parent: parent, name: name,
		vStart: now, hStart: int64(time.Since(t.epoch)),
	})
	return int32(len(t.spans))
}

// end closes span id at virtual instant now.
func (t *tracer) end(id int32, now sim.Time) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.vEnd, s.hEnd = now, int64(time.Since(t.epoch))
}

// root returns the id of the root span s descends from.
func (t *tracer) root(s span) int32 {
	id := s.id
	for p := s.parent; p != 0; p = t.spans[p-1].parent {
		id = p
	}
	return id
}

// byName returns the closed spans with the given name, in start order.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.name == name && s.hEnd != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's virtual and host duration
// minus the part of that interval its children cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string][2]time.Duration)
	for _, s := range t.spans {
		var vs, hs [][2]int64
		for _, c := range kids[s.id] {
			vs = append(vs, [2]int64{int64(c.vStart), int64(c.vEnd)})
			hs = append(hs, [2]int64{c.hStart, c.hEnd})
		}
		v := s.virt() - time.Duration(covered(vs, int64(s.vStart), int64(s.vEnd)))
		h := s.host() - time.Duration(covered(hs, s.hStart, s.hEnd))
		acc := out[s.name]
		out[s.name] = [2]time.Duration{acc[0] + v, acc[1] + h}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span, one per line, as
// "id parent name v_start_ns v_end_ns h_start_ns h_end_ns".
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# id parent name v_start_ns v_end_ns h_start_ns h_end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d %d %s %d %d %d %d\n", s.id, s.parent, s.name,
			int64(s.vStart), int64(s.vEnd), s.hStart, s.hEnd)
	}
	return bw.Flush()
}

func hostMedianUs(ss []span) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, float64(s.host())/1e3)
	}
	return median(xs)
}

// spanStats reports p50/p99 virtual ms and p50 host µs of the named spans
// as <name>.virt_ms.p50 and so on.
func spanStats(tr *tracer, name string, m map[string]float64) {
	var virt, host []float64
	for _, s := range tr.byName(name) {
		virt = append(virt, float64(s.virt())/1e6)
		host = append(host, float64(s.host())/1e3)
	}
	m[name+".virt_ms.p50"] = percentile(virt, 50)
	m[name+".virt_ms.p99"] = percentile(virt, 99)
	m[name+".host_us.p50"] = percentile(host, 50)
}
