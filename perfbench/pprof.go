package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run turns CPU and allocation profiles into per-layer shares.
// The standard library writes profiles but cannot read them, so this file
// decodes just enough of the gzipped pprof protobuf: sample types, samples
// with their location stacks, locations with their (possibly inlined)
// functions, functions and the string table.

// layerTotals maps a layer name to the profile value attributed to it.
type layerTotals map[string]int64

// share returns layer's fraction of the total.
func (t layerTotals) share(layer string) float64 {
	var sum int64
	for _, v := range t {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return float64(t[layer]) / float64(sum)
}

// minus returns t − base per layer (an allocation profile is cumulative,
// so the traced pass's share is the difference of two snapshots).
func (t layerTotals) minus(base layerTotals) layerTotals {
	out := layerTotals{}
	for k, v := range t {
		if d := v - base[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// layerOf maps a function name to the layer it belongs to: the package
// name under lwfs/internal/, "bench" for this program, "" for anything
// else (the runtime and the standard library).
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "lwfs/internal/"):
		return strings.TrimPrefix(pkg, "lwfs/internal/")
	case pkg == "main" || pkg == "lwfs/perfbench": // the binary, or its tests
		return "bench"
	}
	return ""
}

// utilityLayers are packages every layer calls into; a sample inside one
// is charged to its caller.
var utilityLayers = map[string]bool{"metrics": true, "stats": true}

// attribute sums the sample values of the named type per layer. Each
// sample is charged to the innermost frame that belongs to a layer, so
// runtime work (allocation, channel hand-offs) done on a layer's behalf
// counts against that layer, and registry reads the benchmark makes count
// against the benchmark; samples with no layer frame at all (GC workers,
// the scheduler) are charged to "runtime".
func attribute(gz []byte, sampleType string) (layerTotals, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		types   []int64 // string index of each sample type
		samples []pbMsg
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return eachField(f.buf, func(g pbField) error {
				if g.num == 1 {
					types = append(types, int64(g.v))
				}
				return nil
			})
		case 2:
			samples = append(samples, f.buf)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.buf, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return eachField(g.buf, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.buf, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile: no sample type %q", sampleType)
	}
	out := layerTotals{}
	for _, s := range samples {
		var locs []uint64
		var vals []int64
		err := eachField(s, func(g pbField) error {
			switch g.num {
			case 1:
				return g.uints(func(v uint64) { locs = append(locs, v) })
			case 2:
				return g.uints(func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if idx >= len(vals) {
			continue
		}
		layer, fallback := "", "runtime"
	walk:
		for _, l := range locs {
			for _, fn := range locFns[l] {
				if si := fnName[fn]; si >= 0 && int(si) < len(strs) {
					switch ly := layerOf(strs[si]); {
					case utilityLayers[ly]:
						if fallback == "runtime" {
							fallback = ly
						}
					case ly != "":
						layer = ly
						break walk
					}
				}
			}
		}
		if layer == "" {
			layer = fallback
		}
		out[layer] += vals[idx]
	}
	return out, nil
}

// pbMsg is an encoded protobuf message.
type pbMsg []byte

// pbField is one decoded field: a varint value or a length-delimited
// payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	buf  []byte
}

// uints yields the field's integers, whether encoded singly or packed.
func (f pbField) uints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.v)
		return nil
	}
	b := f.buf
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField walks the top-level fields of an encoded message.
func eachField(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			f.buf = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return errBadProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
