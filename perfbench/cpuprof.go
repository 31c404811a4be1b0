package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets CPU samples fold into: the simulator's layers,
// the Go runtime (allocation and GC included), the traced run's own span
// bookkeeping, and everything else (standard library, topology, fault).
var cpuLayers = append(append([]string(nil), simLayers...), "runtime", "trace", "other")

// simLayers are the rmac/internal packages with a bucket of their own;
// subpackages fold into their parent (mac/rmac into mac).
var simLayers = []string{"sim", "phy", "mac", "routing", "app", "audit", "mobility", "frame"}

// isSpanCode reports whether fn is the tracer's bookkeeping; a sample with
// it anywhere on the stack (the clock reads included) is tracing overhead.
func isSpanCode(fn string) bool {
	return fn == "main.(*tracer).begin" || fn == "main.(*tracer).end"
}

// layerOf maps a function name from a profile to its bucket by package.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "rmac/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		for _, l := range simLayers {
			if l == layer {
				return l
			}
		}
	}
	return "other"
}

// foldProfile reads a gzipped pprof CPU profile and returns the share of
// samples in each bucket of cpuLayers: "trace" when span bookkeeping is on
// the stack, else the bucket of the leaf frame's package. It decodes
// only the profile.proto fields it needs: samples (2), locations (4),
// functions (5) and the string table (6).
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples  [][]byte
		strs     []string
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index
	)
	err = fields(data, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // one line per frame, inlined callees first
					return fields(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	count := map[string]float64{}
	var total float64
	for _, s := range samples {
		var locs, vals []uint64
		err := fields(s, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendPacked(locs, v, b)
			case 2:
				vals = appendPacked(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(locs) == 0 || len(vals) == 0 {
			continue
		}
		layer := "other"
		if fns := locFuncs[locs[0]]; len(fns) > 0 {
			layer = layerOf(name(fns[0]))
		}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if isSpanCode(name(fn)) {
					layer = "trace"
				}
			}
		}
		count[layer] += float64(vals[0])
		total += float64(vals[0])
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = count[l] / total
		}
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value (b == nil) or packed into b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks the protobuf message in data and calls fn with each field
// number and either its varint value or its length-delimited bytes.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
	}
	return nil
}
