package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is the per-layer "time busy" source of the traced run. The
// standard library writes profiles but cannot read them, and no module
// beyond the standard library is available, so this file decodes the few
// fields of the profile.proto wire format the layer shares need: samples
// (location ids, values), locations (function ids per inlined line),
// functions (name index) and the string table.

// profSample is one stack with its CPU nanoseconds, leaf frame first.
type profSample struct {
	funcs []string
	ns    int64
}

// parseProfile decodes a gzipped CPU profile written by runtime/pprof.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
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
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{ns: s.vals[len(s.vals)-1]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					ps.funcs = append(ps.funcs, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields pass their value in v; length-delimited ones their bytes in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a symbol such as
// "dmdc/internal/core.(*Sim).issueEvent" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profileShares turns samples into the per-layer CPU shares of the traced
// run. Flat shares charge each sample to the package of its leaf frame;
// cumulative shares count a sample once if any frame matches.
func profileShares(samples []profSample) map[string]float64 {
	flat := map[string][]string{
		"core.cpu_frac":   {"dmdc/internal/core"},
		"trace.cpu_frac":  {"dmdc/internal/trace", "dmdc/internal/xrand"},
		"lsq.cpu_frac":    {"dmdc/internal/lsq"},
		"cache.cpu_frac":  {"dmdc/internal/cache"},
		"bpred.cpu_frac":  {"dmdc/internal/bpred"},
		"energy.cpu_frac": {"dmdc/internal/energy"},
	}
	cum := map[string]func(fn string) bool{
		"core.issue_frac": func(fn string) bool {
			return strings.HasPrefix(fn, "dmdc/internal/core.") && strings.HasSuffix(fn, ".issueEvent")
		},
		"checkpoint.cpu_frac": func(fn string) bool {
			return funcPackage(fn) == "dmdc/internal/checkpoint" || funcPackage(fn) == "crypto/sha256" ||
				(strings.HasPrefix(fn, "dmdc/internal/") && strings.Contains(fn, "Checkpoint"))
		},
		"jobstore.cpu_frac": func(fn string) bool { return funcPackage(fn) == "dmdc/internal/jobstore" },
		"dserve.http_json_cpu_frac": func(fn string) bool {
			p := funcPackage(fn)
			return p == "net/http" || p == "encoding/json"
		},
	}
	var total int64
	sums := map[string]int64{}
	for _, s := range samples {
		total += s.ns
		if len(s.funcs) > 0 {
			leaf := funcPackage(s.funcs[0])
			for name, pkgs := range flat {
				for _, p := range pkgs {
					if leaf == p {
						sums[name] += s.ns
					}
				}
			}
		}
		for name, match := range cum {
			for _, fn := range s.funcs {
				if match(fn) {
					sums[name] += s.ns
					break
				}
			}
		}
	}
	out := map[string]float64{}
	for name := range flat {
		out[name] = ratio(float64(sums[name]), float64(total))
	}
	for name := range cum {
		out[name] = ratio(float64(sums[name]), float64(total))
	}
	return out
}
