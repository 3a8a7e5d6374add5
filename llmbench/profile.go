package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile of a traced run in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// share stops the profile and returns the share of the engine's samples —
// those with a frame under llmsql/internal/ — whose stack also holds a
// function whose name starts with one of prefixes, and the engine sample
// count.
func (p *cpuProfile) share(prefixes ...string) (float64, int, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeStacks(p.buf.Bytes())
	if err != nil {
		return 0, 0, err
	}
	var engine, hit int64
	for _, s := range stacks {
		inEngine, match := false, false
		for _, fn := range s.funcs {
			inEngine = inEngine || strings.HasPrefix(fn, "llmsql/internal/")
			for _, pre := range prefixes {
				match = match || strings.HasPrefix(fn, pre)
			}
		}
		if inEngine {
			engine += s.count
			if match {
				hit += s.count
			}
		}
	}
	if engine == 0 {
		return 0, 0, nil
	}
	return float64(hit) / float64(engine), int(engine), nil
}

// stack is one profile sample: its function names, leaf first, and its
// sample count.
type stack struct {
	funcs []string
	count int64
}

// decodeStacks reads the gzipped profile.proto that runtime/pprof writes,
// keeping only what share needs: samples (field 2), locations (4),
// functions (5) and the string table (6).
func decodeStacks(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]int64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					vals := appendUints(nil, v, b)
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			var id uint64
			var nameIdx int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nameIdx = int64(v)
				}
				return nil
			})
			funcName[id] = nameIdx
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed (b non-nil) or not.
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's number
// and either its integer value (b nil) or its bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
