package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Self time by module comes from a CPU profile of the traced body. Spans
// placed from outside cannot reach inside workload.Campaign or
// microbench.Run, which build their own devices, so the profile is the
// only outside view that splits their time into dram, core, bitvec and
// the rest. Each sample is charged to the innermost frame (inlined
// frames included) that belongs to a repository package; samples with
// no such frame (garbage collector, scheduler) go to go_runtime.

const repoPrefix = "hbm2ecc/internal/"

// moduleOf maps a function name to its module label, or "" when the
// function belongs to no repository package.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return rest
		}
		return rest[:end]
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// profileSelf parses a gzipped pprof CPU profile and returns sample
// counts per module plus the total sample count.
func profileSelf(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "go_runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if m := moduleOf(p.funcName(fid)); m != "" {
					mod = m
					break frames
				}
			}
		}
		out[mod] += s.count
		total += s.count
	}
	return out, total, nil
}

// The subset of profile.proto the attribution needs.
type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strs     []string
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = pbVarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints decodes a repeated uint64 field in either packed or plain form.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					vals, err = pbUints(g, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fids = append(fids, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fids
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
