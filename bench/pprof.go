package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzip'd protobuf that runtime/pprof writes,
// keeping go.mod dependency-free: just enough of profile.proto to recover
// each sample's stack as function names, leaf first.

type stackSample struct {
	funcs []string // leaf first, inlined frames expanded
	count int64    // value[0]: samples
}

// protoField is one decoded field: a varint (wire type 0) or a
// length-delimited payload (wire type 2). Fixed-width fields are skipped.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, fmt.Errorf("pprof: truncated varint")
}

func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("pprof: truncated fixed64")
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, fmt.Errorf("pprof: truncated field %d", f.num)
			}
			f.b, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("pprof: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints appends a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeProfile parses a runtime/pprof profile into stacks of function names.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		strtab   []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 2: // Sample
			fs, err := readFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedVarints(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := readFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.v
				case lf.num == 4 && lf.wire == 2: // Line
					ls, err := readFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 && l.wire == 0 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := readFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				if ff.wire != 0 {
					continue
				}
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.b))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strtab)) {
					st.funcs = append(st.funcs, strtab[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// hostLayers are the layers host_share.* is reported for, named after the
// repo's modules, plus the two buckets for samples with no repo frame.
var hostLayers = []string{
	"sim", "wire", "sparse", "model", "partition",
	"cloud.sqs", "cloud.sns", "cloud.s3", "cloud.kv", "cloud.faas",
	"core", "collective", "serve", "plan", "obs", "workload",
	"runtime_gc", "runtime_other",
}

// pkgLayer maps a package path under fsdinference/internal/ to its layer.
// Packages that are not a layer of their own (usage, env, perf, pricing,
// ec2) are absent: a sample whose deepest repo frame is there goes to the
// nearest caller that is a layer.
var pkgLayer = map[string]string{
	"sim": "sim", "wire": "wire", "sparse": "sparse", "model": "model",
	"partition": "partition", "hypergraph": "partition",
	"cloud/sqs": "cloud.sqs", "cloud/sns": "cloud.sns", "cloud/s3": "cloud.s3",
	"cloud/kvstore": "cloud.kv", "cloud/kvcluster": "cloud.kv", "cloud/faas": "cloud.faas",
	"core": "core", "collective": "collective", "serve": "serve",
	"plan": "plan", "cost": "plan",
	"obs": "obs", "obs/monitor": "obs", "workload": "workload",
}

const repoInternal = "fsdinference/internal/"

// layerOfFunc returns the layer a function belongs to, or "".
func layerOfFunc(name string) string {
	if !strings.HasPrefix(name, repoInternal) {
		return ""
	}
	rest := name[len(repoInternal):]
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return pkgLayer[rest[:slash+1+dot]]
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcAssistAlloc"}

// layerOfStack attributes one sample: the deepest frame that belongs to a
// layer wins (so compress/* under wire counts as wire, and a runtime
// channel operation under sim counts as sim); a stack with no layer frame
// is collector work or other runtime/harness time.
func layerOfStack(funcs []string) string {
	for _, fn := range funcs {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	for _, fn := range funcs {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "runtime_gc"
			}
		}
	}
	return "runtime_other"
}

// underLayers are the layers that call down into other layers, so the
// deepest-frame fold hides most of what they cause: a planner trial
// bottoms out in core, sparse and wire, a replay in whatever engine it
// drives. For these host_under.<layer> is reported next to host_share:
// the share of samples with any frame of the layer on the stack.
var underLayers = []string{"serve", "plan", "core", "collective"}

// profileFold is a CPU profile folded by layer, as sample counts so that
// the profiles of several traced rounds can be pooled.
type profileFold struct {
	Deepest map[string]int64 `json:"deepest"` // by layerOfStack; sums to Total
	Under   map[string]int64 `json:"under"`   // underLayers only; inclusive
	Total   int64            `json:"total"`
}

func foldProfile(samples []stackSample) *profileFold {
	f := &profileFold{Deepest: map[string]int64{}, Under: map[string]int64{}}
	for _, s := range samples {
		f.Deepest[layerOfStack(s.funcs)] += s.count
		f.Total += s.count
		for _, l := range underLayers {
			for _, fn := range s.funcs {
				if layerOfFunc(fn) == l {
					f.Under[l] += s.count
					break
				}
			}
		}
	}
	return f
}

func (f *profileFold) add(g *profileFold) {
	for l, n := range g.Deepest {
		f.Deepest[l] += n
	}
	for l, n := range g.Under {
		f.Under[l] += n
	}
	f.Total += g.Total
}

// metrics turns the counts into host_share.* (which sum to 1),
// host_under.* and bench.profile_samples.
func (f *profileFold) metrics(out map[string]float64) {
	for _, l := range hostLayers {
		out["host_share."+l] = ratio(float64(f.Deepest[l]), float64(f.Total))
	}
	if f.Total == 0 {
		// An empty profile (a phase shorter than one sampling tick) still
		// has to sum to 1.
		out["host_share.runtime_other"] = 1
	}
	for _, l := range underLayers {
		out["host_under."+l] = ratio(float64(f.Under[l]), float64(f.Total))
	}
	out["bench.profile_samples"] = float64(f.Total)
}
