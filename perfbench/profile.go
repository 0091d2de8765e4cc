package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profiles that runtime/pprof and
// /debug/pprof/profile write (gzipped profile.proto) far enough to charge
// each sample to a layer. The standard library keeps its own decoder
// internal, so the few fields needed are read here by hand.

// sample is one profile sample: its call stack as function names, leaf
// first, its CPU time in nanoseconds and its string labels.
type sample struct {
	Stack  []string
	CPU    int64
	Labels map[string]string
}

// cpuLayers are the layers CPU time is charged to, in report order. Each
// sample goes to the innermost frame on its stack that belongs to one of
// them, and to "other" when none does, so the layers plus "other" sum to
// the profile's total.
var cpuLayers = []string{
	"mesh", "opgraph", "predictor", "recompute.options", "recompute.gcmr",
	"placement", "ga", "memalloc", "engine", "collective", "pipeline", "sim",
	"search", "sched", "runtime.gc", "service", "shard", "http", "other",
}

// packageLayers maps a package path to its layer. Packages not listed
// (memory, hw, model, core, lru, ...) are charged to their caller's layer.
var packageLayers = map[string]string{
	"repro/internal/mesh":           "mesh",
	"repro/internal/opgraph":        "opgraph",
	"repro/internal/predictor":      "predictor",
	"repro/internal/dataflow":       "predictor", // the tile model behind the predictor
	"repro/internal/recompute":      "recompute",
	"repro/internal/placement":      "placement",
	"repro/internal/ga":             "ga",
	"repro/internal/memalloc":       "memalloc",
	"repro/internal/engine":         "engine",
	"repro/internal/collective":     "collective",
	"repro/internal/pipeline":       "pipeline",
	"repro/internal/sim":            "sim",
	"repro/internal/search":         "search",
	"repro/internal/search/pool":    "search",
	"repro/internal/sched":          "sched",
	"repro/internal/service":        "service",
	"repro/internal/jobs":           "service",
	"repro/internal/prefetch":       "service",
	"repro/internal/shard":          "shard",
	"repro/internal/service/client": "http",
	"encoding/json":                 "http",
	"bufio":                         "http",
	"internal/poll":                 "http",
	"syscall":                       "http",
}

// gcPrefixes select the runtime's memory-management functions: allocation,
// marking, sweeping, scavenging and write barriers.
var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.markroot", "runtime.greyobject", "runtime.wbBuf", "runtime.heapSetType",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*sweepLocked)", "runtime.(*pageAlloc)", "runtime.(*scavengerState)",
}

// funcPackage returns the package path of a fully qualified function name
// such as "repro/internal/search.Map[...].func1" or "runtime.(*mheap).alloc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer of one frame, "recompute" for either
// recompute layer, or "" for a frame that belongs to none.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	switch {
	case pkg == "runtime":
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
	case pkg == "net" || strings.HasPrefix(pkg, "net/") ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "http"
	}
	return ""
}

// stackLayer charges a stack (leaf first) to its innermost layer. A
// recompute frame is recompute.options when recompute.BuildOptions is on
// the stack at or above it, recompute.gcmr otherwise.
func stackLayer(stack []string) string {
	for i, fn := range stack {
		l := frameLayer(fn)
		if l == "" {
			continue
		}
		if l == "recompute" {
			for _, up := range stack[i:] {
				if strings.HasPrefix(up, "repro/internal/recompute.BuildOptions") {
					return "recompute.options"
				}
			}
			return "recompute.gcmr"
		}
		return l
	}
	return "other"
}

// attribute sums the samples' CPU nanoseconds by layer; every entry of
// cpuLayers is present, and the entries sum to the samples' total.
func attribute(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range samples {
		out[stackLayer(s.Stack)] += s.CPU
	}
	return out
}

// parseProfile decodes a (possibly gzipped) CPU profile into samples.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // (key, value) string indexes
	}
	var (
		strs      []string
		types     []uint64 // string index of each sample type's name
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
	)
	p := pb{b: data}
	for p.more() {
		field, wt := p.key()
		switch {
		case field == 1 && wt == 2: // sample_type
			m := pb{b: p.bytes()}
			for m.more() {
				if f, w := m.key(); f == 1 && w == 0 {
					types = append(types, m.varint())
				} else {
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
		case field == 2 && wt == 2: // sample
			m := pb{b: p.bytes()}
			var s rawSample
			for m.more() {
				switch f, w := m.key(); f {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					s.values = m.uints(w, s.values)
				case 3:
					lm := pb{b: m.bytes()}
					var kv [2]uint64
					for lm.more() {
						switch lf, lw := lm.key(); {
						case lf == 1 && lw == 0:
							kv[0] = lm.varint()
						case lf == 2 && lw == 0:
							kv[1] = lm.varint()
						default:
							lm.skip(lw)
						}
					}
					m.err = errors.Join(m.err, lm.err)
					s.labels = append(s.labels, kv)
				default:
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
			raws = append(raws, s)
		case field == 4 && wt == 2: // location
			m := pb{b: p.bytes()}
			var id uint64
			var fns []uint64
			for m.more() {
				switch f, w := m.key(); {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2:
					line := pb{b: m.bytes()}
					for line.more() {
						if lf, lw := line.key(); lf == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					m.err = errors.Join(m.err, line.err)
				default:
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
			locFuncs[id] = fns
		case field == 5 && wt == 2: // function
			m := pb{b: p.bytes()}
			var id, name uint64
			for m.more() {
				switch f, w := m.key(); {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
			funcNames[id] = name
		case field == 6 && wt == 2: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wt)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); use the cpu value.
	vi := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if vi >= len(r.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{CPU: int64(r.values[vi])}
		for _, kv := range r.labels {
			if s.Labels == nil {
				s.Labels = map[string]string{}
			}
			s.Labels[str(kv[0])] = str(kv[1])
		}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.Stack = append(s.Stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pb reads protobuf wire format; the first error sticks and ends reading.
type pb struct {
	b   []byte
	err error
}

func (p *pb) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			break
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail()
	return 0
}

func (p *pb) key() (field int, wireType int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pb) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func (p *pb) uints(wireType int, dst []uint64) []uint64 {
	if wireType != 2 {
		return append(dst, p.varint())
	}
	packed := pb{b: p.bytes()}
	for packed.more() {
		dst = append(dst, packed.varint())
	}
	p.err = errors.Join(p.err, packed.err)
	return dst
}

func (p *pb) skip(wireType int) {
	switch wireType {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.fail()
	}
}

func (p *pb) advance(n int) {
	if n > len(p.b) {
		p.fail()
		return
	}
	p.b = p.b[n:]
}

func (p *pb) fail() {
	if p.err == nil {
		p.err = errors.New("malformed protobuf")
	}
	p.b = nil
}
