package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// The traced run splits host cost by layer. A sample (CPU) or an
// allocation site (bytes) is charged to one bucket:
//
//   - runtime.gc: any frame is a GC worker or a mark assist;
//   - runtime.handoff: the stack is in the goroutine scheduler or a
//     channel/park frame, with no layer frame inside sim above it, i.e.
//     the cost of sim.Proc's goroutine handoff;
//   - <layer>: the innermost frame of one of the repo's layer packages,
//     so runtime map, alloc and hash frames count toward the layer that
//     called them (packages outside the layer list, such as cost, pass
//     through to their caller);
//   - runtime.other: no layer frame, or the innermost one is the
//     benchmark's own code.

// layers are the repo's modules, bottom up, plus workload, which drives
// the closed-loop apps.
var layers = []string{"sim", "mmio", "gpu", "userlib", "neon", "core", "fleet", "traffic", "metrics", "workload"}

// allocLayers are the layers whose share of allocated bytes is reported.
var allocLayers = []string{"sim", "gpu", "userlib", "neon", "core", "fleet", "traffic", "metrics"}

const (
	bucketGC      = "runtime.gc"
	bucketHandoff = "runtime.handoff"
	bucketOther   = "runtime.other"
	bucketBench   = "bench"
)

var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcDrain":           true,
	"runtime.gcDrainN":          true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
}

var handoffFrames = map[string]bool{
	"runtime.gopark":       true,
	"runtime.goready":      true,
	"runtime.ready":        true,
	"runtime.park_m":       true,
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
	"runtime.mcall":        true,
	"runtime.casgstatus":   true,
	"runtime.chansend":     true,
	"runtime.chansend1":    true,
	"runtime.chanrecv":     true,
	"runtime.chanrecv1":    true,
	"runtime.chanrecv2":    true,
	"runtime.selectgo":     true,
	"runtime.goexit0":      true,
	"runtime.wakep":        true,
	"runtime.runqput":      true,
	"runtime.runqgrab":     true,
	"runtime.stealWork":    true,
}

// layerOf returns the layer a function belongs to, bucketBench for the
// benchmark's own package, or "" for anything else.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return bucketBench
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// classify returns the bucket of one stack, given leaf first.
func classify(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return bucketGC
		}
	}
	owner := ""
	handoff := false
	for _, f := range stack {
		if handoffFrames[f] {
			handoff = true
		}
		if owner = layerOf(f); owner != "" {
			break
		}
	}
	switch {
	case handoff && (owner == "" || owner == "sim"):
		return bucketHandoff
	case owner == "" || owner == bucketBench:
		return bucketOther
	}
	return owner
}

// foldCPUProfile decodes a gzipped pprof CPU profile and sums its sample
// counts by bucket.
func foldCPUProfile(data []byte) (map[string]int64, error) {
	stacks, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("fold CPU profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range stacks {
		out[classify(s.frames)] += s.value
	}
	return out, nil
}

// memProfile returns the runtime's cumulative allocation records.
func memProfile() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// foldAllocs sums, by bucket, the bytes allocated between two cumulative
// allocation profiles (records matched by call stack). The runtime
// samples an allocation of n bytes with probability 1-exp(-n/rate), so
// each record is scaled back by that probability as pprof does;
// unscaled, a few large allocations would outweigh millions of small
// ones.
func foldAllocs(before, after []runtime.MemProfileRecord, rate int) map[string]int64 {
	type counts struct{ bytes, objs int64 }
	base := make(map[[32]uintptr]counts, len(before))
	for _, r := range before {
		base[r.Stack0] = counts{r.AllocBytes, r.AllocObjects}
	}
	out := make(map[string]int64)
	for _, r := range after {
		b := base[r.Stack0]
		bytes, objs := r.AllocBytes-b.bytes, r.AllocObjects-b.objs
		if bytes <= 0 || objs <= 0 {
			continue
		}
		avg := float64(bytes) / float64(objs)
		scaled := float64(bytes) / (1 - math.Exp(-avg/float64(rate)))
		out[classify(symbolize(r.Stack()))] += int64(scaled)
	}
	return out
}

// symbolize turns return PCs into function names, leaf first, with
// inlined calls expanded.
func symbolize(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// sample is one decoded profile sample: its stack, leaf first, and its
// first value (the sample count for a CPU profile).
type sample struct {
	frames []string
	value  int64
}

// decodeProfile reads the parts of a gzipped profile.proto
// (github.com/google/pprof/proto/profile.proto) the fold needs: samples,
// locations with their line (inlining) records, functions and the
// string table.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if first {
						vals := appendVarints(nil, v, b)
						if len(vals) > 0 {
							s.value, first = int64(vals[0]), false
						}
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
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
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i >= 0 && i < int64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, sample{frames: frames, value: s.value})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one unpacked
// value v, or the packed values in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
