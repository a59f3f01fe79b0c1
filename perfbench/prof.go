package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run attributes CPU from a runtime/pprof profile of the
// measured phase. A sample's self time goes to the package of its leaf
// function (the innermost inlined frame); a sample's role is the "role"
// pprof label the goroutine inherited from the benchmark call that started
// it (live.NewCloud, coord.StartCoordinator, coord.StartWorker, the player
// client).

// selfPackages maps a per-layer metric prefix to the import paths whose
// leaf samples count as that layer's self time.
var selfPackages = map[string][]string{
	"sim":        {"cloudfog/internal/sim"},
	"qoe":        {"cloudfog/internal/qoe"},
	"sched":      {"cloudfog/internal/sched"},
	"adapt":      {"cloudfog/internal/adapt"},
	"core":       {"cloudfog/internal/core"},
	"spatial":    {"cloudfog/internal/spatial"},
	"experiment": {"cloudfog/internal/experiment"},
	"live":       {"cloudfog/internal/live"},
	"proto":      {"cloudfog/internal/proto"},
	"world":      {"cloudfog/internal/world"},
	"syscall":    {"syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll"},
}

// gcFrames mark a sample as garbage-collector work wherever they appear on
// the stack: background mark workers, mutator assists and sweeping.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.sweepone", "runtime.markroot", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.gcStart",
}

var roles = []string{"cloud", "worker", "coord", "client"}

// withRole runs fn under a pprof role label when tracing; goroutines fn
// starts inherit the label. Untraced runs call fn directly.
func withRole(trace bool, role string, fn func()) {
	if !trace {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("role", role), func(context.Context) { fn() })
}

// cpuProfile records a CPU profile while tracing.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func startProfile(trace bool) (*cpuProfile, error) {
	p := &cpuProfile{}
	if !trace {
		return p, nil
	}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	p.on = true
	return p, nil
}

// shares stops the profile and returns the per-layer shares of all CPU
// samples: "<pkg>.self_share", "runtime.gc_share", "runtime.malloc_share"
// and "<role>.cpu_share", plus the sample count.
func (p *cpuProfile) shares() (map[string]float64, int, error) {
	out := make(map[string]float64)
	for pkg := range selfPackages {
		out[pkg+".self_share"] = 0
	}
	out["runtime.gc_share"], out["runtime.malloc_share"] = 0, 0
	for _, r := range roles {
		out[r+".cpu_share"] = 0
	}
	if !p.on {
		return out, 0, nil
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, s := range prof.samples {
		total += s.weight
	}
	if total == 0 {
		return out, 0, nil
	}
	for _, s := range prof.samples {
		w := float64(s.weight) / float64(total)
		if len(s.stack) > 0 {
			leaf := s.stack[0]
			for layer, pkgs := range selfPackages {
				for _, pkg := range pkgs {
					if funcPackage(leaf) == pkg {
						out[layer+".self_share"] += w
					}
				}
			}
		}
		gc, malloc := false, false
		for _, fn := range s.stack {
			for _, g := range gcFrames {
				if fn == g {
					gc = true
				}
			}
			if fn == "runtime.mallocgc" {
				malloc = true
			}
		}
		switch {
		case gc:
			out["runtime.gc_share"] += w
		case malloc:
			out["runtime.malloc_share"] += w
		}
		if s.role != "" {
			out[s.role+".cpu_share"] += w
		}
	}
	return out, int(total), nil
}

// funcPackage returns the import path of a symbol name such as
// "cloudfog/internal/sim.(*Engine).pop" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack  []string // function names, leaf first (inlined frames expanded)
	weight int64    // sample count
	role   string
}

// parseProfile decodes a gzipped profile.proto (the runtime/pprof wire
// format) far enough to walk each sample's stack and labels.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = make(map[uint64][]uint64) // location id → function ids, leaf first
		fnName  = make(map[uint64]int64)    // function id → name index
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							kv[0] = int64(v)
						} else if f == 2 {
							kv[1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					eachField(b, func(f, _ int, v uint64, _ []byte) error {
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
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, s := range samples {
		ps := profSample{weight: 1}
		if len(s.values) > 0 {
			ps.weight = s.values[0]
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "role" {
				ps.role = str(kv[1])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its varint value (wire type 0) or its
// bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
