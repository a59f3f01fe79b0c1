package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostInfo identifies where and on what a result was measured. Results
// whose host blocks differ are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision the binary was built from; a checkout
	// without VCS data, or with local changes, adds "src:" and a digest of
	// its Go sources, go.mod files and committed digests.
	Commit string `json:"commit"`
}

// comparable reports whether two host blocks name the same machine shape
// and toolchain (the commit is what a comparison varies).
func (h hostInfo) comparable(o hostInfo) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func hostBlock() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && !dirty {
			return rev
		}
		if rev != "" {
			return rev + "+src:" + sourceDigest()
		}
	}
	return "src:" + sourceDigest()
}

// sourceDigest hashes every .go, go.mod and digests.json file under the
// checkout (the working directory), so two checkouts of the same tree
// report the same commit.
func sourceDigest() string {
	if _, err := os.Stat("go.mod"); err != nil {
		return "unknown"
	}
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "digests.json") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain compares two sets of result records (files or directories),
// workload by workload, by median. It refuses when any host block differs
// and exits 1 when a metric got worse than the parent's median by more than
// its BENCHMARK.json bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json|dir> <head.json|dir>")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: no records")
		return 2
	}
	ref := base[0].Host
	for _, r := range append(append([]*record{}, base...), head...) {
		if !r.Host.comparable(ref) {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing: host blocks differ (%+v vs %+v)\n", ref, r.Host)
			return 2
		}
	}
	bounds := loadBounds("BENCHMARK.json")
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []*record) map[key][]*record {
		m := make(map[key][]*record)
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	bg, hg := group(base), group(head)
	regressed := false
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			k := key{wl.Name, trace}
			b, h := bg[k], hg[k]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			fmt.Printf("%s trace=%v: base %d runs, head %d runs\n", wl.Name, trace, len(b), len(h))
			for _, s := range specsFor(trace) {
				bm, hm := medianOf(b, s.Name), medianOf(h, s.Name)
				delta := 0.0
				if bm != 0 {
					delta = (hm - bm) / bm
				}
				verdict := ""
				if bd, ok := bounds[s.Name]; ok && !trace {
					worse := delta
					if !bd.lowerBetter {
						worse = -delta
					}
					if worse > bd.bound {
						verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", bd.bound*100)
						regressed = true
					}
				}
				fmt.Printf("  %-26s %14.6g -> %14.6g %-6s %+7.1f%% %s\n", s.Name, bm, hm, s.Unit, delta*100, verdict)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func medianOf(recs []*record, name string) float64 {
	vs := make([]float64, 0, len(recs))
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.V)
		}
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	return median(vs)
}

type boundSpec struct {
	bound       float64
	lowerBetter bool
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json (empty when
// the file is absent).
func loadBounds(path string) map[string]boundSpec {
	out := make(map[string]boundSpec)
	buf, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(buf, &doc) != nil {
		return out
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = boundSpec{bound: m.Bound, lowerBetter: m.Better == "lower"}
	}
	return out
}
