// Command perfbench is the repository's benchmark of record. One binary runs
// three workloads — the simulator's QoE figure pipeline (sim-qoe) and two
// traffic mixes over a real cloud + coordinator + workers + players
// deployment on loopback TCP (live-stream, live-churn) — checks their
// outputs, and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run) by name, with its unit and sample count.
//
//	perfbench --workload sim-qoe --seed 1 --seconds 20 --trace 0
//	perfbench compare <base.json|dir> <head.json|dir>
//	perfbench gen-digests
//
// The last line of standard output is the machine-readable result. A run
// whose output checks fail prints that line with "correct": false and exits
// with status 1. See README.md for the metric → layer → workload table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the untraced run's metrics: what a player, an operator or
// a figure user sees. Every workload reports every one (README.md defines
// each per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"alloc_mb", "MB"},
	{"cpu_ms_per_session_s", "ms"},
	{"response_p50_ms", "ms"},
	{"response_p99_ms", "ms"},
	{"within_budget", "share"},
	{"frames_delivered_share", "share"},
	{"join_p50_ms", "ms"},
	{"join_p95_ms", "ms"},
	{"session_ok_share", "share"},
}

// perLayer lists the traced run's metrics, one layer each.
var perLayer = []metricSpec{
	{"experiment.fig9a_s", "s"},
	{"experiment.fig10a_s", "s"},
	{"experiment.fig11a_s", "s"},
	{"sim.events_executed", "count"},
	{"sim.self_share", "share"},
	{"qoe.self_share", "share"},
	{"sched.self_share", "share"},
	{"adapt.self_share", "share"},
	{"core.self_share", "share"},
	{"spatial.self_share", "share"},
	{"experiment.self_share", "share"},
	{"runtime.gc_share", "share"},
	{"runtime.malloc_share", "share"},
	{"qoe.segments_generated", "count"},
	{"qoe.segments_delivered", "count"},
	{"qoe.segments_dropped", "count"},
	{"sched.packets_dropped", "count"},
	{"adapt.level_changes", "count"},
	{"cloud.cpu_share", "share"},
	{"worker.cpu_share", "share"},
	{"coord.cpu_share", "share"},
	{"client.cpu_share", "share"},
	{"live.self_share", "share"},
	{"proto.self_share", "share"},
	{"world.self_share", "share"},
	{"syscall.self_share", "share"},
	{"cloud.update_bytes_per_s", "B/s"},
	{"cloud.world_entities", "count"},
	{"link.frames_per_write", "count"},
	{"link.send_delay_p50_ms", "ms"},
	{"link.send_delay_p99_ms", "ms"},
	{"link.dropped_frames", "count"},
	{"coord.place_p50_ms", "ms"},
	{"coord.place_p95_ms", "ms"},
	{"player.first_frame_ms", "ms"},
	{"coord.placements", "count"},
	{"coord.renewals", "count"},
	{"coord.replacements", "count"},
	{"coord.rejected", "count"},
	{"coord.drain_sessions", "count"},
	{"coord.drain_stranded", "count"},
	{"coord.drain_s", "s"},
	{"client.handoffs", "count"},
	{"client.failovers", "count"},
	{"client.join_fallbacks", "count"},
	{"bench.gen_late_p99_ms", "ms"},
}

// value is one measured metric: the number and how many samples it
// summarizes (1 for a single reading or a counter).
type value struct {
	V float64 `json:"value"`
	N int     `json:"samples"`
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload measured. E2E and Layer hold every metric the
// workload computed, keyed by name; the run prints the set its trace mode
// selects.
type outcome struct {
	Attempted int
	Failed    int
	Checks    []check
	E2E       map[string]value
	Layer     map[string]value
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Tiny shrinks every workload to a seconds-long smoke (tests only).
	Tiny bool
}

type workloadDef struct {
	Name string
	Run  func(runConfig) (*outcome, error)
}

// workloads are listed, with why each exists, in BENCHMARK.json and
// README.md.
var workloads = []workloadDef{
	{"sim-qoe", runSimQoE},
	{"live-stream", runLiveStream},
	{"live-churn", runLiveChurn},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// record is the full result of one run, written under .bench_build/results
// so runs can be compared later; the printed last line is its summary.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]value  `json:"metrics"`
	Units     map[string]string `json:"units"`
	// Other holds the other trace mode's metrics as this run measured
	// them: the traced run's end-to-end numbers (for the tracing
	// overhead), or the per-layer numbers an untraced run measures
	// without tracing (the per-figure times).
	Other map[string]value `json:"other,omitempty"`
}

// summary is the printed last line.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "gen-digests":
			os.Exit(genDigestsMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim-qoe, live-stream or live-churn")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end)")
	out := fs.String("out", "", "result record path (default .bench_build/results/<workload>/seed<n>-trace<t>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	rec, err := execute(wl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	path := *out
	if path == "" {
		path = filepath.Join(".bench_build", "results", wl.Name,
			fmt.Sprintf("seed%d-trace%d.json", cfg.Seed, *trace))
	}
	printHuman(os.Stdout, rec)
	if cfg.Trace {
		printOverhead(os.Stdout, rec, filepath.Join(filepath.Dir(path), fmt.Sprintf("seed%d-trace0.json", cfg.Seed)))
	}
	if err := writeRecord(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
	}
	line, err := json.Marshal(summarize(rec))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and shapes its outcome into a record holding
// the metric set the trace mode selects.
func execute(wl workloadDef, cfg runConfig) (*record, error) {
	oc, err := wl.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	specs, got := endToEnd, oc.E2E
	if cfg.Trace {
		specs, got = perLayer, oc.Layer
	}
	rec := &record{
		Workload: wl.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Host:    hostBlock(),
		Correct: oc.correct(), Attempted: oc.Attempted, Failed: oc.Failed,
		Checks:  oc.Checks,
		Metrics: make(map[string]value, len(specs)),
		Units:   make(map[string]string, len(specs)),
	}
	rec.Other = oc.Layer
	if cfg.Trace {
		rec.Other = oc.E2E
	}
	for _, s := range specs {
		v, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s not measured", wl.Name, s.Name)
		}
		rec.Metrics[s.Name] = v
		rec.Units[s.Name] = s.Unit
	}
	if rec.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", wl.Name)
	}
	if !rec.Correct {
		// Every operation of a run whose outputs fail a check is suspect.
		rec.Failed = rec.Attempted
	}
	return rec, nil
}

// fillZero sets every per-layer metric a workload does not exercise to
// zero, so each traced run reports the full set.
func fillZero(m map[string]value) {
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			m[s.Name] = value{0, 0}
		}
	}
}

func summarize(rec *record) summary {
	s := summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]summaryValue, len(rec.Metrics))}
	for name, v := range rec.Metrics {
		s.Metrics[name] = summaryValue{Value: v.V, Unit: rec.Units[name]}
	}
	return s
}

func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printHuman(w io.Writer, rec *record) {
	host, _ := json.Marshal(rec.Host)
	fmt.Fprintf(w, "# host %s\n", host)
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# workload %s seed %d seconds %g %s: attempted %d failed %d correct %v\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Attempted, rec.Failed, rec.Correct)
	for _, c := range rec.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# check %s %-28s %s\n", status, c.Name, c.Detail)
	}
	for _, s := range specsFor(rec.Trace) {
		v := rec.Metrics[s.Name]
		fmt.Fprintf(w, "# %-26s %14.6g %-6s n=%d\n", s.Name, v.V, s.Unit, v.N)
	}
	if !rec.Trace {
		// Per-layer numbers measured without tracing (the per-figure
		// times of sim-qoe, the coordinator ledger of the live runs).
		for _, s := range perLayer {
			if v, ok := rec.Other[s.Name]; ok {
				fmt.Fprintf(w, "# untraced %-26s %14.6g %-6s n=%d\n", s.Name, v.V, s.Unit, v.N)
			}
		}
	}
}

// printOverhead prints the traced-minus-untraced difference of every
// end-to-end metric when an untraced record of the same workload and seed
// exists (run --trace 0 first).
func printOverhead(w io.Writer, traced *record, untracedPath string) {
	base, err := readRecord(untracedPath)
	if err != nil || base.Trace || base.Workload != traced.Workload {
		fmt.Fprintf(w, "# tracing overhead: no untraced record at %s (run --trace 0 with this seed first)\n", untracedPath)
		return
	}
	e2e := traced.Other
	for _, s := range endToEnd {
		t, u := e2e[s.Name], base.Metrics[s.Name]
		pct := 0.0
		if u.V != 0 {
			pct = (t.V - u.V) / u.V * 100
		}
		fmt.Fprintf(w, "# overhead %-26s traced %12.6g untraced %12.6g %-6s diff %+12.6g (%+.1f%%)\n",
			s.Name, t.V, u.V, s.Unit, t.V-u.V, pct)
	}
}

func writeRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(buf, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// readRecords loads one record file, or every *.json record under a
// directory.
func readRecords(path string) ([]*record, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		r, err := readRecord(path)
		if err != nil {
			return nil, err
		}
		return []*record{r}, nil
	}
	var recs []*record
	err = filepath.Walk(path, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(p, ".json") {
			return err
		}
		r, err := readRecord(p)
		if err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seed < recs[j].Seed })
	return recs, err
}
