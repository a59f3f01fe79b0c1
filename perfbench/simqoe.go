package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"
	"time"

	"cloudfog/internal/experiment"
	"cloudfog/internal/obs"
)

// simSize is one sim-qoe world and figure sweep.
type simSize struct {
	Tag                             string
	Players, Supernodes, EdgeServer int
	Horizon                         time.Duration
	Counts, Loads                   []int // nil = paper defaults
	// Seeds is how many worlds (world seeds 1..Seeds) a run cycles
	// through, each with a committed digest; --seed n starts at world
	// seed 1 + (n mod Seeds).
	Seeds int
}

// benchSim is the bench world cloudfog-bench also uses (2,500 players,
// 200 supernodes, 20 edge servers) at a 30 s horizon.
var benchSim = simSize{Tag: "bench", Players: 2500, Supernodes: 200, EdgeServer: 20,
	Horizon: 30 * time.Second, Seeds: 16}

var tinySim = simSize{Tag: "tiny", Players: 300, Supernodes: 20, EdgeServer: 5,
	Horizon: 3 * time.Second, Counts: []int{100, 200}, Loads: []int{5, 10}, Seeds: 2}

var simFigures = []string{"fig9a", "fig10a", "fig11a"}

func (s simSize) worldSeed(seed int64) int64 {
	m := seed % int64(s.Seeds)
	if m < 0 {
		m += int64(s.Seeds)
	}
	return 1 + m
}

func (s simSize) runOptions() experiment.RunOptions {
	return experiment.RunOptions{Horizon: s.Horizon, ContinuityCounts: s.Counts, Loads: s.Loads}
}

func (s simSize) config(worldSeed int64) experiment.Config {
	cfg := experiment.Default(worldSeed)
	cfg.Players = s.Players
	cfg.Supernodes = s.Supernodes
	cfg.EdgeServers = s.EdgeServer
	return cfg
}

// sessionSeconds is the simulated session-seconds one regeneration offers:
// fig9a runs four systems per player count for Horizon/3, and fig10a and
// fig11a each run two variants per load for Horizon.
func (s simSize) sessionSeconds() float64 {
	o := experiment.DefaultRunOptions()
	counts, loads := s.Counts, s.Loads
	if counts == nil {
		counts = o.ContinuityCounts
	}
	if loads == nil {
		loads = o.Loads
	}
	var players, load int
	for _, c := range counts {
		if c <= s.Players {
			players += c
		}
	}
	for _, l := range loads {
		load += l
	}
	h := s.Horizon.Seconds()
	return 4*float64(players)*h/3 + 2*2*float64(load)*h
}

// simCounts are the exact obs counts one regeneration produces.
type simCounts struct {
	EventsExecuted    int64 `json:"events_executed"`
	SegmentsGenerated int64 `json:"segments_generated"`
	SegmentsDelivered int64 `json:"segments_delivered"`
	SegmentsDropped   int64 `json:"segments_dropped"`
	PacketsDropped    int64 `json:"packets_dropped"`
	LevelChanges      int64 `json:"level_changes"`
}

func countsOf(s obs.Snapshot) simCounts {
	c := s.Counters
	return simCounts{
		EventsExecuted:    c["cloudfog_engine_events_executed_total"],
		SegmentsGenerated: c["cloudfog_qoe_segments_generated_total"],
		SegmentsDelivered: c["cloudfog_qoe_segments_delivered_total"],
		SegmentsDropped:   c["cloudfog_qoe_segments_dropped_total"],
		PacketsDropped:    c["cloudfog_qoe_packets_dropped_total"],
		LevelChanges:      c["cloudfog_qoe_level_ups_total"] + c["cloudfog_qoe_level_downs_total"],
	}
}

func (c simCounts) minus(o simCounts) simCounts {
	return simCounts{
		c.EventsExecuted - o.EventsExecuted, c.SegmentsGenerated - o.SegmentsGenerated,
		c.SegmentsDelivered - o.SegmentsDelivered, c.SegmentsDropped - o.SegmentsDropped,
		c.PacketsDropped - o.PacketsDropped, c.LevelChanges - o.LevelChanges,
	}
}

// expected is one committed reference: the figure digest and exact counts
// of one regeneration at one size and world seed.
type expected struct {
	Digest string    `json:"digest"`
	Counts simCounts `json:"counts"`
}

//go:embed digests.json
var digestsJSON []byte

func digestKey(s simSize, worldSeed int64) string {
	return fmt.Sprintf("%s/seed=%d", s.Tag, worldSeed)
}

func committedDigests() (map[string]expected, error) {
	m := make(map[string]expected)
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// writeFigure appends a figure's canonical bytes: every label and every
// point at full float precision, so any change to a plotted value changes
// the digest.
func writeFigure(h hash.Hash, name string, f experiment.FigureResult) {
	fmt.Fprintf(h, "%s|%s|%s\n", name, f.Title, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(h, "series %s\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(h, "%s %s\n", strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64))
		}
	}
	for _, l := range f.Latency {
		fmt.Fprintf(h, "latency %+v\n", l)
	}
}

// simIteration is one regeneration of fig9a + fig10a + fig11a.
type simIteration struct {
	cpu        time.Duration
	alloc      uint64
	figWall    []time.Duration // per simFigures entry
	figCPU     []time.Duration // process CPU time per simFigures entry
	digest     string
	counts     simCounts
	continuity []float64 // fig9a points
	satisfied  []float64 // fig10a + fig11a points
}

func regenerate(w *experiment.World, opts experiment.RunOptions, reg *obs.Registry) (simIteration, error) {
	var it simIteration
	var before simCounts
	if reg != nil {
		before = countsOf(reg.Snapshot())
	}
	h := sha256.New()
	cpu0, alloc0 := cpuTime(), allocBytes()
	for _, name := range simFigures {
		fig, err := experiment.FigureByName(name)
		if err != nil {
			return it, err
		}
		f0, c0 := time.Now(), cpuTime()
		res, err := fig.Run(w, opts)
		if err != nil {
			return it, fmt.Errorf("%s: %w", name, err)
		}
		it.figWall = append(it.figWall, time.Since(f0))
		it.figCPU = append(it.figCPU, cpuTime()-c0)
		writeFigure(h, name, res)
		for _, s := range res.Series {
			for _, p := range s.Points {
				if name == "fig9a" {
					it.continuity = append(it.continuity, p.Y)
				} else {
					it.satisfied = append(it.satisfied, p.Y)
				}
			}
		}
	}
	it.cpu, it.alloc = cpuTime()-cpu0, allocBytes()-alloc0
	it.digest = hex.EncodeToString(h.Sum(nil))
	if reg != nil {
		it.counts = countsOf(reg.Snapshot()).minus(before)
	}
	return it, nil
}

func runSimQoE(cfg runConfig) (*outcome, error) {
	size := benchSim
	if cfg.Tiny {
		size = tinySim
	}
	want, err := committedDigests()
	if err != nil {
		return nil, err
	}

	var reg *obs.Registry
	if cfg.Trace {
		reg = obs.NewRegistry()
	}
	opts := size.runOptions()

	// Regenerate the figures on one world after another, starting at the
	// seed's world: a run covers many worlds, so its medians do not hinge
	// on one world's population. Each world is built just before its
	// regeneration (set-up time is the median build) and dropped after
	// it, so one world is live at a time.
	prof, err := startProfile(cfg.Trace)
	if err != nil {
		return nil, err
	}
	smp := startSampler(time.Second)
	type run struct {
		it   simIteration
		ws   int64
		want expected
		ok   bool
	}
	var runs []run
	var setups []float64
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for i := 0; len(runs) < 3 || time.Now().Before(deadline); i++ {
		ws := size.worldSeed(cfg.Seed + int64(i))
		c0 := cpuTime()
		w, err := experiment.NewWorld(size.config(ws))
		if err == nil {
			setups = append(setups, (cpuTime() - c0).Seconds())
			w.Cfg.Obs = reg
			var it simIteration
			if it, err = regenerate(w, opts, reg); err == nil {
				ref, ok := want[digestKey(size, ws)]
				runs = append(runs, run{it, ws, ref, ok})
			}
		}
		if err != nil {
			smp.Stop()
			prof.shares()
			return nil, err
		}
	}
	wins := smp.Stop()
	shares, profSamples, err := prof.shares()
	if err != nil {
		return nil, err
	}

	oc := &outcome{Attempted: len(runs), E2E: map[string]value{}, Layer: map[string]value{}}
	ok, refs, same := 0, 0, 0
	var mismatch []string
	for _, r := range runs {
		if r.ok {
			refs++
		}
		if r.ok && r.it.digest == r.want.Digest {
			ok++
		} else if len(mismatch) < 3 {
			mismatch = append(mismatch, fmt.Sprintf("world %d: %.12s", r.ws, r.it.digest))
		}
		if r.ok && r.it.counts == r.want.Counts {
			same++
		}
	}
	oc.Failed = len(runs) - ok
	oc.check("sim.reference_present", refs == len(runs), "%d/%d regenerations have a committed digest", refs, len(runs))
	oc.check("sim.figure_digest", ok == len(runs), "%d/%d regenerations match the committed figure digest %v",
		ok, len(runs), mismatch)
	if cfg.Trace {
		oc.check("sim.exact_counts", same == len(runs), "%d/%d regenerations repeat the committed obs counts", same, len(runs))
	}

	var cpus, allocs, resp, joins, cont, sat []float64
	fig := make([][]float64, len(simFigures))
	for _, r := range runs {
		it := r.it
		cpus = append(cpus, ms(it.cpu)/size.sessionSeconds())
		allocs = append(allocs, float64(it.alloc)/1e6)
		for i, d := range it.figWall {
			fig[i] = append(fig[i], d.Seconds())
			resp = append(resp, ms(it.figCPU[i]))
		}
		joins = append(joins, ms(it.figCPU[0]))
		cont = append(cont, it.continuity...)
		sat = append(sat, it.satisfied...)
	}
	n := len(runs)
	oc.E2E["setup_s"] = value{median(setups), len(setups)}
	oc.E2E["heap_peak_mb"] = value{medianHeapPeak(wins), len(wins)}
	oc.E2E["alloc_mb"] = value{median(allocs), n}
	oc.E2E["cpu_ms_per_session_s"] = value{median(cpus), n}
	oc.E2E["response_p50_ms"] = value{quantile(resp, 0.5), len(resp)}
	oc.E2E["response_p99_ms"] = value{quantile(resp, 0.99), len(resp)}
	oc.E2E["within_budget"] = value{mean(sat), len(sat)}
	oc.E2E["frames_delivered_share"] = value{mean(cont), len(cont)}
	oc.E2E["join_p50_ms"] = value{quantile(joins, 0.5), n}
	oc.E2E["join_p95_ms"] = value{quantile(joins, 0.95), n}
	oc.E2E["session_ok_share"] = value{float64(ok) / float64(n), n}

	for i, name := range simFigures {
		oc.Layer["experiment."+name+"_s"] = value{median(fig[i]), n}
	}
	if cfg.Trace {
		// The exact counts of the first regeneration, on the seed's own
		// world; every regeneration was checked against its world's
		// committed counts above.
		counts := runs[0].it.counts
		oc.Layer["sim.events_executed"] = value{float64(counts.EventsExecuted), 1}
		oc.Layer["qoe.segments_generated"] = value{float64(counts.SegmentsGenerated), 1}
		oc.Layer["qoe.segments_delivered"] = value{float64(counts.SegmentsDelivered), 1}
		oc.Layer["qoe.segments_dropped"] = value{float64(counts.SegmentsDropped), 1}
		oc.Layer["sched.packets_dropped"] = value{float64(counts.PacketsDropped), 1}
		oc.Layer["adapt.level_changes"] = value{float64(counts.LevelChanges), 1}
		for k, v := range shares {
			oc.Layer[k] = value{v, profSamples}
		}
		fillZero(oc.Layer)
	}
	return oc, nil
}

// genDigestsMain regenerates digests.json: one traced regeneration per
// size and world seed. Run it from the checkout root after a change that
// is meant to alter figure bytes, and commit the result.
func genDigestsMain(args []string) int {
	path := "perfbench/digests.json"
	if len(args) > 0 {
		path = args[0]
	}
	out := make(map[string]expected)
	for _, size := range []simSize{tinySim, benchSim} {
		for ws := int64(1); ws <= int64(size.Seeds); ws++ {
			w, err := experiment.NewWorld(size.config(ws))
			if err != nil {
				fmt.Fprintln(os.Stderr, "gen-digests:", err)
				return 1
			}
			reg := obs.NewRegistry()
			w.Cfg.Obs = reg
			it, err := regenerate(w, size.runOptions(), reg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gen-digests:", err)
				return 1
			}
			out[digestKey(size, ws)] = expected{Digest: it.digest, Counts: it.counts}
			fmt.Printf("%s %s %+v\n", digestKey(size, ws), it.digest, it.counts)
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen-digests:", err)
		return 1
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gen-digests:", err)
		return 1
	}
	return 0
}
