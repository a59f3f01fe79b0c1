package main

import (
	"encoding/json"
	"os"
	"testing"

	"cloudfog/internal/experiment"
	"cloudfog/internal/obs"
)

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metric and
// workload lists the binary prints in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, set := range []struct {
		name  string
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.json) != len(set.specs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", set.name, len(set.json), len(set.specs))
		}
		for i, m := range set.json {
			if m.Name != set.specs[i].Name || m.Unit != set.specs[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, binary %s/%s",
					set.name, i, m.Name, m.Unit, set.specs[i].Name, set.specs[i].Unit)
			}
		}
	}
}

// wantChecks names the output checks each workload must run.
var wantChecks = map[string][]string{
	"sim-qoe":     {"sim.reference_present", "sim.figure_digest"},
	"live-stream": {"live.ledger_settled", "live.ledger_balanced", "live.sessions_accounted", "live.drains"},
	"live-churn":  {"live.ledger_settled", "live.ledger_balanced", "live.sessions_accounted", "live.drains"},
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// asserts that each named metric is emitted with its unit and that every
// output check ran and passed.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			name := wl.Name + "/untraced"
			if trace {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rec, err := execute(wl, runConfig{Seed: 7, Seconds: 3, Trace: trace, Tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				specs := specsFor(trace)
				line, err := json.Marshal(summarize(rec))
				if err != nil {
					t.Fatal(err)
				}
				var sum map[string]json.RawMessage
				if err := json.Unmarshal(line, &sum); err != nil {
					t.Fatal(err)
				}
				if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
					t.Fatalf("summary keys: %s", line)
				}
				var metrics map[string]summaryValue
				if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(specs) {
					t.Errorf("%d metrics printed, want %d", len(metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", s.Name, m, ok, s.Unit)
					}
				}
				ran := make(map[string]bool)
				for _, c := range rec.Checks {
					ran[c.Name] = true
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				want := wantChecks[wl.Name]
				if wl.Name == "sim-qoe" && trace {
					want = append(want, "sim.exact_counts")
				}
				for _, c := range want {
					if !ran[c] {
						t.Errorf("check %s did not run", c)
					}
				}
				if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
					t.Errorf("correct %v attempted %d failed %d", rec.Correct, rec.Attempted, rec.Failed)
				}
				if !trace {
					for _, s := range []string{"setup_s", "response_p50_ms", "join_p50_ms", "cpu_ms_per_session_s"} {
						if rec.Metrics[s].V <= 0 {
							t.Errorf("%s = %v, want > 0", s, rec.Metrics[s].V)
						}
					}
				}
				if trace && wl.Name != "sim-qoe" {
					var roles float64
					for _, r := range []string{"cloud", "worker", "coord", "client"} {
						roles += rec.Metrics[r+".cpu_share"].V
					}
					if roles <= 0 || roles > 1.0001 {
						t.Errorf("role CPU shares sum to %v, want (0, 1]", roles)
					}
				}
			})
		}
	}
}

// TestSimRepeat regenerates the tiny figures twice on one world: the digest
// and the exact obs counts must repeat and match the committed reference.
func TestSimRepeat(t *testing.T) {
	want, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := want[digestKey(tinySim, 1)]
	if !ok {
		t.Fatal("no committed tiny digest")
	}
	w, err := experiment.NewWorld(tinySim.config(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.Cfg.Obs = reg
	var runs []simIteration
	for i := 0; i < 2; i++ {
		it, err := regenerate(w, tinySim.runOptions(), reg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, it)
	}
	for i, it := range runs {
		if it.digest != ref.Digest || it.counts != ref.Counts {
			t.Errorf("run %d: digest %.12s counts %+v, committed %.12s %+v", i, it.digest, it.counts, ref.Digest, ref.Counts)
		}
	}
	if runs[0].counts.EventsExecuted == 0 {
		t.Error("no engine events counted")
	}
}

// TestFailedCheckFailsRun: a workload whose output check fails prints
// "correct": false, counts every operation failed, and exits 1.
func TestFailedCheckFailsRun(t *testing.T) {
	bad := workloadDef{Name: "bad", Run: func(runConfig) (*outcome, error) {
		oc := &outcome{Attempted: 3, E2E: map[string]value{}, Layer: map[string]value{}}
		for _, s := range endToEnd {
			oc.E2E[s.Name] = value{1, 1}
		}
		oc.check("always", false, "injected")
		return oc, nil
	}}
	saved := workloads
	workloads = append(append([]workloadDef{}, workloads...), bad)
	defer func() { workloads = saved }()
	rec, err := execute(bad, runConfig{Seed: 1, Seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted {
		t.Errorf("correct %v failed %d of %d", rec.Correct, rec.Failed, rec.Attempted)
	}
	out := t.TempDir() + "/rec.json"
	if code := runMain([]string{"--workload", "bad", "--seconds", "1", "--out", out}); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}

// TestHistQuantile pins the bucket interpolation the link delay
// percentiles use.
func TestHistQuantile(t *testing.T) {
	bounds := []int64{10, 20, 50}
	counts := []int64{0, 10, 0, 0}
	if got := histQuantile(bounds, counts, 0.5); got != 15 {
		t.Errorf("p50 = %v, want 15", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 0, 4}, 0.99); got != 50 {
		t.Errorf("overflow p99 = %v, want 50", got)
	}
}
