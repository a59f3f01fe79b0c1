package experiment

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/qoe"
	"cloudfog/internal/shard"
)

// scaleTestConfig is a small world the sharded-run tests can afford to run
// dozens of times: enough supernodes that a kd partition has real interior
// boundaries, few enough players that a 60-second horizon runs in
// milliseconds.
func scaleTestConfig(seed int64, shards int) Config {
	cfg := Default(seed)
	cfg.Players = 400
	cfg.Supernodes = 25
	cfg.Datacenters = 3
	cfg.EdgeServers = 6
	cfg.Shards = shards
	return cfg
}

// TestFigscaleShardInvariance is the tentpole property test: for every seed,
// the scaling figure's bytes are identical at 1, 2, 4, and 8 shards — the
// parallel epoch-barrier path reproduces the serial path exactly. Odd seeds
// run the heartbeat detector with the overload ladder, even seeds the
// oracle, so both detection paths are covered.
func TestFigscaleShardInvariance(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	for seed := int64(1); seed <= 16; seed++ {
		o := RunOptions{Horizon: 60 * time.Second, ScaleEpoch: 15 * time.Second}
		if seed%2 == 1 {
			o.Detector = "phi"
			o.Overload = true
		}
		var want string
		for _, shards := range shardCounts {
			w, err := NewWorld(scaleTestConfig(seed, shards))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, fig, err := ScaleRun(w, o)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if res.Shards != shards {
				t.Fatalf("seed %d: result reports %d shards, want %d", seed, res.Shards, shards)
			}
			got := fmt.Sprintf("%#v", fig)
			if shards == shardCounts[0] {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: figscale output diverges at %d shards:\n  1 shard: %s\n  %d shards: %s",
					seed, shards, want, shards, got)
			}
		}
	}
}

// TestScaleRunProgress guards against a vacuous invariance pass: the chaos
// profile must actually kill, detect, and repair, and the node sample must
// actually produce continuity tallies.
func TestScaleRunProgress(t *testing.T) {
	w, err := NewWorld(scaleTestConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, fig, err := ScaleRun(w, RunOptions{
		Horizon: 60 * time.Second, ScaleEpoch: 15 * time.Second,
		Detector: "phi", Overload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 || res.Detections == 0 || res.Repairs == 0 {
		t.Fatalf("chaos made no progress: %+v", res)
	}
	if res.QoEPlayers == 0 || res.MeanContinuity <= 0 {
		t.Fatalf("no segment-level tallies: %+v", res)
	}
	if len(res.Samples) != res.Epochs {
		t.Fatalf("got %d samples for %d epochs", len(res.Samples), res.Epochs)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("figscale has %d series, want 4", len(fig.Series))
	}
	// Orphan ledger: every kill's orphans either repaired, lapsed, or
	// pending at the horizon — and detection never exceeds kills.
	if res.Detections > res.Kills {
		t.Fatalf("%d detections for %d kills", res.Detections, res.Kills)
	}
}

// TestGroupRunShardedMatchesSerial asserts the sharded group-run path (the
// QoE figures' node-level parallelism) reproduces the serial bytes: Figure
// 9(a) computed at Shards=4 equals Shards=1.
func TestGroupRunShardedMatchesSerial(t *testing.T) {
	counts := []int{60, 120}
	horizon := 6 * time.Second
	var want string
	for _, shards := range []int{1, 4} {
		w, err := NewWorld(scaleTestConfig(11, shards))
		if err != nil {
			t.Fatal(err)
		}
		s, err := ContinuityVsPlayers(w, counts, horizon)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%#v", s)
		if shards == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("sharded groupRun diverges from serial:\n serial: %s\n sharded: %s", want, got)
		}
	}
}

// TestCrossShardBackupRingFailover kills one supernode whose players'
// backup ring crosses the partition boundary and checks the barrier
// protocol repairs them onto the other shard: CrossShardRepairs is positive
// at two shards, zero at one shard, and the figure-facing outputs (samples,
// continuity) are identical either way.
func TestCrossShardBackupRingFailover(t *testing.T) {
	horizon := 10 * time.Second
	epoch := 5 * time.Second
	run := func(shards int, target int64) (shard.Result, *shard.Runner) {
		w, err := NewWorld(scaleTestConfig(5, shards))
		if err != nil {
			t.Fatal(err)
		}
		clk := &shard.Clock{}
		fog, err := w.buildHealthFog(clk.Now, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		players := w.JoinAll(fog, w.Cfg.Players)
		sched := &fault.Schedule{Events: []fault.Event{
			{At: time.Second, Op: fault.OpKill, Node: target, D: 2 * time.Second},
		}}
		qopts := qoe.DefaultOptions()
		qopts.Warmup = epoch / 5
		runner := shard.NewRunner(shard.Config{
			Shards: shards, Seed: w.Cfg.Seed, Horizon: horizon, Epoch: epoch,
			Width: w.Cfg.Core.Region.Width, Height: w.Cfg.Core.Region.Height,
			QoE: qopts, QoENodeBudget: 16,
		}, fog, players, sched, w.Respawner(), clk)
		res, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		w.LeaveAll(fog, players)
		return res, runner
	}

	// Find a supernode whose failover lands at least one player on the
	// other shard — with a geographic backup ring, any node near the cut
	// qualifies; scan until one does.
	w, err := NewWorld(scaleTestConfig(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	var target int64 = -1
	var twoShard shard.Result
	for _, fn := range w.FaultTargets().Supernodes {
		res, _ := run(2, fn.ID)
		if res.Kills == 0 {
			continue // no players attached; kill skipped or irrelevant
		}
		if res.CrossShardRepairs > 0 {
			target, twoShard = fn.ID, res
			break
		}
	}
	if target < 0 {
		t.Fatal("no supernode produced a cross-shard failover; partition or backup ring is broken")
	}
	if twoShard.Repairs == 0 {
		t.Fatalf("cross-shard repairs without repairs: %+v", twoShard)
	}

	oneShard, _ := run(1, target)
	if oneShard.CrossShardRepairs != 0 {
		t.Fatalf("single shard reports %d cross-shard repairs", oneShard.CrossShardRepairs)
	}
	inv := func(r shard.Result) string {
		return fmt.Sprintf("%#v|%v|%d|%d|%d|%d", r.Samples, r.MeanContinuity,
			r.Kills, r.Detections, r.Repairs, r.Lapsed)
	}
	if inv(oneShard) != inv(twoShard) {
		t.Fatalf("invariant outputs diverge across shard counts:\n 1: %s\n 2: %s",
			inv(oneShard), inv(twoShard))
	}
}

// benchScaleWorld is the 100k-player world BenchmarkShardedRun runs:
// generated once, reused across shard counts (runs join and leave cleanly).
var benchScaleWorld = sync.OnceValues(func() (*World, error) {
	cfg := Default(2026)
	cfg.Players = 100_000
	cfg.Supernodes = 6250
	cfg.EdgeServers = 45
	return NewWorld(cfg)
})

// BenchmarkShardedRun is the sharded single-run scaling curve: one full
// scaling run (100k players, two epochs of the scale chaos profile under
// the phi detector with the overload ladder) at each shard count. On k
// cores the data-plane phase shrinks toward 1/k; on one core the curve is
// flat and shows the parallel path costs no more than the serial one.
func BenchmarkShardedRun(b *testing.B) {
	w, err := benchScaleWorld()
	if err != nil {
		b.Fatal(err)
	}
	o := RunOptions{Horizon: 20 * time.Second, ScaleEpoch: 10 * time.Second, Detector: "phi", Overload: true}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w.Cfg.Shards = shards
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ScaleRun(w, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
