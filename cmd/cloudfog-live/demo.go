package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"cloudfog/internal/coord"
	"cloudfog/internal/fault"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/obs"
	"cloudfog/internal/trace"
	"cloudfog/internal/world"
)

// Fixed demo knobs: the video frame rate (also the cloud tick and the
// direct-stream rate), the ticket signing key, the coordinator's phi
// detector interval, the workers' report period, and the first player ID
// (worker IDs count up from 1, so the two never collide).
const (
	demoFPS         = 30
	demoTicketKey   = "demo-key"
	demoInterval    = 100 * time.Millisecond
	demoReportEvery = 50 * time.Millisecond
	firstPlayerID   = 600
)

// defaultLiveChaos is the built-in -chaos profile, scaled to the session
// length: one worker dies and recovers each quarter of the run, with a
// mid-run latency spike and loss burst on every stream.
func defaultLiveChaos(seed int64, duration time.Duration) *fault.Profile {
	q := duration / 4
	return &fault.Profile{
		Name:     "live-default",
		Seed:     seed,
		Duration: fault.Dur(duration),
		Specs: []fault.Spec{
			{Kind: fault.KindCrash, Period: fault.Dur(q), MTTR: fault.Dur(q),
				Detect: fault.Dur(100 * time.Millisecond)},
			{Kind: fault.KindLatency, MeanGood: fault.Dur(duration / 3),
				MeanBad: fault.Dur(duration / 6), Extra: fault.Dur(30 * time.Millisecond)},
			{Kind: fault.KindLoss, MeanGood: fault.Dur(duration / 3),
				MeanBad: fault.Dur(duration / 8), LossFrac: 0.1},
		},
	}
}

// demoFlags are the demo subcommand's knobs.
type demoFlags struct {
	workers, players int
	duration         time.Duration
	seed             int64
	transport        string
	lease            time.Duration
	drain            bool
	drainTimeout     time.Duration
	chaos            string
	metricsAddr      string
	report           string
}

func parseDemoFlags(args []string) (demoFlags, error) {
	var f demoFlags
	fs := flag.NewFlagSet("cloudfog-live demo", flag.ExitOnError)
	fs.IntVar(&f.workers, "workers", 3, "worker (supernode) count")
	fs.IntVar(&f.players, "players", 6, "player count")
	fs.DurationVar(&f.duration, "duration", 4*time.Second, "player session length")
	fs.Int64Var(&f.seed, "seed", 7, "latency landscape (and default chaos profile) seed")
	fs.StringVar(&f.transport, "transport", live.TransportTCP, "workers' video stream transport: tcp (reliable, coalesced writes) or udp (datagrams, stale frames dropped); control links are always tcp")
	fs.DurationVar(&f.lease, "lease", 0, "ticket lease TTL (0 disables leases)")
	fs.BoolVar(&f.drain, "drain", false, "SIGTERM-drain the victim worker instead of killing it — fails on any stream interruption")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", 0, "worker drain deadline (0 = default)")
	fs.StringVar(&f.chaos, "chaos", "", "fault profile JSON path, or \"default\" for a built-in profile scaled to -duration; replaces the scripted victim")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve Prometheus text metrics on this address (e.g. 127.0.0.1:9100)")
	fs.StringVar(&f.report, "report", "", "write the ledger reconciliation JSON here on exit (\"-\" = stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `cloudfog-live demo [flags]

Runs cloud, coordinator, workers and players in one process, placing every
player through the coordinator. Without -chaos one worker is killed (or,
with -drain, SIGTERM-drained) a quarter into the run; with -chaos the
fault profile's kills, recoveries and link impairments replace it. Fails
unless every player completes and the session ledger reconciles.

Flags:`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	switch {
	case f.workers <= 0 || f.players <= 0:
		return f, fmt.Errorf("-workers and -players must be positive")
	case f.transport != live.TransportTCP && f.transport != live.TransportUDP:
		return f, fmt.Errorf("-transport %q is not tcp or udp", f.transport)
	case f.drain && f.chaos != "":
		return f, fmt.Errorf("-drain scripts the victim worker; -chaos replaces it")
	}
	return f, nil
}

// workerPos and playerPos lay the demo out in world coordinates: workers
// on a 3-wide grid, players along one row.
func workerPos(id int64) (x, y float64) {
	return float64(1500 + (id-1)%3*3500), float64(2500 + (id-1)/3*5000)
}

func playerPos(id int64) (x, y float64) {
	return float64(1000 + (id-firstPlayerID)*1500%9000), 3000
}

// topology places every demo endpoint in the latency trace by scaling its
// world position onto the US region, so the data path's injected one-way
// delays agree with placement distance. It is complete before any role
// starts and read-only after.
type topology struct {
	model   trace.Model
	dc      trace.Endpoint
	workers map[int64]trace.Endpoint
	players map[int64]trace.Endpoint
}

func newTopology(seed int64, workers, players int) *topology {
	tp := &topology{
		model:   trace.DefaultModel(seed),
		dc:      trace.Endpoint{ID: 2_000_000, Pos: geo.USRegion().Center(), Class: trace.ClassDatacenter},
		workers: make(map[int64]trace.Endpoint, workers),
		players: make(map[int64]trace.Endpoint, players),
	}
	b, rg := world.DefaultConfig().Bounds, geo.USRegion()
	endpoint := func(id int64, x, y float64, class trace.Class) trace.Endpoint {
		return trace.Endpoint{ID: trace.NodeID(id), Class: class, Pos: geo.Point{
			X: (x - b.Min.X) / b.Width() * rg.Width,
			Y: (y - b.Min.Y) / b.Height() * rg.Height,
		}}
	}
	for id := int64(1); id <= int64(workers); id++ {
		x, y := workerPos(id)
		tp.workers[id] = endpoint(1_000_000+id, x, y, trace.ClassSupernode)
	}
	for id := int64(firstPlayerID); id < firstPlayerID+int64(players); id++ {
		x, y := playerPos(id)
		tp.players[id] = endpoint(id, x, y, trace.ClassNode)
	}
	return tp
}

// delayFrom returns the one-way delays from one endpoint toward the peers in
// to, keyed by live ID. Any other ID gets none: a worker's control dial to
// the coordinator is keyed by its own ID, so control links stay undelayed.
func (tp *topology) delayFrom(from trace.Endpoint, to map[int64]trace.Endpoint) func(int64) time.Duration {
	return func(id int64) time.Duration {
		ep, ok := to[id]
		if !ok {
			return 0
		}
		return tp.model.OneWay(from, ep)
	}
}

// fleet is the demo's workers. alive is what chaos can kill and restart;
// addrs pins each worker's stream address so a restart comes back where the
// players' backup rings expect it; started keeps every instance for
// shutdown and the bandwidth ledger.
type fleet struct {
	tp   *topology
	base live.Config // shared worker fields; start fills in the rest
	opts []live.Option

	mu      sync.Mutex
	alive   map[int64]*coord.Worker
	addrs   map[int64]string
	started []*coord.Worker
}

// start launches worker id on addr.
func (fl *fleet) start(id int64, addr string) (*coord.Worker, error) {
	ep := fl.tp.workers[id]
	cfg := fl.base
	cfg.ID, cfg.Addr = id, addr
	cfg.X, cfg.Y = workerPos(id)
	cfg.DelayToCloud = fl.tp.model.OneWay(ep, fl.tp.dc)
	w, err := coord.StartWorker(cfg, append(slices.Clip(fl.opts),
		live.WithDelayFor(fl.tp.delayFrom(ep, fl.tp.players)))...)
	if err != nil {
		return nil, err
	}
	fl.mu.Lock()
	fl.alive[id] = w
	fl.addrs[id] = w.Addr()
	fl.started = append(fl.started, w)
	fl.mu.Unlock()
	return w, nil
}

// kill closes worker id abruptly: the chaos Kill hook.
func (fl *fleet) kill(id int64) {
	fl.mu.Lock()
	w := fl.alive[id]
	delete(fl.alive, id)
	fl.mu.Unlock()
	if w != nil {
		fmt.Printf("chaos: killing worker %d\n", id)
		w.Close()
	}
}

// restart starts worker id again at its pinned address: the chaos Recover
// hook.
func (fl *fleet) restart(id int64) {
	fl.mu.Lock()
	addr := fl.addrs[id]
	fl.mu.Unlock()
	if _, err := fl.start(id, addr); err != nil {
		fmt.Printf("chaos: worker %d failed to restart on %s: %v\n", id, addr, err)
		return
	}
	fmt.Printf("chaos: worker %d restarted on %s\n", id, addr)
}

// impair applies a link impairment to every live worker's player streams:
// the chaos Link hook.
func (fl *fleet) impair(extra time.Duration, lossFrac float64) {
	fl.mu.Lock()
	for _, w := range fl.alive {
		w.Supernode().ImpairStreams(extra, lossFrac)
	}
	fl.mu.Unlock()
	fmt.Printf("chaos: link impairment extra=%v loss=%.0f%%\n", extra, lossFrac*100)
}

// updateBytes sums the cloud update stream every worker instance received.
func (fl *fleet) updateBytes() int64 {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	var total int64
	for _, w := range fl.started {
		_, b := w.Supernode().UpdateTraffic()
		total += b
	}
	return total
}

func (fl *fleet) close() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, w := range fl.started {
		w.Close()
	}
}

// demoRun is one placed player session.
type demoRun struct {
	id   int64
	game game.Game
	sess *coord.Session
	rep  live.PlayerReport
	err  error
}

// runDemo is the `make coord`, `make coord-drain` and live chaos smoke: a
// full local deployment with workers taken out mid-stream. The scripted
// kill fails unless stranded sessions re-place; the scripted drain fails on
// any visible stream interruption or a drain slower than the detector
// Bound(); a chaos run fails unless every in-horizon kill of the schedule
// was applied. All fail unless every player completes and the session
// ledger reconciles.
func runDemo(args []string) error {
	f, err := parseDemoFlags(args)
	if err != nil {
		return err
	}
	reg, opts, err := metricsOptions(f.metricsAddr)
	if err != nil {
		return err
	}
	tp := newTopology(f.seed, f.workers, f.players)

	tick := time.Second / demoFPS
	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: tick,
		// The cloud always offers direct streaming so a player whose whole
		// backup ring is down degrades to the cloud instead of going dark.
		DirectFPS: demoFPS,
	}, append(slices.Clip(opts), live.WithDelayFor(tp.delayFrom(tp.dc, tp.workers)))...)
	if err != nil {
		return err
	}
	defer cloud.Close()
	cloud.World(func(w *world.World) {
		for i := 0; i < 40; i++ {
			w.SpawnObject(world.Vec2{X: float64(i * 250 % 10000), Y: float64(i * 777 % 10000)})
		}
	})
	fmt.Printf("cloud on %s (tick %v)\n", cloud.Addr(), tick)

	c, err := coord.StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), TicketKey: demoTicketKey,
		Detector: health.DetectorConfig{Mode: health.ModePhi, Interval: demoInterval},
		LeaseTTL: f.lease,
	}, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("coordinator on %s (detector bound %v, lease %v, worker streams over %s)\n",
		c.Addr(), c.Bound(), f.lease, f.transport)

	fl := &fleet{
		tp: tp, opts: opts,
		base: live.Config{
			Role: live.RoleSupernode, CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			TicketKey: demoTicketKey, Transport: f.transport, FPS: demoFPS,
			Capacity: 16, ReportEvery: demoReportEvery, DrainTimeout: f.drainTimeout,
		},
		alive: make(map[int64]*coord.Worker, f.workers),
		addrs: make(map[int64]string, f.workers),
	}
	defer fl.close()
	var targets fault.Targets
	for id := int64(1); id <= int64(f.workers); id++ {
		w, err := fl.start(id, "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("worker %d: %w", id, err)
		}
		ep := tp.workers[id]
		targets.Supernodes = append(targets.Supernodes, fault.Node{ID: id, X: ep.Pos.X, Y: ep.Pos.Y})
		fmt.Printf("worker %d on %s (update hop %v)\n",
			id, w.Addr(), tp.model.OneWay(tp.dc, ep).Round(time.Millisecond))
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.WorkersAlive() < f.workers {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d/%d workers registered", c.WorkersAlive(), f.workers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Open every session first so the scripted victim's sessions are known
	// before the run starts.
	runs := make([]*demoRun, f.players)
	for i := range runs {
		id := int64(firstPlayerID + i)
		up := tp.model.OneWay(tp.players[id], tp.dc)
		gameID := i%3 + 3 // games 3-5: budgets a wide-area path can meet
		x, y := playerPos(id)
		r := &demoRun{id: id}
		r.game, _ = game.ByID(gameID)
		r.sess, err = coord.OpenSession(context.Background(), live.Config{
			Role: live.RolePlayer, ID: id, GameID: gameID,
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(), TicketKey: demoTicketKey,
			X: x, Y: y, ActionEvery: 200 * time.Millisecond,
			ActionDelay: up, UploadAllowance: up,
		}, opts...)
		if err != nil {
			return fmt.Errorf("player %d session: %w", id, err)
		}
		defer r.sess.Close()
		runs[i] = r
	}

	// Chaos: replay the fault profile in wall-clock time against the fleet.
	faultStats := obs.NewFaultStats()
	if reg != nil {
		faultStats = obs.FaultStatsIn(reg)
	}
	var (
		chaosDone chan struct{}
		chaosErr  error
		wantKills int64
	)
	if f.chaos != "" {
		profile := defaultLiveChaos(f.seed, f.duration)
		if f.chaos != "default" {
			if profile, err = fault.Load(f.chaos); err != nil {
				return err
			}
		}
		sched, err := fault.Compile(profile, targets)
		if err != nil {
			return err
		}
		for _, ev := range sched.Events {
			if ev.Op == fault.OpKill && ev.At < profile.Duration.Duration {
				wantKills++
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		chaosDone = make(chan struct{})
		go func() {
			defer close(chaosDone)
			hooks := fault.WallHooks{Kill: fl.kill, Recover: fl.restart, Link: fl.impair}
			chaosErr = fault.RunWall(ctx, sched, hooks, faultStats)
		}()
		// An early return stops the replay before the fleet closes.
		defer func() { cancel(); <-chaosDone }()
		fmt.Printf("chaos profile %q armed: %d scheduled events over %v\n",
			profile.Name, len(sched.Events), profile.Duration.Duration)
	}

	fmt.Printf("\nrunning %d players for %v...\n\n", f.players, f.duration)
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *demoRun) {
			defer wg.Done()
			r.rep, r.err = r.sess.Run(f.duration, opts...)
		}(r)
	}

	// Without chaos, take one worker out a quarter into the run.
	affected := 0
	if chaosDone == nil {
		victim := fl.started[0]
		time.Sleep(f.duration / 4)
		for _, r := range runs {
			if r.sess.Ticket().Worker == victim.ID() {
				affected++
			}
		}
		if f.drain {
			fmt.Printf("draining worker %d mid-stream (%d sessions)\n", victim.ID(), affected)
			began := time.Now()
			drained := victim.Drain()
			took := time.Since(began)
			if !drained {
				return fmt.Errorf("worker %d did not empty before its drain deadline", victim.ID())
			}
			if took > c.Bound() {
				return fmt.Errorf("drain took %v, beyond detector bound %v", took, c.Bound())
			}
			fmt.Printf("worker %d drained in %v (bound %v)\n", victim.ID(), took, c.Bound())
		} else {
			fmt.Printf("killing worker %d mid-stream\n", victim.ID())
			victim.Close()
		}
	}
	wg.Wait()
	if chaosDone != nil {
		// Let the schedule play out to its horizon so every in-horizon kill
		// is applied before the ledgers are checked.
		<-chaosDone
		if chaosErr != nil {
			return fmt.Errorf("chaos: %w", chaosErr)
		}
	}

	// Report every player — including the failed ones — before failing.
	var (
		failed                                          []error
		videoBytes, handoffs, failovers, cloudFallbacks int64
	)
	for _, r := range runs {
		if r.err != nil {
			failed = append(failed, fmt.Errorf("player %d: %w", r.id, r.err))
			fmt.Printf("player %d FAILED: %v\n", r.id, r.err)
			continue
		}
		videoBytes += r.rep.Bytes
		handoffs += r.rep.Handoffs
		failovers += r.rep.Failovers
		if r.rep.CloudFallback {
			cloudFallbacks++
		}
		fmt.Printf("player %d (%-10s req %3dms): worker %d, %3d segments, %6.1f KB video, response mean %v p95 %v, %3.0f%% within budget, %d failovers, %d handoffs\n",
			r.id, r.game.Name, r.game.ResponseRequirement().Milliseconds(), r.sess.Ticket().Worker,
			r.rep.Segments, float64(r.rep.Bytes)/1000,
			r.rep.MeanResponse.Round(time.Millisecond), r.rep.P95Response.Round(time.Millisecond),
			r.rep.WithinBudget*100, r.rep.Failovers, r.rep.Handoffs)
		r.sess.Close()
	}
	updBytes := fl.updateBytes()
	fmt.Printf("\nbandwidth ledger: cloud shipped %.1f KB of updates; workers shipped %.1f KB of video (%.1fx reduction)\n",
		float64(updBytes)/1000, float64(videoBytes)/1000, float64(videoBytes)/float64(updBytes+1))
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d players failed: %w", len(failed), f.players, errors.Join(failed...))
	}

	// Sessions have departed; reconcile.
	deadline = time.Now().Add(5 * time.Second)
	for {
		l := c.Ledger()
		if l.ActiveOriginal+l.ActiveReplaced == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sessions never departed: %+v", l)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := writeReport(c, f.report); err != nil {
		return err
	}
	l := c.Ledger()
	fmt.Printf("ledger: %d placed, %d re-placed, %d renewed, %d departed, %d expired, %d rejected, workers lost %d, drains %d/%d sessions\n",
		l.Placements, l.Replacements, l.Renewals, l.Departed, l.Expired, l.Rejected, l.WorkersLost, l.DrainWorkers, l.DrainSessions)
	if !l.Balanced() {
		return fmt.Errorf("ledger does not reconcile: %+v", l)
	}
	switch {
	case chaosDone != nil:
		kills := faultStats.Kills.Load()
		fmt.Printf("chaos ledger: %d kills (%d scheduled), %d recoveries, %d link windows, %d player failovers (%d to the cloud), %d handoffs\n",
			kills, wantKills, faultStats.Recoveries.Load(), faultStats.LinkWindows.Load(),
			failovers, cloudFallbacks, handoffs)
		if kills != wantKills {
			return fmt.Errorf("applied %d kills, the schedule has %d in its horizon", kills, wantKills)
		}
	case f.drain:
		if failovers != 0 {
			return fmt.Errorf("%d visible stream interruptions during a drain — handoffs must be make-before-break", failovers)
		}
		if affected > 0 && int(handoffs) < affected {
			return fmt.Errorf("only %d handoffs for %d drained sessions", handoffs, affected)
		}
		if l.DrainSessions == 0 {
			return fmt.Errorf("ledger recorded no drained sessions")
		}
	case l.Replacements == 0:
		return fmt.Errorf("no sessions were re-placed after the worker kill")
	}
	return nil
}
