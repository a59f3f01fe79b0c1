package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudfog/internal/coord"
	"cloudfog/internal/game"
	"cloudfog/internal/live"
	"cloudfog/internal/obs"
	"cloudfog/internal/world"
)

// liveShape is one live traffic mix.
type liveShape struct {
	Workers  int
	Capacity int
	// Sessions > 0 is a fixed population, each session placed at its
	// worker's position and streaming for the whole run; 0 means open-loop
	// churn arrivals.
	Sessions    int
	ArrivalMean time.Duration // churn: mean exponential inter-arrival time
	Lifetime    time.Duration // churn: how long each session streams
	LeaseTTL    time.Duration // 0 = leases off
	DrainEvery  time.Duration // churn: rolling drain period (0 = none)
}

// streamShape: 16 workers on a 4×4 grid, 4 sessions each, no leases.
var streamShape = liveShape{Workers: 16, Capacity: 16, Sessions: 64}

// churnShape: 4 workers on a 2×2 grid; 10 arrivals/s, each streaming
// 3 s; 1 s leases; the oldest worker drained every 4 s. Capacity 64 keeps
// even a worker absorbing a drained neighbour far below the Shedding rung
// (0.85 × capacity) of the coordinator's ladder.
var churnShape = liveShape{Workers: 4, Capacity: 64, ArrivalMean: 100 * time.Millisecond,
	Lifetime: 3 * time.Second, LeaseTTL: time.Second, DrainEvery: 4 * time.Second}

var (
	tinyStream = liveShape{Workers: 2, Capacity: 16, Sessions: 4}
	tinyChurn  = liveShape{Workers: 2, Capacity: 64, ArrivalMean: 200 * time.Millisecond,
		Lifetime: time.Second, LeaseTTL: time.Second, DrainEvery: time.Second}
)

const (
	cloudTick   = 20 * time.Millisecond
	fps         = 30
	reportEvery = 100 * time.Millisecond
	ticketKey   = "perfbench"
	// setupRuns is how many deployments a run starts; the last one serves
	// the measured phase and setup_s is the median start time.
	setupRuns = 9
	// streamRampUp is the period over which live-stream's sessions
	// start. Starting all 64 within one action period made their joins
	// queue behind each other, and the join median swung with start-up
	// contention from run to run.
	streamRampUp = 2 * time.Second
	// settleWait bounds the wait for the coordinator to record every
	// departure once the sessions close.
	settleWait = 5 * time.Second
)

// gridPositions spreads n points evenly over the default 10,000² world.
func gridPositions(n int) [][2]float64 {
	side := 1
	for side*side < n {
		side++
	}
	cell := 10_000.0 / float64(side)
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{cell/2 + cell*float64(i%side), cell/2 + cell*float64(i/side)}
	}
	return pts
}

// deployment is one in-process cloud + coordinator + workers.
type deployment struct {
	trace  bool
	reg    *obs.Registry
	shape  liveShape
	cloud  *live.Cloud
	coord  *coord.Coordinator
	nextID int64

	mu      sync.Mutex
	serving []placedWorker // oldest first
	retired []placedWorker
}

type placedWorker struct {
	*coord.Worker
	x, y float64
}

func (d *deployment) opts() []live.Option {
	if d.reg == nil {
		return nil
	}
	return []live.Option{live.WithObs(d.reg)}
}

// deploy starts a deployment and returns once every worker is registered,
// with the process CPU time its start calls and the registration wait took.
// Worker starts are staggered evenly over one frame interval so their
// render tickers do not phase-lock with each other or the cloud tick; the
// running workers' CPU during the stagger's sleeps is not set-up time.
func deploy(shape liveShape, trace bool) (*deployment, time.Duration, error) {
	t0, c0 := time.Now(), cpuTime()
	var busy time.Duration
	d := &deployment{trace: trace, shape: shape, nextID: 1}
	if trace {
		d.reg = obs.NewRegistry()
	}
	var err error
	withRole(trace, "cloud", func() {
		d.cloud, err = live.NewCloud(live.Config{Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: cloudTick}, d.opts()...)
	})
	if err != nil {
		return nil, 0, err
	}
	withRole(trace, "coord", func() {
		d.coord, err = coord.StartCoordinator(live.Config{
			Role: live.RoleCoordinator, Addr: "127.0.0.1:0",
			TicketKey: ticketKey, LeaseTTL: shape.LeaseTTL,
		}, d.opts()...)
	})
	if err != nil {
		d.close()
		return nil, 0, err
	}
	frame := time.Second / fps
	for i, p := range gridPositions(shape.Workers) {
		busy += cpuTime() - c0
		time.Sleep(time.Until(t0.Add(frame * time.Duration(i) / time.Duration(shape.Workers))))
		c0 = cpuTime()
		w, err := d.startWorker(p[0], p[1])
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.serving = append(d.serving, placedWorker{w, p[0], p[1]})
	}
	for d.coord.WorkersAlive() < shape.Workers {
		if time.Since(t0) > 10*time.Second {
			d.close()
			return nil, 0, fmt.Errorf("only %d of %d workers registered", d.coord.WorkersAlive(), shape.Workers)
		}
		time.Sleep(time.Millisecond)
	}
	return d, busy + cpuTime() - c0, nil
}

func (d *deployment) startWorker(x, y float64) (*coord.Worker, error) {
	var w *coord.Worker
	var err error
	id := d.nextID
	d.nextID++
	withRole(d.trace, "worker", func() {
		w, err = coord.StartWorker(live.Config{
			Role: live.RoleSupernode, ID: id, Addr: "127.0.0.1:0",
			CloudAddr: d.cloud.Addr(), CoordAddr: d.coord.Addr(), TicketKey: ticketKey,
			FPS: fps, X: x, Y: y, Capacity: d.shape.Capacity, ReportEvery: reportEvery,
		}, d.opts()...)
	})
	return w, err
}

// rotate drains the oldest serving worker with Worker.Drain after starting
// its replacement at the same position, and returns how long Drain took.
func (d *deployment) rotate() (time.Duration, error) {
	d.mu.Lock()
	old := d.serving[0]
	d.mu.Unlock()
	repl, err := d.startWorker(old.x, old.y)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.serving = append(d.serving[1:], placedWorker{repl, old.x, old.y})
	d.retired = append(d.retired, old)
	d.mu.Unlock()
	t0 := time.Now()
	old.Drain()
	return time.Since(t0), nil
}

// updateBytes sums the cloud→worker update stream every worker received.
func (d *deployment) updateBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, w := range append(append([]placedWorker{}, d.serving...), d.retired...) {
		_, b := w.Supernode().UpdateTraffic()
		total += b
	}
	return total
}

func (d *deployment) close() {
	d.mu.Lock()
	ws := append(append([]placedWorker{}, d.serving...), d.retired...)
	d.mu.Unlock()
	for _, w := range ws {
		w.Close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	if d.cloud != nil {
		d.cloud.Close()
	}
}

// schedule builds the run's sessions from the seed. Start times are
// relative to the measured phase's start.
func schedule(shape liveShape, seed int64, seconds time.Duration) []sessionSpec {
	rng := rand.New(rand.NewSource(seed))
	var specs []sessionSpec
	if shape.Sessions > 0 {
		// Fixed population: sessions start over streamRampUp on the seeded
		// schedule. A worker's k sessions start in k different slices of
		// a frame interval (plus a whole number of frames), so their
		// waits for the first render tick are spread evenly whatever the
		// worker's render phase.
		pts := gridPositions(shape.Workers)
		frame := time.Second / fps
		frames := int64(streamRampUp / frame)
		perWorker := shape.Sessions / shape.Workers
		for i := 0; i < shape.Sessions; i++ {
			p := pts[i*shape.Workers/shape.Sessions]
			g, _ := game.ByID(1 + i%5)
			slice := (float64(i%perWorker) + rng.Float64()) / float64(perWorker)
			at := time.Duration(rng.Int63n(frames))*frame + time.Duration(slice*float64(frame))
			specs = append(specs, sessionSpec{id: int64(1000 + i), game: g, x: p[0], y: p[1],
				start: time.Time{}.Add(at), end: time.Time{}.Add(seconds), actSeed: rng.Int63()})
		}
	} else {
		// Open-loop Poisson arrivals over the window in which a session
		// can still finish its lifetime inside the phase, conditioned on
		// their expected count: given the count, Poisson arrival times
		// are independent uniform draws over the window. Fixing the
		// count keeps the offered session-seconds, and so the per-session
		// metrics, from varying with the seed.
		window := seconds - shape.Lifetime
		n := 0
		if window > 0 {
			n = int(window / shape.ArrivalMean)
		}
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Int63n(int64(window)))
			g, _ := game.ByID(1 + rng.Intn(5))
			specs = append(specs, sessionSpec{
				id: int64(1000 + i), game: g,
				x: rng.Float64() * 10_000, y: rng.Float64() * 10_000,
				start: time.Time{}.Add(at), end: time.Time{}.Add(at + shape.Lifetime),
				actSeed: rng.Int63(),
			})
		}
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].start.Before(specs[j].start) })
	return specs
}

func runLiveStream(cfg runConfig) (*outcome, error) {
	shape := streamShape
	if cfg.Tiny {
		shape = tinyStream
	}
	return runLive(cfg, shape)
}

func runLiveChurn(cfg runConfig) (*outcome, error) {
	shape := churnShape
	if cfg.Tiny {
		shape = tinyChurn
	}
	return runLive(cfg, shape)
}

func runLive(cfg runConfig, shape liveShape) (*outcome, error) {
	seconds := time.Duration(cfg.Seconds * float64(time.Second))
	specs := schedule(shape, cfg.Seed, seconds)
	if len(specs) == 0 {
		return nil, fmt.Errorf("schedule is empty at %v", seconds)
	}

	var setups []float64
	var d *deployment
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // collect the previous deployment outside the set-up
		dep, took, err := deploy(shape, cfg.Trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			dep.close()
		} else {
			d = dep
		}
	}
	defer d.close()

	prof, err := startProfile(cfg.Trace)
	if err != nil {
		return nil, err
	}
	// Let the set-up's garbage and closing sockets settle before the
	// first session is due.
	runtime.GC()
	t0 := time.Now().Add(250 * time.Millisecond)
	smp := startSampler(time.Second)
	alloc0, upd0 := allocBytes(), d.updateBytes()

	// Rolling drains run beside the arrivals.
	var drains []float64
	var drainErr error
	var drainWG sync.WaitGroup
	if shape.DrainEvery > 0 {
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for k := 1; time.Duration(k)*shape.DrainEvery+shape.Lifetime < seconds; k++ {
				time.Sleep(time.Until(t0.Add(time.Duration(k) * shape.DrainEvery)))
				took, err := d.rotate()
				if err != nil {
					drainErr = err
					return
				}
				drains = append(drains, took.Seconds())
			}
		}()
	}

	// The open-loop generator: each session starts at its scheduled time
	// whatever the system is doing.
	results := make([]sessionResult, len(specs))
	spawnLate := make([]time.Duration, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		specs[i].start = t0.Add(specs[i].start.Sub(time.Time{}))
		specs[i].end = t0.Add(specs[i].end.Sub(time.Time{}))
		time.Sleep(time.Until(specs[i].start))
		spawnLate[i] = time.Since(specs[i].start)
		wg.Add(1)
		i := i
		withRole(cfg.Trace, "client", func() {
			go func() {
				defer wg.Done()
				results[i] = runSession(d, specs[i])
			}()
		})
	}
	wg.Wait()
	drainWG.Wait()

	// Every session has closed: wait for the coordinator to record each
	// departure, then check the ledger.
	settled := false
	for limit := time.Now().Add(settleWait); time.Now().Before(limit); time.Sleep(5 * time.Millisecond) {
		l := d.coord.Ledger()
		if l.ActiveOriginal+l.ActiveReplaced == 0 {
			settled = true
			break
		}
	}
	wall := time.Since(t0)
	alloc, upd := allocBytes()-alloc0, d.updateBytes()-upd0
	wins := smp.Stop()
	shares, profSamples, err := prof.shares()
	if err != nil {
		return nil, err
	}
	ledger := d.coord.Ledger()
	var entities int
	d.cloud.World(func(w *world.World) { entities = w.Len() })

	oc := &outcome{Attempted: len(specs), E2E: map[string]value{}, Layer: map[string]value{}}
	var (
		resp, joins, places, firsts, late []float64
		within, answered, unanswered      int
		frames                            int64
		sessionS                          float64
		handoffs, failovers, okCount      int
		fallbacks                         int
		errs                              []string
	)
	for i, r := range results {
		late = append(late, ms(spawnLate[i]))
		for _, l := range r.late {
			late = append(late, ms(l))
		}
		places = append(places, ms(r.place))
		if r.ok() {
			okCount++
		} else if r.err != nil && len(errs) < 3 {
			errs = append(errs, fmt.Sprintf("session %d: %v", specs[i].id, r.err))
		}
		if r.gotFrame {
			joins = append(joins, ms(r.join))
			firsts = append(firsts, ms(r.firstFrame))
		}
		for _, x := range r.responses {
			resp = append(resp, ms(x))
		}
		within += r.within
		answered += len(r.responses)
		unanswered += r.unanswered
		frames += r.frames
		sessionS += r.streamed.Seconds()
		handoffs += r.handoffs
		failovers += r.failovers
		fallbacks += r.joinFallbacks
	}
	oc.Failed = len(specs) - okCount

	oc.check("live.ledger_settled", settled, "active sessions after close: %d original, %d replaced",
		ledger.ActiveOriginal, ledger.ActiveReplaced)
	oc.check("live.ledger_balanced", ledger.Balanced(),
		"placements %d = departed %d + expired %d + active %d; tickets %d = placements + replacements %d + renewals %d",
		ledger.Placements, ledger.Departed, ledger.Expired, ledger.ActiveOriginal+ledger.ActiveReplaced,
		ledger.TicketsIssued, ledger.Replacements, ledger.Renewals)
	placed := 0
	for _, r := range results {
		if r.err == nil || !strings.HasPrefix(r.err.Error(), "place:") {
			placed++
		}
	}
	oc.check("live.sessions_accounted", okCount+oc.Failed == len(specs) && uint64(placed) == ledger.Placements,
		"%d attempted = %d completed + %d failed; %d placed, ledger placements %d %s",
		len(specs), okCount, oc.Failed, placed, ledger.Placements, strings.Join(errs, "; "))
	oc.check("live.drains", drainErr == nil, "%d rolling drains %v", len(drains), drainErr)

	// CPU per session-second and the live heap are medians over the
	// 1 s windows that carried at least half the busiest window's
	// session-seconds (the steady state between ramp-up and ramp-down).
	winS := make([]float64, len(wins))
	var busiest float64
	for i, w := range wins {
		for _, r := range results {
			winS[i] += overlap(w.start, w.end, r.streamFrom, r.streamTo).Seconds()
		}
		busiest = math.Max(busiest, winS[i])
	}
	var rates, peaks []float64
	for i, w := range wins {
		if winS[i] > 0 && winS[i] >= busiest/2 {
			rates = append(rates, ms(w.cpu)/winS[i])
			peaks = append(peaks, w.heapPeakMB)
		}
	}
	due := sessionS * fps
	oc.E2E["setup_s"] = value{median(setups), len(setups)}
	oc.E2E["heap_peak_mb"] = value{median(peaks), len(peaks)}
	oc.E2E["alloc_mb"] = value{float64(alloc) / 1e6, 1}
	oc.E2E["cpu_ms_per_session_s"] = value{median(rates), len(rates)}
	oc.E2E["response_p50_ms"] = value{quantile(resp, 0.5), len(resp)}
	oc.E2E["response_p99_ms"] = value{quantile(resp, 0.99), len(resp)}
	oc.E2E["within_budget"] = value{ratio(float64(within), float64(answered+unanswered)), answered + unanswered}
	oc.E2E["frames_delivered_share"] = value{ratio(float64(frames), due), int(frames)}
	oc.E2E["join_p50_ms"] = value{quantile(joins, 0.5), len(joins)}
	oc.E2E["join_p95_ms"] = value{quantile(joins, 0.95), len(joins)}
	oc.E2E["session_ok_share"] = value{float64(okCount) / float64(len(specs)), len(specs)}

	oc.Layer["cloud.update_bytes_per_s"] = value{float64(upd) / wall.Seconds(), 1}
	oc.Layer["cloud.world_entities"] = value{float64(entities), 1}
	oc.Layer["coord.place_p50_ms"] = value{quantile(places, 0.5), len(places)}
	oc.Layer["coord.place_p95_ms"] = value{quantile(places, 0.95), len(places)}
	oc.Layer["player.first_frame_ms"] = value{median(firsts), len(firsts)}
	oc.Layer["coord.placements"] = value{float64(ledger.Placements), 1}
	oc.Layer["coord.renewals"] = value{float64(ledger.Renewals), 1}
	oc.Layer["coord.replacements"] = value{float64(ledger.Replacements), 1}
	oc.Layer["coord.rejected"] = value{float64(ledger.Rejected), 1}
	oc.Layer["coord.drain_sessions"] = value{float64(ledger.DrainSessions), 1}
	oc.Layer["coord.drain_stranded"] = value{float64(ledger.DrainStranded), 1}
	oc.Layer["coord.drain_s"] = value{median(drains), len(drains)}
	oc.Layer["client.handoffs"] = value{float64(handoffs), 1}
	oc.Layer["client.failovers"] = value{float64(failovers), 1}
	oc.Layer["client.join_fallbacks"] = value{float64(fallbacks), 1}
	oc.Layer["bench.gen_late_p99_ms"] = value{quantile(late, 0.99), len(late)}
	if cfg.Trace {
		for k, v := range shares {
			oc.Layer[k] = value{v, profSamples}
		}
		linkLayers(d.reg.Snapshot(), oc.Layer)
		fillZero(oc.Layer)
	}
	return oc, nil
}

// overlap is how much of [from, to) falls inside [a, b).
func overlap(a, b, from, to time.Time) time.Duration {
	if from.Before(a) {
		from = a
	}
	if to.After(b) {
		to = b
	}
	if to.Before(from) {
		return 0
	}
	return to.Sub(from)
}

// linkLayers aggregates every live link's obs counters and send-delay
// histogram.
func linkLayers(s obs.Snapshot, out map[string]value) {
	var batched, writes, dropped int64
	var bounds []int64
	var counts []int64
	for name, v := range s.Counters {
		switch {
		case strings.HasPrefix(name, "cloudfog_link_batched_frames_total{"):
			batched += v
		case strings.HasPrefix(name, "cloudfog_link_batch_writes_total{"):
			writes += v
		case strings.HasPrefix(name, "cloudfog_link_dropped_frames_total{"):
			dropped += v
		}
	}
	for name, h := range s.Histograms {
		if !strings.HasPrefix(name, "cloudfog_link_send_delay_ns{") {
			continue
		}
		if counts == nil {
			bounds, counts = h.Bounds, make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			counts[i] += c
		}
	}
	out["link.frames_per_write"] = value{ratio(float64(batched), float64(writes)), int(writes)}
	out["link.dropped_frames"] = value{float64(dropped), 1}
	var n int64
	for _, c := range counts {
		n += c
	}
	out["link.send_delay_p50_ms"] = value{histQuantile(bounds, counts, 0.5) / 1e6, int(n)}
	out["link.send_delay_p99_ms"] = value{histQuantile(bounds, counts, 0.99) / 1e6, int(n)}
}

// histQuantile estimates a quantile from bucket counts, interpolating
// linearly inside the bucket (the overflow bucket reads as its lower edge).
func histQuantile(bounds, counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(bounds[i-1])
			}
			if i >= len(bounds) {
				return lo
			}
			return lo + (float64(bounds[i])-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(bounds[len(bounds)-1])
}
