package coord

import (
	"fmt"
	"sort"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/spatial"
)

// Placer defaults, used when the corresponding PlacerConfig field is zero.
const (
	// DefaultShortlistK is how many nearest candidates a placement ranks.
	DefaultShortlistK = 4
	// DefaultBackups is the backup-ring size baked into tickets.
	DefaultBackups = 2
	// defaultPlane matches world.DefaultConfig()'s 10,000² bounds.
	defaultPlane = 10_000
)

// PlacerConfig parameterizes the placement state machine.
type PlacerConfig struct {
	// Width, Height bound the plane workers and players live on (zero
	// means the default 10,000² world).
	Width, Height float64
	// ShortlistK is the nearest-worker candidate count per placement;
	// Backups is the ring size baked into each ticket.
	ShortlistK int
	Backups    int
	// Detector configures the per-worker failure detector fed by report
	// arrivals.
	Detector health.DetectorConfig
	// Overload configures the admission ladder (zero means defaults).
	Overload health.OverloadConfig
	// TicketKey signs issued tickets (empty disables signing).
	TicketKey []byte
	// CloudAddr, when non-empty, is the cloud's direct-stream address: a
	// placement with no admitting worker falls back to it instead of
	// rejecting, and a re-placement with no surviving worker migrates there
	// instead of dropping the session.
	CloudAddr string
	// LeaseTTL, when positive, turns tickets into leases: every issued
	// ticket expires LeaseTTL after issue (signed into the HMAC body), and
	// Sweep retires sessions whose lease has lapsed a full TTL past expiry
	// without renewal. Zero disables leases.
	LeaseTTL time.Duration
	// Stats, when non-nil, mirrors the placer's ledger into metrics.
	Stats *obs.CoordStats
}

// Replacement is one churn outcome from Sweep, Deregister, or Register
// reconciliation: a fresh ticket for the player (pushed over its control
// link), a dropped session (no surviving worker and no cloud fallback), or an
// expired lease (the player never renewed and the session is retired).
type Replacement struct {
	Player  int64
	Ticket  proto.Ticket
	Dropped bool
	// Expired marks a session retired because its lease lapsed a full TTL
	// past expiry without renewal — no ticket accompanies it; the
	// coordinator reclaims the player's control link instead.
	Expired bool
}

// Ledger is the placer's session accounting. The reconciliation identities —
// checked by Balanced — are
//
//	Placements    == ActiveOriginal + ActiveReplaced + Departed + Expired
//	TicketsIssued == Placements + Replacements + Renewals
//
// Rejected joins never enter the ledger; Replacements counts ticket
// re-issues, not sessions (a twice-moved session is one ActiveReplaced).
type Ledger struct {
	Placements     uint64 `json:"placements"`
	Replacements   uint64 `json:"replacements"`
	Renewals       uint64 `json:"renewals"`
	TicketsIssued  uint64 `json:"tickets_issued"`
	Rejected       uint64 `json:"rejected"`
	Departed       uint64 `json:"departed"`
	Expired        uint64 `json:"expired"`
	ActiveOriginal uint64 `json:"active_original"`
	ActiveReplaced uint64 `json:"active_replaced"`

	// Drain accounting: episodes started, sessions moved, and sessions that
	// stayed in place because no ladder-admissible target existed.
	DrainWorkers  uint64 `json:"drain_workers"`
	DrainSessions uint64 `json:"drain_sessions"`
	DrainStranded uint64 `json:"drain_stranded"`

	// Partition accounting: coordinator pause recoveries and sessions
	// realigned against worker-reported live-session lists.
	Rebases    uint64 `json:"rebases"`
	Reconciled uint64 `json:"reconciled"`

	WorkersAlive      int    `json:"workers_alive"`
	WorkersRegistered uint64 `json:"workers_registered"`
	WorkersLost       uint64 `json:"workers_lost"`
	WorkersReturned   uint64 `json:"workers_returned"`
}

// Balanced reports whether both ledger identities hold.
func (l Ledger) Balanced() bool {
	return l.Placements == l.ActiveOriginal+l.ActiveReplaced+l.Departed+l.Expired &&
		l.TicketsIssued == l.Placements+l.Replacements+l.Renewals
}

type workerState struct {
	reg      proto.Register
	det      *health.Detector
	alive    bool
	load     int
	capacity int
	lastSeq  uint64
	// level is the worker's self-reported overload-ladder state; draining
	// marks a worker that asked for a full handoff (SIGTERM). drainCounted
	// dedupes the per-episode DrainWorkers counter.
	level        health.OverloadState
	draining     bool
	drainCounted bool
}

// distressed reports whether the worker wants sessions moved off it: a full
// drain request, or a self-reported ladder level at Shedding or beyond.
func (w *workerState) distressed() bool {
	return w.draining || w.level >= health.StateShedding
}

type sessionState struct {
	place    proto.Place
	worker   int64 // zero: cloud-direct
	epoch    uint64
	replaced bool
	// attachSeq orders sessions by their most recent attachment; drains
	// move the newest attachments first (the RelieveOverloaded discipline).
	attachSeq uint64
	// expiry is the session's current lease deadline (zero without leases).
	expiry time.Duration
}

// Placer is the coordinator's placement state machine: worker liveness and
// occupancy, the spatial shortlist, the overload admission ladder, and the
// session ledger. It is a passive value fed explicit timestamps — no clocks,
// no goroutines — so the churn property tests drive it deterministically.
// Not safe for concurrent use; the Coordinator serializes access.
type Placer struct {
	cfg PlacerConfig
	// olCfg is the defaulted overload config, consulted directly when drain
	// admissibility needs thresholds (WouldMigrate, partial-drain target).
	olCfg   health.OverloadConfig
	grid    *spatial.Grid
	ladder  *health.Overload
	workers map[int64]*workerState
	// sessions maps player → session; sweep iterates workers' sessions via
	// this map (worker counts stay small next to session counts).
	sessions  map[int64]*sessionState
	epoch     uint64
	attachSeq uint64
	scratch   []spatial.Neighbor
	// drainScratch orders a distressed worker's sessions newest-first.
	drainScratch []drainCandidate

	placements    uint64
	replacements  uint64
	renewals      uint64
	ticketsIssued uint64
	rejected      uint64
	departed      uint64
	expired       uint64
	drainWorkers  uint64
	drainSessions uint64
	drainStranded uint64
	rebases       uint64
	reconciled    uint64
	wRegistered   uint64
	wLost         uint64
	wReturned     uint64
}

type drainCandidate struct {
	player int64
	s      *sessionState
}

// NewPlacer builds a placement state machine; zero config fields default.
func NewPlacer(cfg PlacerConfig) (*Placer, error) {
	if cfg.Width <= 0 {
		cfg.Width = defaultPlane
	}
	if cfg.Height <= 0 {
		cfg.Height = defaultPlane
	}
	if cfg.ShortlistK <= 0 {
		cfg.ShortlistK = DefaultShortlistK
	}
	if cfg.Backups < 0 {
		return nil, fmt.Errorf("coord: PlacerConfig.Backups %d is negative", cfg.Backups)
	}
	if cfg.Backups == 0 {
		cfg.Backups = DefaultBackups
	}
	ladder, err := health.NewOverload(cfg.Overload, nil, nil)
	if err != nil {
		return nil, err
	}
	olCfg := cfg.Overload
	if olCfg == (health.OverloadConfig{}) {
		olCfg = health.DefaultOverloadConfig()
	}
	return &Placer{
		cfg:      cfg,
		olCfg:    olCfg,
		grid:     spatial.NewGrid(cfg.Width, cfg.Height),
		ladder:   ladder,
		workers:  make(map[int64]*workerState),
		sessions: make(map[int64]*sessionState),
	}, nil
}

// Bound returns the provable worker-death detection latency: no session
// ticket points at a dead worker longer than this after the worker's last
// report, provided Sweep runs at least every Detector.CheckEvery.
func (p *Placer) Bound() time.Duration { return p.cfg.Detector.Bound() }

// Register admits (or re-admits) a worker at now. Returned reports whether
// this was a dead worker coming back. When the register carries the worker's
// live-session list (a reconnect after a partition), the placer reconciles:
// any session it maps to this worker that the worker no longer serves is
// re-placed and its fresh ticket returned for pushing. Sessions the worker
// reports but the placer doesn't map are left to worker-side lease expiry.
func (p *Placer) Register(now time.Duration, r proto.Register) (returned bool, reps []Replacement) {
	w := p.workers[r.Worker]
	preexisting := w != nil && w.alive
	if w == nil {
		w = &workerState{det: health.NewDetector(p.cfg.Detector)}
		p.workers[r.Worker] = w
		p.wRegistered++
		if p.cfg.Stats != nil {
			p.cfg.Stats.WorkersRegistered.Inc()
		}
	} else if !w.alive {
		returned = true
		p.wReturned++
		if p.cfg.Stats != nil {
			p.cfg.Stats.WorkersReturned.Inc()
		}
	}
	w.reg = r
	w.alive = true
	w.load = int(r.Load)
	w.capacity = int(r.Capacity)
	w.lastSeq = 0
	w.level = health.StateNormal
	w.draining = false
	w.drainCounted = false
	w.det.Reset(now)
	p.grid.Insert(r.Worker, r.X, r.Y)
	p.ladder.Observe(r.Worker, w.load, w.capacity)
	if preexisting || returned {
		reps = p.reconcile(now, r.Worker, r.Sessions)
	}
	return returned, reps
}

// reconcile realigns the placer's session map against a reconnecting
// worker's reported live sessions: any player the placer maps here that the
// worker dropped (its lease lapsed during the partition, or it never heard
// the placement) is re-placed — possibly back onto the same worker, since
// the retarget push is what re-aligns the player either way.
func (p *Placer) reconcile(now time.Duration, worker int64, live []int64) []Replacement {
	serving := make(map[int64]struct{}, len(live))
	for _, pid := range live {
		serving[pid] = struct{}{}
	}
	var out []Replacement
	for player, s := range p.sessions {
		if s.worker != worker {
			continue
		}
		if _, ok := serving[player]; ok {
			continue
		}
		// The register's load already excludes dropped sessions, so no
		// detach here — only the new attachment is counted.
		wid, ok := p.choose(s.place.X, s.place.Y)
		if !ok {
			delete(p.sessions, player)
			p.departed++
			if p.cfg.Stats != nil {
				p.cfg.Stats.Departed.Inc()
			}
			out = append(out, Replacement{Player: player, Dropped: true})
			continue
		}
		s.worker = wid
		s.replaced = true
		p.attachSeq++
		s.attachSeq = p.attachSeq
		p.attach(wid)
		p.replacements++
		p.reconciled++
		if p.cfg.Stats != nil {
			p.cfg.Stats.Replacements.Inc()
			p.cfg.Stats.Reconciled.Inc()
		}
		out = append(out, Replacement{Player: player, Ticket: p.issue(now, player, s)})
	}
	return out
}

// Report consumes a worker's periodic occupancy beacon: the arrival gap
// feeds the failure detector, the load ratio moves the admission ladder.
// Reports from unknown or dead workers — and stale out-of-order datagrams —
// are dropped (a dead worker must re-register to rejoin the pool).
func (p *Placer) Report(now time.Duration, r proto.Report) bool {
	w := p.workers[r.Worker]
	if w == nil || !w.alive {
		return false
	}
	if r.Seq != 0 && r.Seq <= w.lastSeq {
		return false
	}
	w.lastSeq = r.Seq
	w.det.Heartbeat(now)
	w.load = int(r.Load)
	if r.Capacity > 0 {
		w.capacity = int(r.Capacity)
	}
	w.level = health.OverloadState(r.Level)
	w.draining = r.Draining != 0
	if !w.distressed() {
		w.drainCounted = false
	}
	p.ladder.Observe(r.Worker, w.load, w.capacity)
	if p.cfg.Stats != nil {
		p.cfg.Stats.ReportsReceived.Inc()
	}
	return true
}

// Place answers a join: shortlist the nearest alive workers, pick the first
// the ladder admits, ring the next backup-eligible ones, and issue a signed
// ticket. With no admitting worker the session falls back to the cloud's
// direct stream when configured, otherwise the join is rejected (ok=false).
// A repeated Place for a live session re-issues its current ticket (counted
// as a renewal so the ticket identity stays balanced).
func (p *Placer) Place(now time.Duration, req proto.Place) (proto.Ticket, bool) {
	if s := p.sessions[req.Player]; s != nil {
		p.renewals++
		if p.cfg.Stats != nil {
			p.cfg.Stats.LeaseRenewed.Inc()
		}
		return p.issue(now, req.Player, s), true
	}
	wid, ok := p.choose(req.X, req.Y)
	if !ok {
		p.rejected++
		if p.cfg.Stats != nil {
			p.cfg.Stats.Rejected.Inc()
		}
		return proto.Ticket{}, false
	}
	p.attachSeq++
	s := &sessionState{place: req, worker: wid, attachSeq: p.attachSeq}
	p.sessions[req.Player] = s
	p.placements++
	if p.cfg.Stats != nil {
		p.cfg.Stats.Placements.Inc()
	}
	p.attach(wid)
	return p.issue(now, req.Player, s), true
}

// Renew extends a player's lease: a fresh ticket for its current worker with
// a new expiry and a newer epoch, so a renewal racing a drain-issued
// replacement resolves freshest-epoch-wins on the player side. The epoch the
// player renewed against is accepted even when stale — the session's current
// placement is what gets re-leased. Returns ok=false for unknown sessions.
func (p *Placer) Renew(now time.Duration, player int64) (proto.Ticket, bool) {
	s := p.sessions[player]
	if s == nil {
		return proto.Ticket{}, false
	}
	p.renewals++
	if p.cfg.Stats != nil {
		p.cfg.Stats.LeaseRenewed.Inc()
	}
	return p.issue(now, player, s), true
}

// choose runs the placement policy at (x, y): the nearest alive,
// non-draining worker the ladder admits, or the cloud fallback (wid 0) when
// nothing admits.
func (p *Placer) choose(x, y float64) (wid int64, ok bool) {
	p.scratch = p.grid.NearestInto(p.scratch, x, y, p.cfg.ShortlistK,
		func(id int64) bool {
			w := p.workers[id]
			return w != nil && w.alive && !w.draining
		})
	for _, nb := range p.scratch {
		if p.ladder.Admit(nb.ID) {
			return nb.ID, true
		}
	}
	if p.cfg.CloudAddr == "" {
		return 0, false
	}
	return 0, true // cloud-direct
}

// attach counts a placed session against the worker's occupancy until its
// next report supersedes the estimate.
func (p *Placer) attach(wid int64) {
	if w := p.workers[wid]; w != nil {
		w.load++
		p.ladder.Observe(wid, w.load, w.capacity)
	}
}

func (p *Placer) detach(wid int64) {
	if w := p.workers[wid]; w != nil && w.load > 0 {
		w.load--
		p.ladder.Observe(wid, w.load, w.capacity)
	}
}

// issue builds and signs the session's current ticket, advancing the global
// epoch so every ticket supersedes all earlier ones for that player. With
// leases enabled the expiry is stamped into the signed body and the session's
// renewal deadline moves forward.
func (p *Placer) issue(now time.Duration, player int64, s *sessionState) proto.Ticket {
	p.epoch++
	s.epoch = p.epoch
	p.ticketsIssued++
	t := proto.Ticket{
		Player: player,
		Worker: s.worker,
		Epoch:  s.epoch,
		Issued: int64(now),
	}
	if p.cfg.LeaseTTL > 0 {
		s.expiry = now + p.cfg.LeaseTTL
		t.Expiry = int64(s.expiry)
		if p.cfg.Stats != nil {
			p.cfg.Stats.LeaseIssued.Inc()
		}
	}
	if w := p.workers[s.worker]; s.worker != 0 && w != nil {
		t.Transport = w.reg.Transport
		t.Addr = w.reg.Addr
		t.Backups = p.ring(s)
	} else {
		t.Transport = proto.StreamTCP
		t.Addr = p.cfg.CloudAddr
	}
	SignTicket(p.cfg.TicketKey, &t)
	return t
}

// ring computes the backup ring around a session's position: the nearest
// backup-eligible alive, non-draining workers, excluding its serving worker.
func (p *Placer) ring(s *sessionState) []string {
	p.scratch = p.grid.NearestInto(p.scratch, s.place.X, s.place.Y, p.cfg.ShortlistK,
		func(id int64) bool {
			w := p.workers[id]
			return w != nil && w.alive && !w.draining && id != s.worker
		})
	var backups []string
	for _, nb := range p.scratch {
		if len(backups) >= p.cfg.Backups {
			break
		}
		if p.ladder.AllowBackup(nb.ID) {
			backups = append(backups, p.workers[nb.ID].reg.Addr)
		}
	}
	return backups
}

// Depart retires a player's session (its control link closed).
func (p *Placer) Depart(player int64) bool {
	s := p.sessions[player]
	if s == nil {
		return false
	}
	delete(p.sessions, player)
	p.detach(s.worker)
	p.departed++
	if p.cfg.Stats != nil {
		p.cfg.Stats.Departed.Inc()
	}
	return true
}

// Deregister removes a worker voluntarily (clean shutdown): its sessions
// re-place exactly as if the detector had declared it dead, without waiting
// for the silence bound.
func (p *Placer) Deregister(now time.Duration, worker int64) []Replacement {
	w := p.workers[worker]
	if w == nil || !w.alive {
		return nil
	}
	return p.bury(now, worker, w)
}

// Sweep evaluates every alive worker's detector at now and re-places the
// sessions of any declared dead; then drains distressed workers (proactive
// migration) and, with leases enabled, retires sessions whose lease lapsed a
// full TTL past expiry without renewal. Call it at least every
// Detector.CheckEvery to keep Bound() honest.
func (p *Placer) Sweep(now time.Duration) []Replacement {
	var out []Replacement
	for id, w := range p.workers {
		if w.alive && w.det.Suspect(now) {
			out = append(out, p.bury(now, id, w)...)
		}
	}
	out = append(out, p.drainDistressed(now)...)
	if p.cfg.LeaseTTL > 0 {
		for player, s := range p.sessions {
			if s.expiry > 0 && now >= s.expiry+p.cfg.LeaseTTL {
				delete(p.sessions, player)
				p.detach(s.worker)
				p.expired++
				if p.cfg.Stats != nil {
					p.cfg.Stats.LeaseExpired.Inc()
				}
				out = append(out, Replacement{Player: player, Expired: true})
			}
		}
	}
	return out
}

// drainDistressed runs the proactive-migration pass: every alive worker that
// asked for a full drain hands off all sessions; every worker self-reporting
// Shedding or worse sheds newest-first down to the hysteresis re-entry load.
func (p *Placer) drainDistressed(now time.Duration) []Replacement {
	var out []Replacement
	for id, w := range p.workers {
		if !w.alive || !w.distressed() {
			continue
		}
		out = append(out, p.drainWorker(now, id, w)...)
	}
	return out
}

// drainWorker moves sessions off one distressed worker, newest attachment
// first — the RelieveOverloaded discipline: the latest arrivals have the
// least session state to lose. A full drain (w.draining) targets zero load; a
// ladder-level drain stops at (ShedAt − Hysteresis) × capacity so the worker
// re-enters the ladder below Shedding without oscillating. Sessions with no
// ladder-admissible target stay put (counted stranded) — better a distressed
// worker than an interrupted stream — except a full drain falls back to the
// cloud when configured.
func (p *Placer) drainWorker(now time.Duration, worker int64, w *workerState) []Replacement {
	p.drainScratch = p.drainScratch[:0]
	for player, s := range p.sessions {
		if s.worker == worker {
			p.drainScratch = append(p.drainScratch, drainCandidate{player, s})
		}
	}
	if len(p.drainScratch) == 0 {
		return nil
	}
	sort.Slice(p.drainScratch, func(i, j int) bool {
		return p.drainScratch[i].s.attachSeq > p.drainScratch[j].s.attachSeq
	})
	target := 0
	if !w.draining {
		target = int((p.olCfg.ShedAt - p.olCfg.Hysteresis) * float64(w.capacity))
	}
	if !w.drainCounted {
		w.drainCounted = true
		p.drainWorkers++
		if p.cfg.Stats != nil {
			p.cfg.Stats.DrainWorkers.Inc()
		}
	}
	var out []Replacement
	for _, c := range p.drainScratch {
		if w.load <= target {
			break
		}
		nid, ok := p.drainTargetFor(c.s, worker)
		if !ok {
			if w.draining && p.cfg.CloudAddr != "" {
				nid = 0 // cloud-direct absorbs a full drain
			} else {
				p.drainStranded++
				if p.cfg.Stats != nil {
					p.cfg.Stats.DrainStranded.Inc()
				}
				continue
			}
		}
		p.detach(worker)
		c.s.worker = nid
		c.s.replaced = true
		p.attachSeq++
		c.s.attachSeq = p.attachSeq
		p.attach(nid)
		p.replacements++
		p.drainSessions++
		if p.cfg.Stats != nil {
			p.cfg.Stats.Replacements.Inc()
			p.cfg.Stats.DrainSessions.Inc()
		}
		out = append(out, Replacement{Player: c.player, Ticket: p.issue(now, c.player, c.s)})
	}
	return out
}

// drainTargetFor picks a ladder-admissible alternative for one draining
// session: the nearest alive, non-draining worker that still accepts backup
// duty, would not itself cross the migration threshold by taking one more
// session, and self-reports below Shedding.
func (p *Placer) drainTargetFor(s *sessionState, exclude int64) (int64, bool) {
	p.scratch = p.grid.NearestInto(p.scratch, s.place.X, s.place.Y, p.cfg.ShortlistK,
		func(id int64) bool {
			w := p.workers[id]
			return w != nil && w.alive && !w.draining && id != exclude
		})
	for _, nb := range p.scratch {
		w := p.workers[nb.ID]
		if w.level < health.StateShedding &&
			p.ladder.AllowBackup(nb.ID) &&
			!p.ladder.WouldMigrate(w.load+1, w.capacity) {
			return nb.ID, true
		}
	}
	return 0, false
}

// Rebase recovers from a coordinator pause (the process was stopped, not the
// workers): every alive worker's detector restarts its silence window and,
// with leases on, every live session's expiry extends to at least a full TTL
// from now — the pause was the coordinator's fault, so no lease may lapse
// because renewals couldn't land.
func (p *Placer) Rebase(now time.Duration) {
	for _, w := range p.workers {
		if w.alive {
			w.det.Reset(now)
		}
	}
	if p.cfg.LeaseTTL > 0 {
		for _, s := range p.sessions {
			if s.expiry > 0 && s.expiry < now+p.cfg.LeaseTTL {
				s.expiry = now + p.cfg.LeaseTTL
			}
		}
	}
	p.rebases++
	if p.cfg.Stats != nil {
		p.cfg.Stats.Rebases.Inc()
	}
}

// bury marks a worker dead and re-places every session it was serving.
func (p *Placer) bury(now time.Duration, worker int64, w *workerState) []Replacement {
	w.alive = false
	p.grid.Remove(worker)
	p.ladder.Forget(worker)
	p.wLost++
	if p.cfg.Stats != nil {
		p.cfg.Stats.WorkersLost.Inc()
	}
	var out []Replacement
	for player, s := range p.sessions {
		if s.worker != worker {
			continue
		}
		wid, ok := p.choose(s.place.X, s.place.Y)
		if !ok {
			// Nowhere to go: forced departure keeps the ledger balanced.
			delete(p.sessions, player)
			p.departed++
			if p.cfg.Stats != nil {
				p.cfg.Stats.Departed.Inc()
			}
			out = append(out, Replacement{Player: player, Dropped: true})
			continue
		}
		s.worker = wid
		s.replaced = true
		p.attachSeq++
		s.attachSeq = p.attachSeq
		p.attach(wid)
		p.replacements++
		if p.cfg.Stats != nil {
			p.cfg.Stats.Replacements.Inc()
		}
		out = append(out, Replacement{Player: player, Ticket: p.issue(now, player, s)})
	}
	return out
}

// WorkerAlive reports whether the worker is currently registered and not
// declared dead.
func (p *Placer) WorkerAlive(id int64) bool {
	w := p.workers[id]
	return w != nil && w.alive
}

// WorkersAlive counts registered, not-dead workers.
func (p *Placer) WorkersAlive() int {
	n := 0
	for _, w := range p.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// SessionWorker returns the worker currently serving the player's session
// (0, false if the session does not exist; 0, true for cloud-direct).
func (p *Placer) SessionWorker(player int64) (int64, bool) {
	s := p.sessions[player]
	if s == nil {
		return 0, false
	}
	return s.worker, true
}

// Ledger snapshots the session accounting.
func (p *Placer) Ledger() Ledger {
	l := Ledger{
		Placements:        p.placements,
		Replacements:      p.replacements,
		Renewals:          p.renewals,
		TicketsIssued:     p.ticketsIssued,
		Rejected:          p.rejected,
		Departed:          p.departed,
		Expired:           p.expired,
		DrainWorkers:      p.drainWorkers,
		DrainSessions:     p.drainSessions,
		DrainStranded:     p.drainStranded,
		Rebases:           p.rebases,
		Reconciled:        p.reconciled,
		WorkersAlive:      p.WorkersAlive(),
		WorkersRegistered: p.wRegistered,
		WorkersLost:       p.wLost,
		WorkersReturned:   p.wReturned,
	}
	for _, s := range p.sessions {
		if s.replaced {
			l.ActiveReplaced++
		} else {
			l.ActiveOriginal++
		}
	}
	return l
}
