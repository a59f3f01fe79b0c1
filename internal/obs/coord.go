package obs

// CoordStats instruments the coordinator control plane: worker registration
// churn, placement outcomes, and churn-driven re-placements. It mirrors the
// coordinator's session ledger, whose identities (coord.Ledger.Balanced) are
//
//	Placements    == ActiveOriginal + ActiveReplaced + Departed + Expired
//	TicketsIssued == Placements + Replacements + Renewals
//
// where Placements counts first-time tickets only; Replacements counts
// ticket re-issues that moved a session (worker death, drain, or reconnect
// reconciliation); Renewals and Expired are mirrored here as LeaseRenewed
// and LeaseExpired; and Departed counts sessions that ended, voluntarily or
// because no worker (and no cloud fallback) could take them. TicketsIssued
// and the live-session split ActiveOriginal/ActiveReplaced have no counter:
// the ledger snapshot carries them.
type CoordStats struct {
	Placements   *Counter // first-time session placements ticketed
	Replacements *Counter // ticket re-issues that moved a session
	Rejected     *Counter // joins refused (no admitting worker, no fallback)
	Departed     *Counter // sessions ended and retired from the ledger

	WorkersRegistered *Counter // workers registered (first contact)
	WorkersLost       *Counter // workers declared dead by the detector
	WorkersReturned   *Counter // dead workers re-registered
	ReportsReceived   *Counter // worker capacity/occupancy reports consumed

	DrainWorkers  *Counter // distressed-worker drain episodes started
	DrainSessions *Counter // sessions moved off distressed workers
	DrainStranded *Counter // drain candidates with no admissible target

	LeaseIssued  *Counter // tickets issued with a lease expiry
	LeaseRenewed *Counter // lease renewals granted
	LeaseExpired *Counter // sessions retired because their lease lapsed

	Rebases    *Counter // coordinator pause recoveries (detectors rebased)
	Reconciled *Counter // sessions realigned against worker-reported truth

	PlacementNs *Histogram // per-placement decision latency
	ReplaceNs   *Histogram // worker death to last session re-placed

	// Sink, when non-nil, receives placement and churn events.
	Sink EventSink
}

// NewCoordStats returns a standalone bundle (not registry-backed).
func NewCoordStats() *CoordStats {
	return &CoordStats{
		Placements:        new(Counter),
		Replacements:      new(Counter),
		Rejected:          new(Counter),
		Departed:          new(Counter),
		WorkersRegistered: new(Counter),
		WorkersLost:       new(Counter),
		WorkersReturned:   new(Counter),
		ReportsReceived:   new(Counter),
		DrainWorkers:      new(Counter),
		DrainSessions:     new(Counter),
		DrainStranded:     new(Counter),
		LeaseIssued:       new(Counter),
		LeaseRenewed:      new(Counter),
		LeaseExpired:      new(Counter),
		Rebases:           new(Counter),
		Reconciled:        new(Counter),
		PlacementNs:       NewHistogram(LatencyBucketsNs()),
		ReplaceNs:         NewHistogram(LatencyBucketsNs()),
	}
}

// CoordStatsIn binds the canonical coordinator metrics in a registry. Like
// the other bundles it is get-or-create, so server loops share instruments.
func CoordStatsIn(r *Registry) *CoordStats {
	return &CoordStats{
		Placements:        r.Counter("cloudfog_coord_placements_total", "first-time session placements ticketed"),
		Replacements:      r.Counter("cloudfog_coord_replacements_total", "ticket re-issues that moved a session"),
		Rejected:          r.Counter("cloudfog_coord_rejected_joins_total", "joins refused by admission control"),
		Departed:          r.Counter("cloudfog_coord_departed_total", "sessions retired from the ledger"),
		WorkersRegistered: r.Counter("cloudfog_coord_workers_registered_total", "workers registered (first contact)"),
		WorkersLost:       r.Counter("cloudfog_coord_workers_lost_total", "workers declared dead by the detector"),
		WorkersReturned:   r.Counter("cloudfog_coord_workers_returned_total", "dead workers re-registered"),
		ReportsReceived:   r.Counter("cloudfog_coord_reports_total", "worker capacity/occupancy reports consumed"),
		DrainWorkers:      r.Counter("cloudfog_coord_drain_workers_total", "distressed-worker drain episodes started"),
		DrainSessions:     r.Counter("cloudfog_coord_drain_sessions_total", "sessions moved off distressed workers"),
		DrainStranded:     r.Counter("cloudfog_coord_drain_stranded_total", "drain candidates with no admissible target"),
		LeaseIssued:       r.Counter("cloudfog_coord_lease_issued_total", "tickets issued with a lease expiry"),
		LeaseRenewed:      r.Counter("cloudfog_coord_lease_renewed_total", "lease renewals granted"),
		LeaseExpired:      r.Counter("cloudfog_coord_lease_expired_total", "sessions retired on lease expiry"),
		Rebases:           r.Counter("cloudfog_coord_rebases_total", "coordinator pause recoveries (detectors rebased)"),
		Reconciled:        r.Counter("cloudfog_coord_reconciled_total", "sessions realigned against worker-reported truth"),
		PlacementNs:       r.Histogram("cloudfog_coord_placement_ns", "per-placement decision latency", LatencyBucketsNs()),
		ReplaceNs:         r.Histogram("cloudfog_coord_replace_ns", "worker death to session re-placement", LatencyBucketsNs()),
	}
}
