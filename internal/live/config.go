package live

import (
	"fmt"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// RoleKind tags which live-plane process a Config describes.
type RoleKind string

const (
	RoleCloud       RoleKind = "cloud"
	RoleSupernode   RoleKind = "supernode"
	RolePlayer      RoleKind = "player"
	RoleCoordinator RoleKind = "coordinator"
)

// ParseRole maps a CLI subcommand or config tag onto a RoleKind.
func ParseRole(s string) (RoleKind, error) {
	switch RoleKind(s) {
	case RoleCloud, RoleSupernode, RolePlayer, RoleCoordinator:
		return RoleKind(s), nil
	}
	return "", fmt.Errorf("live: unknown role %q (cloud|supernode|player|coordinator)", s)
}

// Config is the single serializable, role-tagged configuration for every
// live-plane role: cloud, supernode (standalone or coordinator-registered
// worker), player, and coordinator. One JSON document round-trips through it
// and Validate checks exactly the fields the tagged role requires, so a
// coordinator — or an operator's config file — can spawn any role from the
// same schema. Runtime-only knobs that cannot serialize (injected delay
// functions, metric registries, join gates, tickets) attach through the
// functional options accepted by NewCloud / NewSupernode / NewPlayer.
//
// Durations marshal as integer nanoseconds (Go's time.Duration JSON form).
type Config struct {
	Role RoleKind `json:"role"`
	// ID is the node's wire identity (supernode hello ID, worker ID, player
	// ID).
	ID int64 `json:"id,omitempty"`

	// Addr is the role's own listen address (cloud, supernode,
	// coordinator); "127.0.0.1:0" picks an ephemeral port.
	Addr string `json:"addr,omitempty"`
	// CloudAddr names the upstream cloud (supernode update subscription,
	// player action link, coordinator cloud-direct fallback tickets).
	CloudAddr string `json:"cloud_addr,omitempty"`
	// CoordAddr names the coordinator: a supernode with CoordAddr set
	// registers itself as a placeable worker, and a player with CoordAddr
	// set asks the coordinator for a session ticket instead of using
	// StreamAddr.
	CoordAddr string `json:"coord_addr,omitempty"`
	// StreamAddr pins a player's serving supernode directly (no
	// coordinator); BackupAddrs is its static failover ring, tried in order
	// (wrapping) when the serving stream dies mid-run.
	StreamAddr  string   `json:"stream_addr,omitempty"`
	BackupAddrs []string `json:"backup_addrs,omitempty"`

	// Transport selects the stream transport: TransportTCP (default when
	// empty) or TransportUDP. Control links (cloud, coordinator TCP mode)
	// stay reliable regardless.
	Transport string `json:"transport,omitempty"`

	// Cloud fields. A zero World means world.DefaultConfig(). DirectFPS,
	// when positive, lets the cloud stream segments straight to players
	// whose first frame is a join — the last-resort fallback when no
	// supernode will serve them; zero disables it.
	World     world.Config  `json:"world,omitempty"`
	Tick      time.Duration `json:"tick,omitempty"`
	DirectFPS int           `json:"direct_fps,omitempty"`

	// Supernode / worker fields. FPS is the per-player segment rate;
	// DelayToCloud is injected on the supernode's outbound cloud link (the
	// cloud injects the update-path delay via its own WithDelayFor).
	FPS          int           `json:"fps,omitempty"`
	DelayToCloud time.Duration `json:"delay_to_cloud,omitempty"`
	// X, Y locate a worker for the coordinator's spatial shortlist (and a
	// player's placement request).
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	// Capacity is a worker's player-slot budget; ReportEvery is its
	// capacity/occupancy report period to the coordinator.
	Capacity    int           `json:"capacity,omitempty"`
	ReportEvery time.Duration `json:"report_every,omitempty"`
	// SkewTolerance is how much worker/coordinator clock disagreement a
	// lease-enforcing worker forgives when checking ticket expiry (zero
	// means DefaultSkewTolerance).
	SkewTolerance time.Duration `json:"skew_tolerance,omitempty"`
	// DrainTimeout bounds how long a SIGTERM'd worker waits for the
	// coordinator to hand its sessions off before exiting anyway (zero
	// means DefaultDrainTimeout).
	DrainTimeout time.Duration `json:"drain_timeout,omitempty"`

	// Player fields. ActionDelay is the injected one-way player→cloud
	// latency. UploadAllowance is subtracted from each response sample
	// before the budget check: the paper's latency budget covers the
	// downstream path (upload "does not seriously affect the response
	// latency", §III-A), while a live player necessarily measures the full
	// action→video loop.
	GameID          int           `json:"game_id,omitempty"`
	ActionDelay     time.Duration `json:"action_delay,omitempty"`
	ActionEvery     time.Duration `json:"action_every,omitempty"`
	UploadAllowance time.Duration `json:"upload_allowance,omitempty"`
	ViewRadius      float64       `json:"view_radius,omitempty"`

	// Coordinator fields. ShortlistK is how many nearest admitting workers
	// a placement considers (serving pick plus ring candidates); Backups is
	// the backup-ring size baked into each ticket.
	ShortlistK int `json:"shortlist_k,omitempty"`
	Backups    int `json:"backups,omitempty"`
	// TicketKey is the shared HMAC key tickets are signed under (empty
	// disables signing — fine for local smoke runs, not deployments).
	TicketKey string `json:"ticket_key,omitempty"`
	// LeaseTTL, when positive, turns tickets into leases: every ticket the
	// coordinator issues expires LeaseTTL after issue (signed into the HMAC
	// body), workers reject expired tickets, and players renew at
	// half-life. Zero disables leases (tickets never expire).
	LeaseTTL time.Duration `json:"lease_ttl,omitempty"`

	// Detector configures the control plane's failure detection: the
	// coordinator's detector over worker report gaps, and a worker's
	// watchdog over the coordinator's TSync beacon gaps.
	Detector health.DetectorConfig `json:"detector,omitempty"`
	// Overload configures the coordinator's placement admission ladder; the
	// zero value means health.DefaultOverloadConfig().
	Overload health.OverloadConfig `json:"overload,omitempty"`
}

// Worker-side lease and drain defaults, used when the corresponding Config
// fields are zero.
const (
	// DefaultSkewTolerance forgives this much worker/coordinator clock
	// disagreement on lease-expiry checks.
	DefaultSkewTolerance = 250 * time.Millisecond
	// DefaultDrainTimeout bounds a draining worker's wait for handoff.
	DefaultDrainTimeout = 5 * time.Second
)

// Validate reports configuration errors for the tagged role. It is the only
// validator: every constructor runs it, and it never falls back to defaults.
func (c Config) Validate() error {
	if !validTransport(c.Transport) {
		return fmt.Errorf("live: Config.Transport %q is not %q or %q", c.Transport, TransportTCP, TransportUDP)
	}
	switch c.Role {
	case RoleCloud:
		switch {
		case c.Addr == "":
			return fmt.Errorf("live: cloud Config.Addr is empty (use \"127.0.0.1:0\" for an ephemeral port)")
		case c.Tick <= 0:
			return fmt.Errorf("live: cloud Config.Tick %v is not positive", c.Tick)
		case c.DirectFPS < 0:
			return fmt.Errorf("live: cloud Config.DirectFPS %d is negative", c.DirectFPS)
		}
	case RoleSupernode:
		switch {
		case c.CloudAddr == "":
			return fmt.Errorf("live: supernode Config.CloudAddr is empty")
		case c.Addr == "":
			return fmt.Errorf("live: supernode Config.Addr is empty (use \"127.0.0.1:0\" for an ephemeral port)")
		case c.DelayToCloud < 0:
			return fmt.Errorf("live: supernode Config.DelayToCloud %v is negative", c.DelayToCloud)
		case c.FPS <= 0:
			return fmt.Errorf("live: supernode Config.FPS %d is not positive", c.FPS)
		}
		if c.CoordAddr == "" {
			return nil
		}
		switch {
		case c.Capacity <= 0:
			return fmt.Errorf("live: worker Config.Capacity %d is not positive", c.Capacity)
		case c.ReportEvery <= 0:
			return fmt.Errorf("live: worker Config.ReportEvery %v is not positive", c.ReportEvery)
		case c.SkewTolerance < 0:
			return fmt.Errorf("live: worker Config.SkewTolerance %v is negative", c.SkewTolerance)
		case c.DrainTimeout < 0:
			return fmt.Errorf("live: worker Config.DrainTimeout %v is negative", c.DrainTimeout)
		}
	case RolePlayer:
		// A coordinator-placed player gets StreamAddr from its ticket.
		switch {
		case c.CloudAddr == "":
			return fmt.Errorf("live: player Config.CloudAddr is empty")
		case c.StreamAddr == "" && c.CoordAddr == "":
			return fmt.Errorf("live: player Config.StreamAddr is empty (or set CoordAddr to be placed by ticket)")
		case c.ActionDelay < 0:
			return fmt.Errorf("live: player Config.ActionDelay %v is negative", c.ActionDelay)
		case c.ActionEvery <= 0:
			return fmt.Errorf("live: player Config.ActionEvery %v is not positive (DefaultActionEvery is %v)",
				c.ActionEvery, DefaultActionEvery)
		case c.ViewRadius <= 0:
			return fmt.Errorf("live: player Config.ViewRadius %v is not positive (DefaultViewRadius is %v)",
				c.ViewRadius, DefaultViewRadius)
		}
		if _, err := game.ByID(c.GameID); err != nil {
			return fmt.Errorf("live: player Config.GameID %d: %w", c.GameID, err)
		}
	case RoleCoordinator:
		switch {
		case c.Addr == "":
			return fmt.Errorf("live: coordinator Config.Addr is empty (use \"127.0.0.1:0\" for an ephemeral port)")
		case c.ShortlistK < 0:
			return fmt.Errorf("live: coordinator Config.ShortlistK %d is negative", c.ShortlistK)
		case c.Backups < 0:
			return fmt.Errorf("live: coordinator Config.Backups %d is negative", c.Backups)
		case c.LeaseTTL < 0:
			return fmt.Errorf("live: coordinator Config.LeaseTTL %v is negative", c.LeaseTTL)
		}
		if c.Overload != (health.OverloadConfig{}) {
			return c.Overload.Validate()
		}
	default:
		return fmt.Errorf("live: Config.Role %q is not a known role (cloud|supernode|player|coordinator)", c.Role)
	}
	return nil
}

// validateFor is every constructor's entry check: the config must carry the
// constructor's role and pass Validate.
func (c Config) validateFor(role RoleKind, ctor string) error {
	if c.Role != role {
		return fmt.Errorf("live: %s on Config.Role %q", ctor, c.Role)
	}
	return c.Validate()
}

// WorldConfig returns the cloud world configuration, substituting
// world.DefaultConfig() for the zero value so serialized configs need not
// spell out the default world.
func (c Config) WorldConfig() world.Config {
	if c.World == (world.Config{}) {
		return world.DefaultConfig()
	}
	return c.World
}

// Options carries the runtime-only attachments a serializable Config cannot:
// injected per-peer delays, metric registries, and hooks. Build one with the
// With* functional options.
type Options struct {
	// Obs, when non-nil, registers the role's link (and coordinator)
	// metrics.
	Obs *obs.Registry
	// DelayFor, when non-nil, returns the injected one-way delay toward the
	// identified peer (the cloud keys it by supernode ID, a supernode by
	// player ID, Dial by the dialing role's own ID).
	DelayFor func(peerID int64) time.Duration
	// Occupancy, when non-nil, overrides a worker's reported load (defaults
	// to the supernode's live session count).
	Occupancy func() int
	// JoinGate, when non-nil, vets every player join at a supernode — the
	// initial subscription and every datagram keepalive re-join — and
	// returns an Ack code: proto.AckOK admits, anything else refuses the
	// join and the code is reported to the player. known is true when the
	// player already has a live stream there. A lease-enforcing worker uses
	// it to reject expired tickets and, in partition safe mode, to keep
	// serving known players while refusing new placements.
	JoinGate func(join proto.JoinStream, known bool) uint32
	// Ticket is a player's encoded session ticket; it rides inside every
	// join so lease-enforcing workers can verify the placement and its
	// expiry.
	Ticket []byte
	// Retarget, when non-nil, delivers replacement stream targets to a
	// running player (coordinator-driven drain handoffs).
	Retarget <-chan StreamTarget
}

// Option mutates Options; see With*.
type Option func(*Options)

// WithObs attaches a metrics registry.
func WithObs(r *obs.Registry) Option { return func(o *Options) { o.Obs = r } }

// WithDelayFor injects per-peer one-way delays at the sender.
func WithDelayFor(f func(peerID int64) time.Duration) Option {
	return func(o *Options) { o.DelayFor = f }
}

// WithOccupancy overrides the load a worker reports to the coordinator.
func WithOccupancy(f func() int) Option { return func(o *Options) { o.Occupancy = f } }

// WithJoinGate installs a join admission hook at a supernode.
func WithJoinGate(f func(join proto.JoinStream, known bool) uint32) Option {
	return func(o *Options) { o.JoinGate = f }
}

// WithTicket embeds an encoded session ticket in a player's joins.
func WithTicket(t []byte) Option { return func(o *Options) { o.Ticket = t } }

// WithRetarget wires a replacement-target channel into a player session.
func WithRetarget(ch <-chan StreamTarget) Option {
	return func(o *Options) { o.Retarget = ch }
}

// BuildOptions folds a list of options into one Options value.
func BuildOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// DefaultedPlayer fills a player config's unset cadence and radius with the
// suggested defaults and resolves the game, so callers assembling configs
// from tickets don't repeat the boilerplate.
func DefaultedPlayer(cfg Config) (Config, error) {
	if cfg.ActionEvery == 0 {
		cfg.ActionEvery = DefaultActionEvery
	}
	if cfg.ViewRadius == 0 {
		cfg.ViewRadius = DefaultViewRadius
	}
	if _, err := game.ByID(cfg.GameID); err != nil {
		return cfg, fmt.Errorf("live: Config.GameID %d: %w", cfg.GameID, err)
	}
	return cfg, nil
}
