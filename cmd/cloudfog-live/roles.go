package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudfog/internal/coord"
	"cloudfog/internal/live"
)

// roleUsage is the per-subcommand usage text, keyed by role.
var roleUsage = map[live.RoleKind]string{
	live.RoleCloud: `cloudfog-live cloud -config <json>

Runs the cloud server: the authoritative world, the supernode update
stream, and the direct-stream fallback.
Config fields: addr (listen), tick, direct_fps, world.
Runs until SIGINT/SIGTERM.`,
	live.RoleCoordinator: `cloudfog-live coordinator -config <json> [-report ledger.json]

Runs the placement control plane: workers register and stream occupancy
reports, players ask for placement and get an HMAC-signed ticket naming
the serving worker and its backup ring. Worker deaths are detected by the
detector over report gaps and stranded sessions are re-placed. On
SIGINT/SIGTERM it writes the session-ledger reconciliation to -report.
Config fields: addr, cloud_addr (cloud-direct fallback tickets),
ticket_key, detector, lease_ttl, shortlist_k, backups, overload, transport.`,
	live.RoleSupernode: `cloudfog-live supernode -config <json>

Runs a fog supernode: subscribes to the cloud's update stream and serves
rendered segments to players on addr over tcp or udp. With coord_addr set
it runs as a coordinator-registered worker instead: it announces itself
(position x/y, capacity) and streams occupancy reports every report_every.
Config fields: id, addr, cloud_addr, fps, transport [, coord_addr, x, y,
capacity, report_every, drain_timeout, skew_tolerance, ticket_key,
detector]. Runs until SIGINT (abrupt) or SIGTERM (worker mode drains every
session onto other workers before exiting).`,
	live.RolePlayer: `cloudfog-live player -config <json> [-duration 4s]

Runs one player session: actions to the cloud, a rendered stream from a
supernode, response latency measured end to end. With coord_addr set the
player asks the coordinator for a placement ticket (verified under
ticket_key) instead of using stream_addr. Prints the session report as
JSON on exit.
Config fields: id, game_id, cloud_addr, action_every, view_radius and
either stream_addr [, backup_addrs, transport] or coord_addr [, x, y,
ticket_key].`,
}

// runRole is the subcommand entry: parse the role's flags, load the
// serializable live.Config, and run the role until it finishes or a signal
// arrives.
func runRole(role live.RoleKind, args []string) error {
	fs := flag.NewFlagSet("cloudfog-live "+string(role), flag.ExitOnError)
	configPath := fs.String("config", "", "role config JSON path (\"-\" reads stdin)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus text metrics on this address")
	duration := fs.Duration("duration", 4*time.Second, "player session length (player role only)")
	report := fs.String("report", "", "write the ledger reconciliation JSON here on exit, \"-\" = stdout (coordinator role only)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, roleUsage[role])
		fmt.Fprintln(os.Stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadConfig(*configPath, role)
	if err != nil {
		return err
	}
	_, opts, err := metricsOptions(*metricsAddr)
	if err != nil {
		return err
	}
	switch role {
	case live.RoleCloud:
		cloud, err := live.NewCloud(cfg, opts...)
		if err != nil {
			return err
		}
		defer cloud.Close()
		fmt.Printf("cloud on %s\n", cloud.Addr())
		waitSignal()
		return nil
	case live.RoleCoordinator:
		c, err := coord.StartCoordinator(cfg, opts...)
		if err != nil {
			return err
		}
		defer c.Close()
		fmt.Printf("coordinator on %s (detector bound %v)\n", c.Addr(), c.Bound())
		waitSignal()
		return writeReport(c, *report)
	case live.RoleSupernode:
		if cfg.CoordAddr != "" {
			w, err := coord.StartWorker(cfg, opts...)
			if err != nil {
				return err
			}
			defer w.Close()
			fmt.Printf("worker %d on %s (coordinator %s)\n", w.ID(), w.Addr(), cfg.CoordAddr)
			// SIGTERM is the graceful path: announce a drain so the
			// coordinator hands every session off make-before-break, and
			// only exit once the supernode is empty (or drain_timeout
			// lapses). SIGINT remains the abrupt kill.
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			if sig := <-ch; sig == syscall.SIGTERM {
				fmt.Printf("worker %d: SIGTERM, draining sessions\n", w.ID())
				if w.Drain() {
					fmt.Printf("worker %d: drained, every session handed off\n", w.ID())
				} else {
					fmt.Printf("worker %d: drain timeout, exiting with sessions attached\n", w.ID())
				}
			}
			return nil
		}
		sn, err := live.NewSupernode(cfg, opts...)
		if err != nil {
			return err
		}
		defer sn.Close()
		fmt.Printf("supernode %d on %s\n", cfg.ID, sn.Addr())
		waitSignal()
		return nil
	case live.RolePlayer:
		return runPlayerRole(cfg, *duration, opts)
	}
	return fmt.Errorf("unhandled role %q", role)
}

// writeReport writes the coordinator's ledger reconciliation JSON to path
// ("-" = stdout; empty writes nothing).
func writeReport(c *coord.Coordinator, path string) error {
	switch path {
	case "":
		return nil
	case "-":
		return c.WriteReport(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteReport(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runPlayerRole(cfg live.Config, duration time.Duration, opts []live.Option) error {
	var (
		rep live.PlayerReport
		err error
	)
	if cfg.CoordAddr != "" {
		rep, _, err = coord.RunSession(signalContext(), cfg, duration, opts...)
	} else {
		var p *live.Player
		if p, err = live.NewPlayer(cfg, opts...); err == nil {
			rep, err = p.Run(duration)
		}
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// loadConfig reads and validates a role-tagged live.Config. An untagged
// config inherits the subcommand's role; a mismatched tag is an error.
func loadConfig(path string, role live.RoleKind) (live.Config, error) {
	var cfg live.Config
	if path == "" {
		return cfg, fmt.Errorf("-config is required (JSON path, or \"-\" for stdin)")
	}
	var (
		blob []byte
		err  error
	)
	if path == "-" {
		blob, err = io.ReadAll(os.Stdin)
	} else {
		blob, err = os.ReadFile(path)
	}
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return cfg, fmt.Errorf("config %s: %w", path, err)
	}
	if cfg.Role == "" {
		cfg.Role = role
	}
	if cfg.Role != role {
		return cfg, fmt.Errorf("config role %q does not match subcommand %q", cfg.Role, role)
	}
	if role == live.RolePlayer {
		// Fill player defaults (action cadence, view radius) before the
		// strict validation pass so minimal configs work from the CLI.
		if cfg, err = live.DefaultedPlayer(cfg); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func waitSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// signalContext returns a context cancelled by SIGINT/SIGTERM.
func signalContext() context.Context {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	_ = cancel // released on process exit
	return ctx
}
