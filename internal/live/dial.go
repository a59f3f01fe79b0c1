package live

import (
	"context"
	"fmt"
	"net"

	"cloudfog/internal/obs"
)

// Dial opens the Transport a role uses to reach its upstream, putting the
// UDP-vs-TCP decision (and the backoff/link plumbing both make) in exactly
// one place:
//
//   - RoleSupernode dials the cloud update link at cfg.CloudAddr — always
//     TCP, world updates must not be dropped.
//   - RolePlayer dials the serving stream at cfg.StreamAddr over
//     cfg.Transport.
//   - RoleCoordinator dials the coordinator at cfg.CoordAddr over
//     cfg.Transport (workers registering, players requesting placement).
//
// RoleCloud is listen-only and is rejected. Runtime options attach injected
// delay (DelayFor keyed by cfg.ID) and link stats via WithObs/WithDelayFor.
func Dial(ctx context.Context, role RoleKind, cfg Config, opts ...Option) (Transport, error) {
	o := BuildOptions(opts...)
	var addr string
	udp := false
	switch role {
	case RoleSupernode:
		addr = cfg.CloudAddr
	case RolePlayer:
		addr = cfg.StreamAddr
		udp = cfg.Transport == TransportUDP
	case RoleCoordinator:
		addr = cfg.CoordAddr
		udp = cfg.Transport == TransportUDP
	case RoleCloud:
		return nil, fmt.Errorf("live: Dial(RoleCloud): the cloud listens, it does not dial")
	default:
		return nil, fmt.Errorf("live: Dial on unknown role %q", role)
	}
	if addr == "" {
		return nil, fmt.Errorf("live: Dial(%s): no upstream address in config", role)
	}

	var lo LinkOptions
	if o.DelayFor != nil {
		lo.Delay = o.DelayFor(cfg.ID)
	}
	if o.Obs != nil {
		lo.Stats = obs.LinkStatsIn(o.Obs, fmt.Sprintf("%s%d_dial", role, cfg.ID))
	}
	return dialTransport(ctx, addr, cfg.ID, udp, lo)
}

// dialTransport is the shared tail of every dial path: UDP connects
// immediately (connectionless), TCP retries with capped backoff until ctx
// expires.
func dialTransport(ctx context.Context, addr string, id int64, udp bool, lo LinkOptions) (Transport, error) {
	if udp {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			return nil, err
		}
		return NewDatagramLink(conn, lo), nil
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dialDeadline)
		defer cancel()
	}
	conn, err := dialBackoff(ctx, addr, id)
	if err != nil {
		return nil, err
	}
	return NewLinkOpts(conn, lo), nil
}

var (
	_ Transport = (*Link)(nil)
	_ Transport = (*DatagramLink)(nil)
)
