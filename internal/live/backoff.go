package live

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Dial retry tuning: exponential from dialBackoffBase, capped at
// dialBackoffMax, with deterministic jitter in [0, backoff/2] so a herd of
// clients with distinct IDs fans out instead of thundering.
const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
	// dialDeadline bounds a whole dial-with-retries sequence when the
	// caller has no tighter context.
	dialDeadline = 10 * time.Second
)

// DialLink dials addr over TCP with capped backoff and wraps the connection
// in a coalescing Link. Without a context deadline the whole retry sequence
// is bounded by dialDeadline. id seeds the retry jitter.
func DialLink(ctx context.Context, addr string, id int64, lo LinkOptions) (*Link, error) {
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

// dialBackoff dials addr with capped exponential backoff until the context
// expires. The jitter sequence is a pure function of (id, addr, attempt), so
// a retrying fleet is reproducible and spread out at the same time. A context
// canceled mid-sleep aborts immediately, and the single reused timer never
// leaks the way a per-attempt time.After channel would.
func dialBackoff(ctx context.Context, addr string, id int64) (net.Conn, error) {
	var d net.Dialer
	h := uint64(id)*2654435761 + 0x9e3779b97f4a7c15
	for i := 0; i < len(addr); i++ {
		h = h*1099511628211 + uint64(addr[i])
	}
	backoff := dialBackoffBase
	var lastErr error
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("live: dial %s: %w (last attempt: %v)", addr, err, lastErr)
		}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		h = h*6364136223846793005 + 1442695040888963407
		jitter := time.Duration(h % uint64(backoff/2+1))
		timer.Reset(backoff + jitter)
		select {
		case <-ctx.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return nil, fmt.Errorf("live: dial %s: %w (last attempt: %v)", addr, ctx.Err(), lastErr)
		case <-timer.C:
		}
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}
