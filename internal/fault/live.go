package fault

import (
	"context"
	"fmt"
	"time"

	"cloudfog/internal/obs"
)

// WallHooks are the testbed-side callbacks RunWall drives. Hooks run on
// RunWall's goroutine in schedule order and must not block for long, or
// later events slip.
type WallHooks struct {
	// Kill terminates the live supernode process with the given fog ID.
	Kill func(id int64)
	// Recover starts a fresh supernode process under the same ID.
	Recover func(id int64)
	// Link applies the current global link impairment (extra one-way
	// latency plus loss fraction) to every active stream. Called on every
	// impairment window edge with the post-edge values; (0, 0) restores.
	Link func(extra time.Duration, lossFrac float64)
	// Join starts one flash-crowd player.
	Join func()
}

// missing reports whether op needs a hook the target left nil. Bandwidth
// and cloud-scale ops have no live counterpart by design and need none.
func (h WallHooks) missing(op Op) bool {
	switch op {
	case OpKill:
		return h.Kill == nil
	case OpRecover:
		return h.Recover == nil
	case OpLinkBad, OpLinkGood, OpLatencyOn, OpLatencyOff:
		return h.Link == nil
	case OpJoin:
		return h.Join == nil
	}
	return false
}

// RunWall replays a compiled schedule in wall-clock time against the live
// runtime, so a testbed chaos run follows the exact event log a simulation
// of the same profile follows. It returns when the profile horizon elapses
// or ctx is canceled. A schedule with an in-horizon op the hooks cannot
// honour is refused before the first event, rather than silently thinned.
// Bandwidth and cloud-scale ops have no live counterpart and map onto the
// Link hook's loss path only through the schedule's own window lookups.
func RunWall(ctx context.Context, sched *Schedule, hooks WallHooks, stats *obs.FaultStats) error {
	horizon := sched.Profile.Duration.Duration
	for _, ev := range sched.Events {
		if ev.At >= horizon {
			break
		}
		if hooks.missing(ev.Op) {
			return fmt.Errorf("fault: the live target has no hook for %s (first at %v)", ev.Op, ev.At)
		}
	}
	start := time.Now()
	downSince := make(map[int64]time.Time)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	apply := func(ev Event) {
		switch ev.Op {
		case OpKill:
			hooks.Kill(ev.Node)
			if _, down := downSince[ev.Node]; !down {
				downSince[ev.Node] = time.Now()
			}
			if stats != nil {
				stats.Kills.Inc()
				if stats.Sink != nil {
					stats.Sink(obs.Event{Kind: obs.EventFaultKill, At: ev.At, Node: ev.Node})
				}
			}
		case OpRecover:
			downAt, ok := downSince[ev.Node]
			if !ok {
				return
			}
			delete(downSince, ev.Node)
			hooks.Recover(ev.Node)
			if stats != nil {
				stats.Recoveries.Inc()
				stats.MTTRNs.Observe(int64(time.Since(downAt)))
				if stats.Sink != nil {
					stats.Sink(obs.Event{Kind: obs.EventFaultRecover, At: ev.At, Node: ev.Node})
				}
			}
		case OpLinkBad, OpLinkGood, OpLatencyOn, OpLatencyOff:
			// Query the schedule at the event time itself: window starts
			// are inclusive and ends exclusive, so the post-edge state
			// falls out of the same pure lookups the simulator uses.
			extra := sched.ExtraLatency(ev.At)
			loss := sched.LossFrac(ev.At)
			hooks.Link(extra, loss)
			if stats != nil {
				entering := int64(0)
				if ev.Op == OpLinkBad || ev.Op == OpLatencyOn {
					entering = 1
					stats.LinkWindows.Inc()
				}
				if stats.Sink != nil {
					stats.Sink(obs.Event{Kind: obs.EventFaultLink, At: ev.At, A: entering})
				}
			}
		case OpJoin:
			hooks.Join()
			if stats != nil {
				stats.StormJoins.Inc()
			}
		}
	}

	for _, ev := range sched.Events {
		if ev.At >= horizon {
			// The sim injector never reaches past-horizon events either
			// (RunUntil stops at the horizon); keep the interpreters aligned.
			break
		}
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		apply(ev)
	}
	// Let the horizon tail play out so recoveries near the end settle.
	rest := time.Until(start.Add(horizon))
	if rest > 0 {
		timer.Reset(rest)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
	return nil
}
