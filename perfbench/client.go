package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"cloudfog/internal/coord"
	"cloudfog/internal/game"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// The benchmark's own player client. It sends the same frames as
// live.RunPlayer — a hello and move actions on a coalescing action link to
// the cloud, a TJoinStream on the worker's stream — and is placed through
// coord.OpenSession, retargeting on the session's Updates. Unlike
// live.PlayerReport it keeps every response sample, and it stamps each
// action with the time it was due, so a stall counts against the actions
// queued behind it.

// sessionSpec is one scheduled session.
type sessionSpec struct {
	id    int64
	game  game.Game
	x, y  float64
	start time.Time // scheduled arrival
	end   time.Time // scheduled departure
	// actSeed seeds the session's action gaps.
	actSeed int64
}

// sessionResult is what one session measured.
type sessionResult struct {
	err        error
	place      time.Duration // coord.OpenSession call
	join       time.Duration // scheduled arrival → first segment
	firstFrame time.Duration // stream subscribe → first segment
	gotFrame   bool
	responses  []time.Duration
	within     int // responses inside the game's ResponseRequirement
	unanswered int // actions due before end-answerGrace never answered
	frames     int64
	streamed   time.Duration // stream subscribed → session end
	streamFrom time.Time
	streamTo   time.Time
	handoffs   int // make-before-break retargets
	failovers  int // stream deaths (visible interruptions)
	// joinFallbacks counts ring candidates refused before the first
	// subscription succeeded.
	joinFallbacks int
	late          []time.Duration
}

func (r *sessionResult) ok() bool { return r.err == nil && r.failovers == 0 && r.frames > 0 }

const (
	// actionEvery is the mean gap between a session's actions; each gap
	// is drawn uniformly from actionEvery ± actionJitter, so every action
	// meets the 20 ms cloud tick and the 33 ms render tick at a fresh
	// phase instead of one phase locked in for the whole run.
	actionEvery  = 250 * time.Millisecond
	actionJitter = 50 * time.Millisecond
	// answerGrace exempts the actions due in a session's last moments from
	// the unanswered count: their frames may legitimately still be in
	// flight when the session departs.
	answerGrace   = 500 * time.Millisecond
	subscribeWait = 2 * time.Second
)

type pendingAction struct {
	due   time.Time
	stamp time.Duration
}

// streamState is the part of a session its stream readers update.
type streamState struct {
	mu       sync.Mutex
	pending  []pendingAction
	lastSeen time.Duration
	frames   int64
	first    time.Time
	res      *sessionResult
	budget   time.Duration
}

func (s *streamState) segment(seg *proto.Segment, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames++
	if s.first.IsZero() {
		s.first = now
	}
	if seg.ActionIssued <= s.lastSeen {
		return
	}
	s.lastSeen = seg.ActionIssued
	// A frame stamped with an action answers it and every earlier one.
	i := 0
	for ; i < len(s.pending) && s.pending[i].stamp <= s.lastSeen; i++ {
		r := now.Sub(s.pending[i].due)
		s.res.responses = append(s.res.responses, r)
		if r <= s.budget {
			s.res.within++
		}
	}
	s.pending = s.pending[i:]
}

type streamErr struct {
	gen int
	err error
}

// runSession drives one session from its scheduled arrival to its
// scheduled departure.
func runSession(d *deployment, spec sessionSpec) (res sessionResult) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p0 := time.Now()
	sess, err := coord.OpenSession(ctx, live.Config{
		Role: live.RolePlayer, ID: spec.id, GameID: spec.game.ID,
		CoordAddr: d.coord.Addr(), CloudAddr: d.cloud.Addr(), TicketKey: ticketKey,
		X: spec.x, Y: spec.y,
	})
	res.place = time.Since(p0)
	if err != nil {
		res.err = fmt.Errorf("place: %w", err)
		return res
	}
	defer sess.Close()

	act, err := dialActions(d.cloud.Addr(), spec.id)
	if err != nil {
		res.err = err
		return res
	}
	defer act.Close()

	st := &streamState{res: &res, budget: spec.game.ResponseRequirement()}
	done := make(chan struct{})
	// Buffered so the readers of streams closed by handoffs can report
	// and exit without waiting for the session loop; a reader finding it
	// full waits for done instead.
	errs := make(chan streamErr, 4)
	var readers sync.WaitGroup
	gen := 0
	read := func(conn net.Conn, gen int) {
		defer readers.Done()
		var buf []byte
		var seg proto.Segment
		for {
			typ, payload, err := proto.ReadFrameReuse(conn, &buf)
			if err != nil {
				select {
				case errs <- streamErr{gen, err}:
				case <-done:
				}
				return
			}
			if typ == proto.TSegment && proto.UnmarshalSegmentInto(payload, &seg) == nil {
				st.segment(&seg, time.Now())
			}
		}
	}

	// Like live.RunPlayer, the first subscription walks the ticket's ring:
	// a refused serving worker before the stream has started is a join
	// fallback, not an interruption.
	ticket := sess.Ticket()
	sub0 := time.Now()
	cur, err := subscribeRing(ticket, spec, &res.joinFallbacks)
	if err != nil {
		res.err = err
		return res
	}
	subscribed := time.Now()
	// tAddr is the serving address of the last ticket acted on; a pushed
	// ticket naming another address is a retarget (as in coord.Session.Run).
	tAddr := ticket.Addr
	readers.Add(1)
	go read(cur, gen)

	// Actions follow the open-loop schedule from the scheduled arrival,
	// starting with the first slot after the stream is up.
	gaps := rand.New(rand.NewSource(spec.actSeed))
	gap := func() time.Duration {
		return actionEvery - actionJitter + time.Duration(gaps.Int63n(int64(2*actionJitter)))
	}
	due := spec.start.Add(gap())
	for !due.After(subscribed) {
		due = due.Add(gap())
	}
	h := uint64(spec.id)*2654435761 + 12345
	actTimer := time.NewTimer(time.Until(due))
	endTimer := time.NewTimer(time.Until(spec.end))
	defer actTimer.Stop()
	defer endTimer.Stop()
	updates := sess.Updates()
loop:
	for {
		select {
		case <-actTimer.C:
			res.late = append(res.late, time.Since(due))
			stamp := time.Duration(due.UnixNano())
			st.mu.Lock()
			st.pending = append(st.pending, pendingAction{due, stamp})
			st.mu.Unlock()
			h = h*6364136223846793005 + 1442695040888963407
			target := world.Vec2{X: float64(h % 10000), Y: float64((h >> 20) % 10000)}
			act.Send(proto.TAction, proto.MarshalAction(proto.Action{
				Player: spec.id, Issued: stamp,
				Act: world.Action{Player: spec.id, Kind: world.ActionMove, Target: target},
			}))
			due = due.Add(gap())
			if due.Before(spec.end) {
				actTimer.Reset(time.Until(due))
			}
		case t, ok := <-updates:
			if !ok {
				updates = nil
				continue
			}
			if t.Addr == "" {
				res.err = errors.New("coordinator dropped the session's lease")
				continue
			}
			if t.Addr == tAddr {
				continue // renewal in place
			}
			tAddr = t.Addr
			// Make-before-break: subscribe to the new worker, then drop
			// the old stream.
			conn, err := subscribe(t.Addr, t, spec)
			if err != nil {
				continue // the old stream keeps serving
			}
			old := cur
			gen++
			cur = conn
			readers.Add(1)
			go read(cur, gen)
			old.Close()
			res.handoffs++
		case e := <-errs:
			if e.gen != gen {
				continue // a stream this session closed on purpose
			}
			// The serving stream died: a visible interruption. Fail over
			// through the freshest ticket's ring.
			res.failovers++
			next, err := subscribeRing(sess.Ticket(), spec, nil)
			if err != nil {
				res.err = fmt.Errorf("stream lost: %v; %w", e.err, err)
				break loop
			}
			gen++
			cur = next
			readers.Add(1)
			go read(cur, gen)
		case <-endTimer.C:
			break loop
		}
	}
	end := time.Now()
	close(done)
	cur.Close()
	readers.Wait()

	st.mu.Lock()
	defer st.mu.Unlock()
	res.frames = st.frames
	res.streamed = end.Sub(subscribed)
	res.streamFrom, res.streamTo = subscribed, end
	if !st.first.IsZero() {
		res.gotFrame = true
		res.join = st.first.Sub(spec.start)
		res.firstFrame = st.first.Sub(sub0)
	}
	for _, p := range st.pending {
		if p.due.Before(spec.end.Add(-answerGrace)) {
			res.unanswered++
		}
	}
	return res
}

// dialActions opens a player's action link to the cloud: hello, then
// wait for the ack (the cloud spawns the avatar in between).
func dialActions(addr string, id int64) (*live.Link, error) {
	conn, err := net.DialTimeout("tcp", addr, subscribeWait)
	if err != nil {
		return nil, fmt.Errorf("dial cloud: %w", err)
	}
	link := live.NewLink(conn, 0)
	if !link.Send(proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RolePlayerActions, ID: id})) {
		link.Close()
		return nil, errors.New("hello to cloud failed")
	}
	if typ, _, err := link.Recv(); err != nil || typ != proto.TAck {
		link.Close()
		return nil, fmt.Errorf("cloud rejected player %d: %v", id, err)
	}
	return link, nil
}

// subscribeRing joins the first stream in the ticket's ring (serving
// address, then backups) that admits the player, counting each refused
// candidate in *refused when it is non-nil.
func subscribeRing(t proto.Ticket, spec sessionSpec, refused *int) (net.Conn, error) {
	var errs []string
	for _, addr := range append([]string{t.Addr}, t.Backups...) {
		conn, err := subscribe(addr, t, spec)
		if err == nil {
			return conn, nil
		}
		errs = append(errs, err.Error())
		if refused != nil {
			*refused++
		}
	}
	return nil, fmt.Errorf("no stream in ring: %s", strings.Join(errs, "; "))
}

// subscribe joins the stream at addr (the ticket's worker or one of its
// backups), presenting the ticket.
func subscribe(addr string, t proto.Ticket, spec sessionSpec) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, subscribeWait)
	if err != nil {
		return nil, fmt.Errorf("dial worker %s: %w", addr, err)
	}
	join := proto.JoinStream{
		Player: spec.id, GameID: int32(spec.game.ID),
		ViewX: 5000, ViewY: 5000, ViewR: live.DefaultViewRadius,
		LevelCap: uint8(spec.game.StartLevel),
		Ticket:   proto.MarshalTicket(t),
	}
	if err := proto.WriteFrame(conn, proto.TJoinStream, proto.MarshalJoinStream(join)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("join %s: %w", addr, err)
	}
	conn.SetReadDeadline(time.Now().Add(subscribeWait))
	// The worker registers the stream before queueing its ack, so a
	// render tick can put a segment ahead of the ack; skip those.
	for {
		typ, payload, err := proto.ReadFrame(conn)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("join %s: %w", addr, err)
		}
		if typ != proto.TAck {
			continue
		}
		if ack, err := proto.UnmarshalAck(payload); err != nil || ack.Code != proto.AckOK {
			conn.Close()
			return nil, fmt.Errorf("join %s refused (code %d, %v)", addr, ack.Code, err)
		}
		break
	}
	conn.SetReadDeadline(spec.end.Add(subscribeWait))
	return conn, nil
}
