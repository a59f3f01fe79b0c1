package live

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// Transport mode names for Config.Transport. TCP is the reliable stream default; UDP streams
// segments as datagrams — stale frames are dropped by the network instead
// of head-of-line blocking behind retransmits (the paper's Eq. 14 dropping
// policy happening naturally).
const (
	TransportTCP = "tcp"
	TransportUDP = "udp"
)

const (
	// udpExpiry is how long a supernode keeps a datagram player without
	// hearing a keepalive re-join before reclaiming the stream.
	udpExpiry = 2 * time.Second
	// udpKeepaliveEvery is the player-side re-join beacon period; it also
	// silently re-registers the player after a supernode respawn.
	udpKeepaliveEvery = 500 * time.Millisecond
	// udpStaleAfter is how long a datagram player tolerates stream silence
	// (re-sending joins meanwhile) before declaring the stream dead and
	// entering the failover path.
	udpStaleAfter = 1600 * time.Millisecond
)

func validTransport(t string) bool {
	return t == "" || t == TransportTCP || t == TransportUDP
}

// Supernode is a live fog node: it subscribes to the cloud's update stream,
// maintains a replica of the virtual world, and streams rendered video
// segments to its players at the frame rate.
type Supernode struct {
	cfg  Config
	opts Options

	cloudLink *Link
	ln        net.Listener // TCP player transport (nil in UDP mode)
	udp       *net.UDPConn // UDP player transport (nil in TCP mode)

	mu      sync.Mutex
	replica *world.Replica
	stamps  map[int64]time.Duration
	players map[int64]*playerStream
	closed  bool
	// Current chaos impairment, applied to every player stream link and
	// inherited by streams that join while it is active.
	impExtra time.Duration
	impLoss  float64
	// deltas and deltaBytes count the update stream (the Λ grounding).
	deltas     int64
	deltaBytes int64

	wg   sync.WaitGroup
	stop chan struct{}
}

// SessionCount reports the number of live player streams — the occupancy a
// coordinator-registered worker reports upstream.
func (sn *Supernode) SessionCount() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.players)
}

// SessionIDs returns the IDs of the players with live streams — the ground
// truth a re-registering worker reports so a reconnecting coordinator can
// reconcile its ledger.
func (sn *Supernode) SessionIDs() []int64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	ids := make([]int64, 0, len(sn.players))
	for pid := range sn.players {
		ids = append(ids, pid)
	}
	return ids
}

// hasPlayer reports whether the player currently has a live stream.
func (sn *Supernode) hasPlayer(pid int64) bool {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	_, ok := sn.players[pid]
	return ok
}

type playerStream struct {
	link Transport
	join proto.JoinStream
	g    game.Game
	seq  int64
	// Datagram-mode liveness: source address of the join and the last time
	// a keepalive re-join refreshed it (zero for TCP streams, whose death
	// is detected by the connection read).
	raddr    string
	lastSeen time.Time
}

// NewSupernode starts the supernode described by a RoleSupernode config: it
// dials the cloud and serves players on cfg.Addr over cfg.Transport. (A
// config with CoordAddr set describes a coordinator-registered worker; start
// it through coord.StartWorker, which calls back into this constructor.)
func NewSupernode(cfg Config, opts ...Option) (*Supernode, error) {
	if err := cfg.validateFor(RoleSupernode, "NewSupernode"); err != nil {
		return nil, err
	}
	o := BuildOptions(opts...)
	ctx, cancel := context.WithTimeout(context.Background(), dialDeadline)
	conn, err := dialBackoff(ctx, cfg.CloudAddr, cfg.ID)
	cancel()
	if err != nil {
		return nil, err
	}
	var cloudStats *obs.LinkStats
	if o.Obs != nil {
		cloudStats = obs.LinkStatsIn(o.Obs, fmt.Sprintf("sn%d_to_cloud", cfg.ID))
	}
	cloudLink := NewLinkOpts(conn, LinkOptions{Delay: cfg.DelayToCloud, Stats: cloudStats})
	if !cloudLink.Send(proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: cfg.ID})) {
		cloudLink.Close()
		return nil, fmt.Errorf("live: hello to cloud failed")
	}

	var (
		ln  net.Listener
		udp *net.UDPConn
	)
	if cfg.Transport == TransportUDP {
		uaddr, uerr := net.ResolveUDPAddr("udp", cfg.Addr)
		if uerr == nil {
			udp, uerr = net.ListenUDP("udp", uaddr)
		}
		if uerr != nil {
			cloudLink.Close()
			return nil, fmt.Errorf("live: listen udp %s: %w", cfg.Addr, uerr)
		}
	} else {
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			cloudLink.Close()
			return nil, fmt.Errorf("live: listen %s: %w", cfg.Addr, err)
		}
	}
	sn := &Supernode{
		cfg:       cfg,
		opts:      o,
		cloudLink: cloudLink,
		ln:        ln,
		udp:       udp,
		replica:   world.NewReplica(),
		stamps:    make(map[int64]time.Duration),
		players:   make(map[int64]*playerStream),
		stop:      make(chan struct{}),
	}
	sn.wg.Add(3)
	go sn.consumeUpdates()
	if udp != nil {
		go sn.serveUDP()
	} else {
		go sn.accept()
	}
	go sn.renderLoop()
	return sn, nil
}

// Addr returns the supernode's player-facing listen address.
func (sn *Supernode) Addr() string {
	if sn.udp != nil {
		return sn.udp.LocalAddr().String()
	}
	return sn.ln.Addr().String()
}

// ReplicaVersion returns the replica's current world version.
func (sn *Supernode) ReplicaVersion() uint64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.replica.Version()
}

// UpdateTraffic reports the update stream received so far: message count
// and bytes (the measured Λ).
func (sn *Supernode) UpdateTraffic() (msgs, bytes int64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.deltas, sn.deltaBytes
}

// consumeUpdates applies the cloud's delta stream to the replica.
func (sn *Supernode) consumeUpdates() {
	defer sn.wg.Done()
	for {
		typ, payload, err := sn.cloudLink.Recv()
		if err != nil {
			return
		}
		switch typ {
		case proto.TDelta:
			d, err := proto.UnmarshalDelta(payload)
			if err != nil {
				continue
			}
			sn.mu.Lock()
			if applyErr := sn.replica.Apply(d); applyErr != nil {
				// Version gap: wait for the next snapshot. (The cloud
				// sends a snapshot on subscribe; gaps only arise from
				// dropped frames on a congested link.)
				sn.mu.Unlock()
				continue
			}
			sn.deltas++
			sn.deltaBytes += int64(len(payload))
			sn.mu.Unlock()
		case proto.TAction:
			a, err := proto.UnmarshalAction(payload)
			if err != nil {
				continue
			}
			sn.mu.Lock()
			if a.Issued > sn.stamps[a.Player] {
				sn.stamps[a.Player] = a.Issued
			}
			sn.mu.Unlock()
		}
	}
}

func (sn *Supernode) accept() {
	defer sn.wg.Done()
	for {
		conn, err := sn.ln.Accept()
		if err != nil {
			return
		}
		sn.wg.Add(1)
		go sn.servePlayer(conn)
	}
}

// serveUDP demuxes the shared datagram socket: every inbound datagram is a
// complete frame, and the only frame players send here is TJoinStream —
// both the initial subscription and the periodic keepalive re-join.
func (sn *Supernode) serveUDP() {
	defer sn.wg.Done()
	buf := make([]byte, proto.FrameHeaderLen+proto.MaxDatagram)
	for {
		n, raddr, err := sn.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		typ, payload, perr := proto.ParseDatagram(buf[:n])
		if perr != nil || typ != proto.TJoinStream {
			continue
		}
		sn.joinDatagram(raddr, payload)
	}
}

// joinDatagram registers (or refreshes) a datagram player stream. The join
// doubles as the liveness keepalive: a re-join from the same source address
// refreshes lastSeen, one from a new address replaces the stream (the
// player respawned), and silence past udpExpiry reclaims it.
func (sn *Supernode) joinDatagram(raddr *net.UDPAddr, payload []byte) {
	join, err := proto.UnmarshalJoinStream(payload)
	if err != nil {
		return
	}
	g, err := game.ByID(int(join.GameID))
	if err != nil {
		// Reject without setting up a stream.
		sn.udp.WriteToUDP(proto.AppendFrame(nil, proto.TAck, proto.MarshalAck(proto.Ack{Code: proto.AckRefused})), raddr)
		return
	}
	if gate := sn.opts.JoinGate; gate != nil {
		if code := gate(join, sn.hasPlayer(join.Player)); code != proto.AckOK {
			sn.udp.WriteToUDP(proto.AppendFrame(nil, proto.TAck, proto.MarshalAck(proto.Ack{Code: code})), raddr)
			return
		}
	}
	addr := raddr.String()
	now := time.Now()
	var replaced Transport
	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		return
	}
	if ps, ok := sn.players[join.Player]; ok {
		if ps.raddr == addr {
			ps.lastSeen = now
			link := ps.link
			sn.mu.Unlock()
			link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))
			return
		}
		delete(sn.players, join.Player)
		replaced = ps.link
	}
	var delay time.Duration
	if sn.opts.DelayFor != nil {
		delay = sn.opts.DelayFor(join.Player)
	}
	var stats *obs.LinkStats
	if sn.opts.Obs != nil {
		stats = obs.LinkStatsIn(sn.opts.Obs, fmt.Sprintf("sn%d_to_p%d", sn.cfg.ID, join.Player))
	}
	link := NewDatagramLink(&addrConn{sock: sn.udp, raddr: raddr}, LinkOptions{Delay: delay, Stats: stats})
	link.Impair(sn.impExtra, sn.impLoss)
	sn.players[join.Player] = &playerStream{link: link, join: join, g: g, raddr: addr, lastSeen: now}
	sn.mu.Unlock()
	if replaced != nil {
		replaced.Close()
	}
	link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))
}

// servePlayer registers a player's stream subscription. Segments are pushed
// from the render loop.
func (sn *Supernode) servePlayer(conn net.Conn) {
	defer sn.wg.Done()
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil || typ != proto.TJoinStream {
		conn.Close()
		return
	}
	join, err := proto.UnmarshalJoinStream(payload)
	if err != nil {
		conn.Close()
		return
	}
	g, err := game.ByID(int(join.GameID))
	if err != nil {
		proto.WriteFrame(conn, proto.TAck, proto.MarshalAck(proto.Ack{Code: proto.AckRefused}))
		conn.Close()
		return
	}
	if gate := sn.opts.JoinGate; gate != nil {
		if code := gate(join, sn.hasPlayer(join.Player)); code != proto.AckOK {
			proto.WriteFrame(conn, proto.TAck, proto.MarshalAck(proto.Ack{Code: code}))
			conn.Close()
			return
		}
	}
	var delay time.Duration
	if sn.opts.DelayFor != nil {
		delay = sn.opts.DelayFor(join.Player)
	}
	var stats *obs.LinkStats
	if sn.opts.Obs != nil {
		stats = obs.LinkStatsIn(sn.opts.Obs, fmt.Sprintf("sn%d_to_p%d", sn.cfg.ID, join.Player))
	}
	link := NewLinkOpts(conn, LinkOptions{Delay: delay, Stats: stats})

	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		link.Close()
		return
	}
	sn.players[join.Player] = &playerStream{link: link, join: join, g: g}
	link.Impair(sn.impExtra, sn.impLoss)
	sn.mu.Unlock()
	link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))

	var buf [1]byte
	for {
		if _, err := conn.Read(buf[:]); err != nil {
			break
		}
	}
	sn.mu.Lock()
	if ps, ok := sn.players[join.Player]; ok && ps.link == link {
		delete(sn.players, join.Player)
	}
	sn.mu.Unlock()
	link.Close()
}

// ImpairStreams applies a chaos impairment — extra one-way delay and a
// fractional frame loss rate — to every current player stream link, and to
// streams joining while it is active. Zeroes restore healthy links.
func (sn *Supernode) ImpairStreams(extra time.Duration, lossFrac float64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.impExtra = extra
	sn.impLoss = lossFrac
	for _, ps := range sn.players {
		ps.link.Impair(extra, lossFrac)
	}
}

// renderLoop produces one segment per frame interval for every player:
// select the entities visible from the player's avatar, size the payload by
// the game's ladder level, stamp the freshest covered action, send.
func (sn *Supernode) renderLoop() {
	defer sn.wg.Done()
	ticker := time.NewTicker(time.Second / time.Duration(sn.cfg.FPS))
	defer ticker.Stop()
	segBytes := func(g game.Game) int {
		return int(g.Quality().Bitrate) / sn.cfg.FPS / 8
	}
	var expired []*playerStream
	for {
		select {
		case <-sn.stop:
			return
		case <-ticker.C:
			now := time.Now()
			expired = expired[:0]
			sn.mu.Lock()
			for pid, ps := range sn.players {
				if sn.udp != nil && now.Sub(ps.lastSeen) > udpExpiry {
					// Datagram player went silent: reclaim the stream.
					delete(sn.players, pid)
					expired = append(expired, ps)
					continue
				}
				center := world.Vec2{X: ps.join.ViewX, Y: ps.join.ViewY}
				// Follow the player's avatar once it exists in the replica.
				if av, ok := sn.replica.Avatar(pid); ok {
					center = av.Pos
				}
				visible := sn.replica.Visible(world.Viewport{Center: center, Radius: ps.join.ViewR})
				n := renderSize(segBytes(ps.g))
				seg := proto.Segment{
					Player:       pid,
					Seq:          ps.seq,
					Level:        uint8(ps.g.StartLevel),
					ActionIssued: sn.stamps[pid],
				}
				ps.seq++
				// Render straight into a pooled wire frame: header, segment
				// fields, then the payload bytes in place — no Marshal copy.
				frame := ps.link.AcquireFrame(proto.TSegment)
				frame = proto.AppendSegmentHeader(frame, seg, n)
				frame = appendRenderPayload(frame, n, visible)
				ps.link.SendFrame(frame)
			}
			sn.mu.Unlock()
			for _, ps := range expired {
				ps.link.Close()
			}
		}
	}
}

// renderSize floors a segment's byte size (a degenerate ladder level still
// produces a non-empty frame).
func renderSize(n int) int {
	if n < 16 {
		return 16
	}
	return n
}

// appendRenderPayload appends n segment bytes to dst: a deterministic
// pattern seeded by the visible entities (stand-in for encoded video — the
// sizes and timing are what matter).
func appendRenderPayload(dst []byte, n int, visible []world.Entity) []byte {
	h := uint64(len(visible) + 1)
	for _, e := range visible {
		h = h*1099511628211 + uint64(e.ID)
	}
	for i := 0; i < n; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		dst = append(dst, byte(h>>56))
	}
	return dst
}

// Close shuts the supernode down.
func (sn *Supernode) Close() {
	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		return
	}
	sn.closed = true
	players := make([]*playerStream, 0, len(sn.players))
	for _, ps := range sn.players {
		players = append(players, ps)
	}
	sn.mu.Unlock()

	close(sn.stop)
	if sn.ln != nil {
		sn.ln.Close()
	}
	if sn.udp != nil {
		sn.udp.Close()
	}
	sn.cloudLink.Close()
	for _, ps := range players {
		ps.link.Close()
	}
	sn.wg.Wait()
}
