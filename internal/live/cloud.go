package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// Cloud is the live authoritative game server: it accepts player action
// connections and supernode update subscriptions, ticks the virtual world
// at a fixed rate, and ships deltas (plus the freshest action stamp per
// player) to every subscribed supernode.
type Cloud struct {
	cfg  Config
	opts Options

	ln net.Listener

	mu      sync.Mutex
	w       *world.World
	pending []world.Action
	stamps  map[int64]time.Duration // freshest Issued per player, not yet shipped
	// lastStamp keeps the freshest Issued per player across ticks for the
	// direct-stream fallback to echo.
	lastStamp map[int64]time.Duration
	subs      map[int64]*cloudSub
	directs   map[*Link]struct{} // live direct player streams
	closed    bool
	// tickOnce encode arenas (mu-guarded): stamp frames are appended
	// back-to-back into encScratch with stampOffs marking boundaries, and
	// each delta is encoded once into deltaScratch. Send copies payloads
	// synchronously, so the reused storage is safe to share across subs
	// and ticks.
	encScratch   []byte
	stampOffs    []int
	deltaScratch []byte

	wg   sync.WaitGroup
	stop chan struct{}
}

type cloudSub struct {
	link    *Link
	version uint64
}

// NewCloud starts the cloud server described by a RoleCloud config; a zero
// World means world.DefaultConfig().
func NewCloud(cfg Config, opts ...Option) (*Cloud, error) {
	if err := cfg.validateFor(RoleCloud, "NewCloud"); err != nil {
		return nil, err
	}
	cfg.World = cfg.WorldConfig()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", cfg.Addr, err)
	}
	c := &Cloud{
		cfg:       cfg,
		opts:      BuildOptions(opts...),
		ln:        ln,
		w:         world.New(cfg.World),
		stamps:    make(map[int64]time.Duration),
		lastStamp: make(map[int64]time.Duration),
		subs:      make(map[int64]*cloudSub),
		directs:   make(map[*Link]struct{}),
		stop:      make(chan struct{}),
	}
	c.wg.Add(2)
	go c.accept()
	go c.loop()
	return c, nil
}

// Addr returns the cloud's listen address.
func (c *Cloud) Addr() string { return c.ln.Addr().String() }

// World grants locked access to the authoritative world (for tests and
// seeding objects).
func (c *Cloud) World(f func(w *world.World)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c.w)
}

func (c *Cloud) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

func (c *Cloud) serveConn(conn net.Conn) {
	defer c.wg.Done()
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	switch typ {
	case proto.THello:
		hello, err := proto.UnmarshalHello(payload)
		if err != nil {
			conn.Close()
			return
		}
		switch hello.Role {
		case proto.RolePlayerActions:
			c.servePlayer(conn, hello.ID)
		case proto.RoleSupernode:
			c.serveSupernode(conn, hello.ID)
		default:
			conn.Close()
		}
	case proto.TJoinStream:
		c.serveDirectStream(conn, payload)
	default:
		conn.Close()
	}
}

// servePlayer ingests a player's action stream and spawns its avatar.
func (c *Cloud) servePlayer(conn net.Conn, playerID int64) {
	defer conn.Close()
	c.mu.Lock()
	if c.w.Avatar(playerID) == nil {
		// Deterministic spawn position derived from the player ID.
		b := c.cfg.World.Bounds
		x := b.Min.X + float64(uint64(playerID)*2654435761%1000)/1000*b.Width()
		y := b.Min.Y + float64(uint64(playerID)*40503%1000)/1000*b.Height()
		if _, err := c.w.SpawnAvatar(playerID, world.Vec2{X: x, Y: y}); err != nil {
			c.mu.Unlock()
			return
		}
	}
	c.mu.Unlock()
	proto.WriteFrame(conn, proto.TAck, proto.MarshalAck(proto.Ack{}))

	var rbuf []byte
	for {
		typ, payload, err := proto.ReadFrameReuse(conn, &rbuf)
		if err != nil {
			return
		}
		if typ != proto.TAction {
			continue
		}
		a, err := proto.UnmarshalAction(payload)
		if err != nil || a.Player != playerID {
			continue
		}
		c.mu.Lock()
		c.pending = append(c.pending, a.Act)
		if a.Issued > c.stamps[playerID] {
			c.stamps[playerID] = a.Issued
		}
		if a.Issued > c.lastStamp[playerID] {
			c.lastStamp[playerID] = a.Issued
		}
		c.mu.Unlock()
	}
}

// serveSupernode registers an update subscription; deltas are pushed from
// the tick loop, so this goroutine just waits for disconnect.
func (c *Cloud) serveSupernode(conn net.Conn, snID int64) {
	var delay time.Duration
	if c.opts.DelayFor != nil {
		delay = c.opts.DelayFor(snID)
	}
	var stats *obs.LinkStats
	if c.opts.Obs != nil {
		stats = obs.LinkStatsIn(c.opts.Obs, fmt.Sprintf("cloud_to_sn%d", snID))
	}
	link := NewLinkOpts(conn, LinkOptions{Delay: delay, Stats: stats})

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		link.Close()
		return
	}
	// A new subscription starts from a snapshot.
	link.Send(proto.TDelta, proto.MarshalDelta(c.w.Snapshot()))
	c.subs[snID] = &cloudSub{link: link, version: c.w.Version()}
	c.mu.Unlock()

	// Drain the peer's frames until it goes away.
	for {
		if _, _, err := link.Recv(); err != nil {
			break
		}
	}
	c.mu.Lock()
	if sub, ok := c.subs[snID]; ok && sub.link == link {
		delete(c.subs, snID)
	}
	c.mu.Unlock()
	link.Close()
}

// serveDirectStream streams segments straight from the cloud to a player
// whose first frame is a TJoinStream — the last-resort fallback when every
// supernode in the player's ring is unreachable. The stream is a plain
// fixed-rate encode of the requested game's ladder level (capped by the
// join's LevelCap), stamped with the player's freshest action so response
// latency still measures end to end.
func (c *Cloud) serveDirectStream(conn net.Conn, payload []byte) {
	if c.cfg.DirectFPS <= 0 {
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
		conn.Close()
		return
	}
	link := NewLink(conn, 0)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		link.Close()
		return
	}
	c.directs[link] = struct{}{}
	c.mu.Unlock()
	link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))

	level := g.StartLevel
	if cap := int(join.LevelCap); cap > 0 && cap < level {
		level = cap
	}
	lv, err := game.LevelAt(level)
	if err != nil {
		lv = g.Quality()
	}
	segBytes := renderSize(int(lv.Bitrate) / c.cfg.DirectFPS / 8)

	ticker := time.NewTicker(time.Second / time.Duration(c.cfg.DirectFPS))
	defer ticker.Stop()
	var seq int64
	for link.Err() == nil {
		select {
		case <-c.stop:
			goto done
		case <-ticker.C:
		}
		c.mu.Lock()
		stamp := c.lastStamp[join.Player]
		c.mu.Unlock()
		seg := proto.Segment{
			Player:       join.Player,
			Seq:          seq,
			Level:        uint8(level),
			ActionIssued: stamp,
		}
		seq++
		// Render straight into a pooled wire frame (no Marshal copy).
		frame := link.AcquireFrame(proto.TSegment)
		frame = proto.AppendSegmentHeader(frame, seg, segBytes)
		frame = appendRenderPayload(frame, segBytes, nil)
		link.SendFrame(frame)
	}
done:
	c.mu.Lock()
	delete(c.directs, link)
	c.mu.Unlock()
	link.Close()
}

// loop ticks the world at the configured rate and fans deltas out.
func (c *Cloud) loop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tickOnce()
		}
	}
}

func (c *Cloud) tickOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Apply(c.pending)
	c.pending = c.pending[:0]
	c.w.Step(c.cfg.Tick.Seconds())

	// Ship per-player action stamps, then the delta, to every supernode.
	// Stamp payloads are encoded once into the reused arena; subslices are
	// safe to hand to every sub because Send copies synchronously.
	c.encScratch = c.encScratch[:0]
	c.stampOffs = c.stampOffs[:0]
	for player, issued := range c.stamps {
		c.stampOffs = append(c.stampOffs, len(c.encScratch))
		c.encScratch = proto.AppendAction(c.encScratch, proto.Action{
			Player: player,
			Issued: issued,
		})
	}
	c.stampOffs = append(c.stampOffs, len(c.encScratch))
	for player := range c.stamps {
		delete(c.stamps, player)
	}
	minVersion := c.w.Version()
	for _, sub := range c.subs {
		for i := 0; i+1 < len(c.stampOffs); i++ {
			sub.link.Send(proto.TAction, c.encScratch[c.stampOffs[i]:c.stampOffs[i+1]])
		}
		d := c.w.DeltaSince(sub.version)
		c.deltaScratch = proto.AppendDelta(c.deltaScratch[:0], d)
		sub.link.Send(proto.TDelta, c.deltaScratch)
		sub.version = d.ToVersion
		if sub.version < minVersion {
			minVersion = sub.version
		}
	}
	c.w.Compact(minVersion)
}

// Close shuts the cloud down.
func (c *Cloud) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	subs := make([]*cloudSub, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.mu.Unlock()

	close(c.stop)
	c.ln.Close()
	for _, s := range subs {
		s.link.Close()
	}
	c.wg.Wait()
}
