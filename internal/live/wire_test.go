package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// tcpTestPair returns both ends of a loopback TCP connection.
func tcpTestPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, aerr := ln.Accept()
		if aerr != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-ch
	if !ok {
		client.Close()
		t.Fatal("accept failed")
	}
	return client, server
}

// TestLinkBatchesUnderSaturation blasts frames through a coalescing Link
// faster than the flush deadline and checks that (a) every frame arrives in
// order and byte-intact and (b) the batching counters prove writev batches
// actually formed.
func TestLinkBatchesUnderSaturation(t *testing.T) {
	c1, c2 := tcpTestPair(t)
	defer c2.Close()
	reg := obs.NewRegistry()
	stats := obs.LinkStatsIn(reg, "test")
	link := NewLinkOpts(c1, LinkOptions{Stats: stats})
	defer link.Close()

	const n = 2000
	done := make(chan error, 1)
	go func() {
		br := bufio.NewReaderSize(c2, 1<<16)
		var buf []byte
		var seg proto.Segment
		for i := 0; i < n; i++ {
			typ, payload, err := proto.ReadFrameReuse(br, &buf)
			if err != nil {
				done <- err
				return
			}
			if typ != proto.TSegment {
				done <- fmt.Errorf("frame %d: wrong type %d", i, typ)
				return
			}
			if err := proto.UnmarshalSegmentInto(payload, &seg); err != nil {
				done <- err
				return
			}
			if seg.Seq != int64(i) {
				t.Errorf("frame %d arrived with seq %d: ordering broken", i, seg.Seq)
				done <- nil
				return
			}
		}
		done <- nil
	}()

	payload := make([]byte, 64)
	for i := 0; i < n; i++ {
		frame := link.AcquireFrame(proto.TSegment)
		frame = proto.AppendSegmentHeader(frame, proto.Segment{Player: 1, Seq: int64(i)}, len(payload))
		frame = append(frame, payload...)
		if !link.SendFrameWait(frame) {
			t.Fatalf("link died at frame %d: %v", i, link.Err())
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The writer counts a batch after its writev returns, so the reader can
	// finish first; Close waits the writer out before the counters are read.
	link.Close()
	if batched := stats.BatchedFrames.Load(); batched == 0 {
		t.Fatal("no frames were coalesced under saturation")
	}
	if stats.BatchWrites.Load() == 0 {
		t.Fatal("no batch writes recorded")
	}
	if got := stats.SentFrames.Load(); got != n {
		t.Fatalf("sent %d frames, want %d", got, n)
	}
}

// TestLinkPerFrameModeDisablesBatching pins the baseline mode: a negative
// FlushDeadline must write one frame per syscall and never batch.
func TestLinkPerFrameModeDisablesBatching(t *testing.T) {
	c1, c2 := tcpTestPair(t)
	defer c2.Close()
	reg := obs.NewRegistry()
	stats := obs.LinkStatsIn(reg, "test")
	link := NewLinkOpts(c1, LinkOptions{Stats: stats, FlushDeadline: -1})
	defer link.Close()

	const n = 200
	done := make(chan error, 1)
	go func() {
		var buf []byte
		br := bufio.NewReader(c2)
		for i := 0; i < n; i++ {
			if _, _, err := proto.ReadFrameReuse(br, &buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if !link.Send(proto.TAck, proto.MarshalAck(proto.Ack{Code: uint32(i)})) {
			t.Fatalf("send %d failed: %v", i, link.Err())
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if b := stats.BatchedFrames.Load(); b != 0 {
		t.Fatalf("per-frame mode batched %d frames", b)
	}
}

// TestLinkConcurrentSendImpairClose is the race detector's playground:
// several senders, an impairing goroutine, and a closer all hammer one Link
// concurrently. The only requirement is no race, no panic, no hang.
func TestLinkConcurrentSendImpairClose(t *testing.T) {
	c1, c2 := tcpTestPair(t)
	defer c2.Close()
	reg := obs.NewRegistry()
	link := NewLinkOpts(c1, LinkOptions{Stats: obs.LinkStatsIn(reg, "race")})

	// Drain everything until the conn dies.
	go func() {
		br := bufio.NewReader(c2)
		var buf []byte
		for {
			if _, _, err := proto.ReadFrameReuse(br, &buf); err != nil {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				frame := link.AcquireFrame(proto.TSegment)
				frame = proto.AppendSegment(frame, proto.Segment{Player: int64(s), Seq: int64(i)})
				if !link.SendFrame(frame) && link.Err() != nil {
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			link.Impair(time.Duration(i%2)*time.Millisecond, float64(i%3)*0.2)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		link.Close()
	}()
	wg.Wait()
	link.Close() // double Close must be safe
	if link.Send(proto.TAck, nil) {
		t.Fatal("send after close succeeded")
	}
}

// udpTestPair returns two DatagramLinks over a connected loopback UDP
// socket pair.
func udpTestPair(t *testing.T, opts LinkOptions) (*DatagramLink, *DatagramLink) {
	t.Helper()
	ua, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		ua.Close()
		t.Fatal(err)
	}
	ca, err := net.DialUDP("udp", nil, ub.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	ua.Close()
	return NewDatagramLink(ca, opts), NewDatagramLink(ub, opts)
}

// TestDatagramLinkEndToEnd sends segments over loopback UDP and checks that
// what arrives decodes intact and in strictly increasing seq order (loopback
// preserves ordering; the link itself must not reorder).
func TestDatagramLinkEndToEnd(t *testing.T) {
	sender, receiver := udpTestPair(t, LinkOptions{})
	defer sender.Close()
	defer receiver.Close()

	const n = 50
	for i := 0; i < n; i++ {
		frame := sender.AcquireFrame(proto.TSegment)
		frame = proto.AppendSegment(frame, proto.Segment{Player: 7, Seq: int64(i), Payload: []byte("dgram")})
		if !sender.SendFrameWait(frame) {
			t.Fatalf("send %d failed: %v", i, sender.Err())
		}
	}

	got := 0
	last := int64(-1)
	deadline := time.Now().Add(2 * time.Second)
	for got < n && time.Now().Before(deadline) {
		receiver.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		typ, payload, err := receiver.Recv()
		if err != nil {
			break // deadline: whatever UDP delivered is what we check
		}
		if typ != proto.TSegment {
			t.Fatalf("wrong type %v", typ)
		}
		var seg proto.Segment
		if err := proto.UnmarshalSegmentInto(payload, &seg); err != nil {
			t.Fatal(err)
		}
		if seg.Seq <= last || string(seg.Payload) != "dgram" {
			t.Fatalf("frame corrupt or reordered: seq %d after %d payload %q", seg.Seq, last, seg.Payload)
		}
		last = seg.Seq
		got++
	}
	if got == 0 {
		t.Fatal("no datagrams arrived on loopback")
	}
}

// TestDatagramLinkRejectsOversize pins the datagram size gate: one frame
// must fit one datagram, so anything beyond MaxDatagram is refused at send.
func TestDatagramLinkRejectsOversize(t *testing.T) {
	sender, receiver := udpTestPair(t, LinkOptions{})
	defer sender.Close()
	defer receiver.Close()
	frame := sender.AcquireFrame(proto.TSegment)
	frame = proto.AppendSegment(frame, proto.Segment{Player: 1, Payload: make([]byte, proto.MaxDatagram)})
	if sender.SendFrame(frame) {
		t.Fatal("oversize datagram accepted")
	}
	if sender.Err() != nil {
		t.Fatalf("oversize send must not kill the link: %v", sender.Err())
	}
}

// TestDatagramLinkImpairLossDeterministic checks the datagram path reuses
// the same deterministic loss accumulator as the stream path: 50% loss
// drops exactly every other frame, counted in the stats, with no RNG.
func TestDatagramLinkImpairLossDeterministic(t *testing.T) {
	reg := obs.NewRegistry()
	stats := obs.LinkStatsIn(reg, "dgram")
	sender, receiver := udpTestPair(t, LinkOptions{Stats: stats})
	defer sender.Close()
	defer receiver.Close()
	sender.Impair(0, 0.5)

	const n = 10
	accepted := 0
	for i := 0; i < n; i++ {
		frame := sender.AcquireFrame(proto.TAck)
		frame = proto.AppendAck(frame, proto.Ack{Code: uint32(i)})
		if sender.SendFrame(frame) {
			accepted++
		}
	}
	if accepted != n/2 {
		t.Fatalf("50%% loss accepted %d of %d frames, want exactly %d", accepted, n, n/2)
	}
	if d := stats.DroppedFrames.Load(); d != n/2 {
		t.Fatalf("dropped counter %d, want %d", d, n/2)
	}
}

// TestPipeTransport checks the in-process transport speaks the identical
// wire path in both directions.
func TestPipeTransport(t *testing.T) {
	a, b := NewPipeTransport(LinkOptions{})
	defer a.Close()
	defer b.Close()

	if !a.Send(proto.TAck, proto.MarshalAck(proto.Ack{Code: 42})) {
		t.Fatal("send a->b failed")
	}
	typ, payload, err := b.Recv()
	if err != nil || typ != proto.TAck {
		t.Fatalf("recv a->b: %v %v", typ, err)
	}
	if ack, err := proto.UnmarshalAck(payload); err != nil || ack.Code != 42 {
		t.Fatalf("decode a->b: %+v %v", ack, err)
	}

	if !b.Send(proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: 9})) {
		t.Fatal("send b->a failed")
	}
	typ, payload, err = a.Recv()
	if err != nil || typ != proto.THello {
		t.Fatalf("recv b->a: %v %v", typ, err)
	}
	if h, err := proto.UnmarshalHello(payload); err != nil || h.ID != 9 {
		t.Fatalf("decode b->a: %+v %v", h, err)
	}
}

// TestEndToEndPipelineUDP runs the full deployment with the datagram stream
// transport: cloud (always TCP), one UDP supernode, one UDP player. Segments
// must flow and response latency must still clear the injected path delay.
func TestEndToEndPipelineUDP(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role: RoleCloud,
		Addr: "127.0.0.1:0",
		Tick: 33 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	sn, err := NewSupernode(Config{
		Role:         RoleSupernode,
		ID:           1_000_000,
		CloudAddr:    cloud.Addr(),
		Addr:         "127.0.0.1:0",
		DelayToCloud: 2 * time.Millisecond,
		FPS:          30,
		Transport:    TransportUDP,
	}, WithDelayFor(func(int64) time.Duration { return 4 * time.Millisecond }))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	cloud.World(func(w *world.World) {
		for i := 0; i < 20; i++ {
			w.SpawnObject(world.Vec2{X: float64(i * 400), Y: float64(i * 350)})
		}
	})

	report, err := runPlayer(Config{
		Role:        RolePlayer,
		ID:          1,
		GameID:      4,
		CloudAddr:   cloud.Addr(),
		StreamAddr:  sn.Addr(),
		ActionDelay: 3 * time.Millisecond,
		ActionEvery: 100 * time.Millisecond,
		ViewRadius:  DefaultViewRadius,
		Transport:   TransportUDP,
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// ~30 fps for 2 s; UDP may shed a few but the stream must be live.
	if report.Segments < 20 || report.Segments > 75 {
		t.Fatalf("received %d segments over UDP, want ~60", report.Segments)
	}
	if report.Bytes <= 0 {
		t.Fatal("no payload bytes over UDP")
	}
	if report.MeanResponse == 0 {
		t.Fatal("no response latencies measured over UDP")
	}
}
