package live

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
)

// TestLinkImpairLoss: a 0.5 loss fraction must drop exactly every second
// frame — the accumulator is deterministic, not sampled.
func TestLinkImpairLoss(t *testing.T) {
	r := obs.NewRegistry()
	stats := obs.LinkStatsIn(r, "lossy")
	a, b := net.Pipe()
	link := NewLinkOpts(a, LinkOptions{Stats: stats})
	defer link.Close()
	defer b.Close()

	link.Impair(0, 0.5)
	go func() {
		payload := proto.MarshalAck(proto.Ack{})
		for i := 0; i < 10; i++ {
			link.Send(proto.TAck, payload)
		}
	}()
	for i := 0; i < 5; i++ {
		if _, _, err := proto.ReadFrame(b); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for stats.DroppedFrames.Load() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := stats.DroppedFrames.Load(); got != 5 {
		t.Fatalf("dropped frames = %d, want exactly 5 of 10 at lossFrac 0.5", got)
	}
	// Healthy again: the next sends all pass.
	link.Impair(0, 0)
	go func() {
		payload := proto.MarshalAck(proto.Ack{})
		for i := 0; i < 3; i++ {
			link.Send(proto.TAck, payload)
		}
	}()
	for i := 0; i < 3; i++ {
		if _, _, err := proto.ReadFrame(b); err != nil {
			t.Fatalf("post-heal frame %d: %v", i, err)
		}
	}
}

// TestLinkImpairExtraDelay: the impairment's extra latency adds to the
// link's base delay.
func TestLinkImpairExtraDelay(t *testing.T) {
	a, b := net.Pipe()
	link := NewLink(a, 5*time.Millisecond)
	defer link.Close()
	defer b.Close()

	link.Impair(40*time.Millisecond, 0)
	start := time.Now()
	go link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))
	if _, _, err := proto.ReadFrame(b); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("frame arrived in %v, before base+extra delay", elapsed)
	}
}

// TestDialBackoffRetriesUntilServerUp: the listener appears only after the
// first dial attempts have failed; backoff must carry the client through.
func TestDialBackoffRetriesUntilServerUp(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close() // free the port; nothing listens for the first ~200ms

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(200 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln.Close()
		if conn, err := ln.Accept(); err == nil {
			conn.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialBackoff(ctx, addr, 42)
	if err != nil {
		t.Fatalf("dialBackoff never reached the late server: %v", err)
	}
	conn.Close()
	<-done
}

// TestDialBackoffHonorsDeadline: with nothing ever listening, the dial must
// return the context error promptly rather than retrying forever.
func TestDialBackoffHonorsDeadline(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := dialBackoff(ctx, addr, 7); err == nil {
		t.Fatal("dialBackoff succeeded against a dead address")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dialBackoff took %v to give up on a 300ms deadline", elapsed)
	}
}

// TestDialBackoffCancelMidSleep: a context canceled while the dialer is
// asleep between attempts must abort the sleep immediately instead of
// finishing the backoff first.
func TestDialBackoffCancelMidSleep(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 1200 * time.Millisecond
	time.AfterFunc(cancelAfter, cancel)
	start := time.Now()
	if _, err := dialBackoff(ctx, addr, 9); err == nil {
		t.Fatal("dialBackoff succeeded against a dead address")
	}
	// By 1.2s the backoff has grown to ~800ms sleeps; without the mid-sleep
	// abort the return would trail the cancel by most of a sleep.
	if elapsed := time.Since(start); elapsed > cancelAfter+300*time.Millisecond {
		t.Fatalf("dialBackoff returned %v after a cancel at %v — slept through the cancel", elapsed, cancelAfter)
	}
}

// TestPlayerCloudFallbackAllBackupsDown kills the serving supernode AND every
// backup: the player must land on the cloud's direct stream, keep receiving
// segments, and its error list must name the dead supernodes it tried.
func TestPlayerCloudFallbackAllBackupsDown(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role:      RoleCloud,
		Addr:      "127.0.0.1:0",
		Tick:      33 * time.Millisecond,
		DirectFPS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	sn1, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := NewSupernode(Config{Role: RoleSupernode, ID: 2, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	sn1Addr, sn2Addr := sn1.Addr(), sn2.Addr()

	type result struct {
		report PlayerReport
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		report, err := runPlayer(Config{
			Role:        RolePlayer,
			ID:          1,
			GameID:      4,
			CloudAddr:   cloud.Addr(),
			StreamAddr:  sn1Addr,
			BackupAddrs: []string{sn2Addr},
			ActionEvery: 100 * time.Millisecond,
			ViewRadius:  DefaultViewRadius,
		}, 6*time.Second)
		resCh <- result{report, err}
	}()

	time.Sleep(600 * time.Millisecond)
	sn1.Close()
	sn2.Close() // the whole ring is gone — only the cloud is left

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !res.report.CloudFallback {
		t.Fatalf("player did not fall back to the cloud; errors: %v", res.report.FailoverErrors)
	}
	if res.report.Segments < 30 {
		t.Fatalf("player received only %d segments — the cloud fallback stream never flowed", res.report.Segments)
	}
	mentioned := map[string]bool{}
	for _, e := range res.report.FailoverErrors {
		for _, addr := range []string{sn1Addr, sn2Addr} {
			if strings.Contains(e, addr) {
				mentioned[addr] = true
			}
		}
	}
	if !mentioned[sn1Addr] || !mentioned[sn2Addr] {
		t.Fatalf("FailoverErrors %v does not name both dead supernodes %s and %s",
			res.report.FailoverErrors, sn1Addr, sn2Addr)
	}
}

// TestPlayerStreamFailover kills the serving supernode mid-run and checks
// the player reattaches to its backup and keeps receiving segments.
func TestPlayerStreamFailover(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role: RoleCloud,
		Addr: "127.0.0.1:0",
		Tick: 33 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	sn1, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := NewSupernode(Config{Role: RoleSupernode, ID: 2, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()

	type result struct {
		report PlayerReport
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		report, err := runPlayer(Config{
			Role:        RolePlayer,
			ID:          1,
			GameID:      4,
			CloudAddr:   cloud.Addr(),
			StreamAddr:  sn1.Addr(),
			BackupAddrs: []string{sn2.Addr()},
			ActionEvery: 100 * time.Millisecond,
			ViewRadius:  DefaultViewRadius,
		}, 3*time.Second)
		resCh <- result{report, err}
	}()

	time.Sleep(800 * time.Millisecond)
	sn1.Close() // the serving supernode dies mid-run

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.report.Failovers < 1 {
		t.Fatalf("player recorded %d failovers, want >= 1 after its supernode died", res.report.Failovers)
	}
	if res.report.Segments < 30 {
		t.Fatalf("player received only %d segments across the failover", res.report.Segments)
	}
}
