package coord

import (
	"errors"
	"net"
	"testing"
	"time"

	"cloudfog/internal/live"
	"cloudfog/internal/proto"
)

// TestBuriedWorkerReportClosesLink: a worker the detector buried while its
// control link stayed open must be told to rejoin. Its next report closes
// the link — the worker's report loop then reconnects and re-registers —
// instead of being answered with TSync beacons while the coordinator counts
// it dead.
func TestBuriedWorkerReportClosesLink(t *testing.T) {
	c, err := StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0", Detector: testDetector,
	})
	if err != nil {
		t.Fatalf("StartCoordinator: %v", err)
	}
	defer c.Close()

	dial := func() (net.Conn, *live.Link) {
		t.Helper()
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatalf("dial coordinator: %v", err)
		}
		link := live.NewLink(conn, 0)
		if !link.Send(proto.TRegister, proto.MarshalRegister(reg(1, 1000, 1000, 8))) {
			t.Fatal("register send failed")
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for _, want := range []proto.MsgType{proto.TAck, proto.TSync} {
			if typ, _, err := link.Recv(); err != nil || typ != want {
				t.Fatalf("registration reply: type %d err %v, want type %d", typ, err, want)
			}
		}
		return conn, link
	}
	conn, link := dial()
	defer link.Close()

	// Stay silent past Bound(): the sweep buries the worker.
	deadline := time.Now().Add(c.Bound() + 5*time.Second)
	for c.WorkersAlive() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent worker still alive %v after registering (Bound %v)", c.Bound()+5*time.Second, c.Bound())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The buried worker reports again over its still-open link.
	if !link.Send(proto.TReport, proto.MarshalReport(proto.Report{Worker: 1, Seq: 1, Capacity: 8})) {
		t.Fatal("report send failed")
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		typ, _, err := link.Recv()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("buried worker's control link still open 2s after its report")
		}
		if err != nil {
			break // closed: the worker would now reconnect
		}
		if typ == proto.TSync {
			t.Fatal("buried worker's report answered with TSync, not a closed link")
		}
	}

	// Reconnecting re-registers it as a returned worker.
	_, fresh := dial()
	defer fresh.Close()
	if l := c.Ledger(); l.WorkersRegistered != 1 || l.WorkersReturned != 1 {
		t.Fatalf("after rejoin: registered %d returned %d, want 1/1", l.WorkersRegistered, l.WorkersReturned)
	}
}
