package coord

import (
	"fmt"
	"testing"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/proto"
)

func TestTicketSignVerify(t *testing.T) {
	key := []byte("test-key")
	tk := proto.Ticket{
		Player: 7, Worker: 3, Epoch: 12, Issued: 99,
		Transport: proto.StreamUDP, Addr: "127.0.0.1:4100",
		Backups: []string{"127.0.0.1:4101", "127.0.0.1:4102"},
	}
	SignTicket(key, &tk)
	if len(tk.Sig) == 0 {
		t.Fatal("signing produced no signature")
	}
	if !VerifyTicket(key, tk) {
		t.Fatal("valid signature rejected")
	}
	if VerifyTicket([]byte("other-key"), tk) {
		t.Fatal("signature verified under the wrong key")
	}
	tampered := tk
	tampered.Addr = "10.0.0.1:4100"
	if VerifyTicket(key, tampered) {
		t.Fatal("tampered ticket verified")
	}
	forged := tk
	forged.Sig = nil
	if VerifyTicket(key, forged) {
		t.Fatal("unsigned ticket accepted under a signing key")
	}

	var unsigned proto.Ticket
	unsigned.Addr = "127.0.0.1:1"
	SignTicket(nil, &unsigned)
	if unsigned.Sig != nil {
		t.Fatal("empty key produced a signature")
	}
	if !VerifyTicket(nil, unsigned) {
		t.Fatal("unsigned ticket rejected on an unsigned deployment")
	}
}

// storm is the detector tuning every placer test uses: 100ms reports, so
// Bound() is 625ms.
var testDetector = health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond}

func testPlacer(t *testing.T, cloudAddr string) *Placer {
	t.Helper()
	p, err := NewPlacer(PlacerConfig{
		Detector:  testDetector,
		TicketKey: []byte("k"),
		CloudAddr: cloudAddr,
		Backups:   2,
	})
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	return p
}

func reg(id int64, x, y float64, capacity int32) proto.Register {
	return proto.Register{
		Worker: id, Capacity: capacity, X: x, Y: y,
		Transport: proto.StreamTCP, Addr: addrOf(id),
	}
}

func addrOf(id int64) string { return fmt.Sprintf("127.0.0.1:%d", 4000+id) }

func TestPlacerPlacement(t *testing.T) {
	p := testPlacer(t, "")
	now := time.Duration(0)
	p.Register(now, reg(1, 1000, 1000, 4))
	p.Register(now, reg(2, 9000, 1000, 4))
	p.Register(now, reg(3, 5000, 9000, 4))

	tk, ok := p.Place(now, proto.Place{Player: 100, GameID: 1, X: 1100, Y: 900})
	if !ok {
		t.Fatal("placement with free capacity rejected")
	}
	if tk.Worker != 1 {
		t.Fatalf("player near worker 1 placed on worker %d", tk.Worker)
	}
	if tk.Addr != addrOf(1) {
		t.Fatalf("ticket addr %q, want worker 1's", tk.Addr)
	}
	if !VerifyTicket([]byte("k"), tk) {
		t.Fatal("issued ticket fails verification")
	}
	for _, b := range tk.Backups {
		if b == tk.Addr {
			t.Fatal("backup ring contains the serving worker")
		}
	}
	if len(tk.Backups) != 2 {
		t.Fatalf("ring size %d, want 2", len(tk.Backups))
	}

	// Same player again: idempotent re-issue, not a second placement.
	tk2, ok := p.Place(now, proto.Place{Player: 100, GameID: 1, X: 1100, Y: 900})
	if !ok || tk2.Worker != tk.Worker {
		t.Fatalf("re-place moved the session: %v %d", ok, tk2.Worker)
	}
	if tk2.Epoch <= tk.Epoch {
		t.Fatalf("re-issued epoch %d did not advance past %d", tk2.Epoch, tk.Epoch)
	}
	if l := p.Ledger(); l.Placements != 1 {
		t.Fatalf("idempotent re-place counted twice: %+v", l)
	}

	// Fill worker 1 to its rejection threshold: the next nearby player
	// must land on an admitting worker instead.
	for i := int64(101); i <= 103; i++ {
		if _, ok := p.Place(now, proto.Place{Player: i, X: 1000, Y: 1000}); !ok {
			t.Fatalf("player %d rejected below capacity", i)
		}
	}
	tk3, ok := p.Place(now, proto.Place{Player: 104, X: 1000, Y: 1000})
	if !ok {
		t.Fatal("player rejected while other workers admit")
	}
	if tk3.Worker == 1 {
		t.Fatal("player placed on a rejecting (full) worker")
	}

	if !p.Ledger().Balanced() {
		t.Fatalf("ledger unbalanced: %+v", p.Ledger())
	}
}

// TestPlacerSkipsDrainingWorkers: a worker that has announced a full drain
// is neither chosen to serve nor listed as a backup while admitting peers
// exist, wherever it sits in the player's shortlist.
func TestPlacerSkipsDrainingWorkers(t *testing.T) {
	cases := []struct {
		name     string
		draining int64
	}{
		{"nearest worker draining", 1},
		{"first backup draining", 2},
		{"second backup draining", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPlacer(t, "")
			p.Register(0, reg(1, 1000, 1000, 8))
			p.Register(0, reg(2, 3000, 1000, 8))
			p.Register(0, reg(3, 5000, 1000, 8))
			p.Register(0, reg(4, 9000, 9000, 8))
			p.Report(0, proto.Report{Worker: tc.draining, Seq: 1, Capacity: 8, Draining: 1})

			tk, ok := p.Place(0, proto.Place{Player: 100, X: 1100, Y: 900})
			if !ok {
				t.Fatal("placement rejected while admitting workers exist")
			}
			if tk.Worker == tc.draining {
				t.Fatalf("session placed on draining worker %d", tc.draining)
			}
			for _, b := range tk.Backups {
				if b == addrOf(tc.draining) {
					t.Fatalf("backup ring %v names draining worker %d", tk.Backups, tc.draining)
				}
			}
			if len(tk.Backups) != 2 {
				t.Fatalf("ring %v, want 2 admitting backups", tk.Backups)
			}
		})
	}
}

func TestPlacerRejectionAndCloudFallback(t *testing.T) {
	// No workers, no cloud: reject.
	p := testPlacer(t, "")
	if _, ok := p.Place(0, proto.Place{Player: 1, X: 10, Y: 10}); ok {
		t.Fatal("empty placer placed a player")
	}
	if l := p.Ledger(); l.Rejected != 1 || l.Placements != 0 {
		t.Fatalf("rejection ledger: %+v", l)
	}

	// No workers, cloud fallback configured: cloud-direct ticket.
	pc := testPlacer(t, "127.0.0.1:9999")
	tk, ok := pc.Place(0, proto.Place{Player: 1, X: 10, Y: 10})
	if !ok {
		t.Fatal("cloud fallback rejected the join")
	}
	if tk.Worker != 0 || tk.Addr != "127.0.0.1:9999" || tk.Transport != proto.StreamTCP {
		t.Fatalf("cloud-direct ticket wrong: %+v", tk)
	}
}

func TestPlacerDetectorChurn(t *testing.T) {
	p := testPlacer(t, "")
	step := 100 * time.Millisecond
	now := time.Duration(0)
	p.Register(now, reg(1, 1000, 1000, 8))
	p.Register(now, reg(2, 9000, 1000, 8))
	p.Register(now, reg(3, 5000, 9000, 8))

	var players []int64
	for i := int64(0); i < 6; i++ {
		id := 200 + i
		if _, ok := p.Place(now, proto.Place{Player: id, X: float64(500 + i*1500), Y: 1500}); !ok {
			t.Fatalf("player %d not placed", id)
		}
		players = append(players, id)
	}

	// Everyone reports for 1s, then worker 1 goes silent.
	var seq uint64
	silentFrom := time.Duration(0)
	for tick := 1; tick <= 30; tick++ {
		now = time.Duration(tick) * step
		seq++
		for _, w := range []int64{1, 2, 3} {
			if w == 1 && tick > 10 {
				continue
			}
			if w == 1 {
				silentFrom = now
			}
			p.Report(now, proto.Report{Worker: w, Seq: seq, Load: 2, Capacity: 8})
		}
		reps := p.Sweep(now)
		for _, r := range reps {
			if r.Dropped {
				t.Fatalf("session %d dropped with live workers available", r.Player)
			}
			if r.Ticket.Worker == 1 {
				t.Fatal("replacement ticket points at the dead worker")
			}
		}
		if len(reps) > 0 {
			elapsed := now - silentFrom
			if elapsed > p.Bound() {
				t.Fatalf("re-placement at %v after silence, beyond Bound %v", elapsed, p.Bound())
			}
		}
	}
	if p.WorkerAlive(1) {
		t.Fatal("silent worker still alive after 2s of silence (Bound is 625ms)")
	}
	for _, id := range players {
		w, ok := p.SessionWorker(id)
		if !ok {
			t.Fatalf("session %d vanished", id)
		}
		if w == 1 {
			t.Fatalf("session %d still ticketed to the dead worker", id)
		}
	}
	l := p.Ledger()
	if !l.Balanced() {
		t.Fatalf("ledger unbalanced after churn: %+v", l)
	}
	if l.WorkersLost != 1 {
		t.Fatalf("WorkersLost %d, want 1", l.WorkersLost)
	}

	// The dead worker comes back: counted as returned, eligible again.
	if returned, _ := p.Register(now, reg(1, 1000, 1000, 8)); !returned {
		t.Fatal("re-registration of a dead worker not flagged as returned")
	}
	if !p.WorkerAlive(1) {
		t.Fatal("returned worker not alive")
	}
	if got := p.Ledger().WorkersReturned; got != 1 {
		t.Fatalf("WorkersReturned %d, want 1", got)
	}
}

// TestTicketNeverPointsAtDeadWorker is the churn property test: a
// deregister/re-register storm driven by a compiled PR 4 fault schedule
// must never leave any session's ticket naming a dead worker, and the
// ledger must stay balanced at every step. Run under -race in the suite.
func TestTicketNeverPointsAtDeadWorker(t *testing.T) {
	const nWorkers = 8
	var nodes []fault.Node
	positions := map[int64][2]float64{}
	for i := int64(1); i <= nWorkers; i++ {
		x := float64(1000 + (i%4)*2500)
		y := float64(1500 + (i/4)*5000)
		nodes = append(nodes, fault.Node{ID: i, X: x, Y: y})
		positions[i] = [2]float64{x, y}
	}
	profile := &fault.Profile{
		Name: "coord-storm", Seed: 8, Duration: fault.Dur(10 * time.Second),
		Specs: []fault.Spec{{
			Kind:   fault.KindCrash,
			Period: fault.Dur(200 * time.Millisecond),
			MTTR:   fault.Dur(400 * time.Millisecond),
			Detect: fault.Dur(100 * time.Millisecond),
		}},
	}
	sched, err := fault.Compile(profile, fault.Targets{Supernodes: nodes})
	if err != nil {
		t.Fatalf("fault.Compile: %v", err)
	}
	if len(sched.Events) < 20 {
		t.Fatalf("storm schedule too quiet: %d events", len(sched.Events))
	}

	p := testPlacer(t, "127.0.0.1:9999") // cloud fallback: sessions survive total loss
	now := time.Duration(0)
	for _, n := range nodes {
		p.Register(now, reg(n.ID, n.X, n.Y, 64))
	}
	var players []int64
	for i := int64(0); i < 100; i++ {
		id := 1000 + i
		x := float64((i * 97) % 10000)
		y := float64((i * 71) % 10000)
		if _, ok := p.Place(now, proto.Place{Player: id, X: x, Y: y}); !ok {
			t.Fatalf("seed player %d rejected", id)
		}
		players = append(players, id)
	}

	check := func(at time.Duration, ev string) {
		t.Helper()
		for _, id := range players {
			w, ok := p.SessionWorker(id)
			if !ok {
				continue // departed via forced drop (shouldn't happen with fallback)
			}
			if w != 0 && !p.WorkerAlive(w) {
				t.Fatalf("after %s at %v: session %d ticketed to dead worker %d", ev, at, id, w)
			}
		}
		if l := p.Ledger(); !l.Balanced() {
			t.Fatalf("after %s at %v: ledger unbalanced: %+v", ev, at, l)
		}
	}

	next := int64(2000)
	for _, ev := range sched.Events {
		now = ev.At
		switch ev.Op {
		case fault.OpKill:
			for _, r := range p.Deregister(now, ev.Node) {
				if !r.Dropped && r.Ticket.Worker == ev.Node {
					t.Fatalf("replacement re-ticketed onto the worker being buried: %+v", r)
				}
			}
		case fault.OpRecover:
			pos := positions[ev.Node]
			p.Register(now, reg(ev.Node, pos[0], pos[1], 64))
		default:
			continue
		}
		// Keep join/leave traffic flowing through the storm.
		if _, ok := p.Place(now, proto.Place{Player: next, X: float64(next % 10000), Y: 3000}); ok {
			players = append(players, next)
		}
		next++
		if len(players) > 120 {
			p.Depart(players[0])
			players = players[1:]
		}
		p.Sweep(now)
		check(now, ev.Op.String())
	}
	l := p.Ledger()
	if l.WorkersLost == 0 || l.WorkersReturned == 0 || l.Replacements == 0 {
		t.Fatalf("storm exercised nothing: %+v", l)
	}
}
