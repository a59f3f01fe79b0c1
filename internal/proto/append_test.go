package proto

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloudfog/internal/world"
)

// TestAppendMatchesMarshal pins the byte-identity contract across every
// message type: Append*(prefix, m) leaves prefix intact and appends exactly
// the bytes Marshal*(m) produces.
func TestAppendMatchesMarshal(t *testing.T) {
	prefix := []byte("prefix:")
	check := func(name string, appended, marshaled []byte) {
		t.Helper()
		if !bytes.HasPrefix(appended, prefix) {
			t.Fatalf("%s: prefix clobbered", name)
		}
		if !bytes.Equal(appended[len(prefix):], marshaled) {
			t.Fatalf("%s: appended bytes diverge from marshaled", name)
		}
	}
	a := Action{Player: 9, Issued: 7 * time.Millisecond,
		Act: world.Action{Player: 9, Kind: world.ActionStrike, Target: world.Vec2{X: 1, Y: 2}, Victim: 3}}
	check("action", AppendAction(append([]byte(nil), prefix...), a), MarshalAction(a))

	d := world.Delta{FromVersion: 2, ToVersion: 5,
		Updated: []world.Entity{{ID: 4, Kind: world.KindAvatar, HP: 10, Version: 5}},
		Removed: []world.EntityID{11}}
	check("delta", AppendDelta(append([]byte(nil), prefix...), d), MarshalDelta(d))

	s := Segment{Player: 1, Seq: 2, Level: 3, ActionIssued: time.Second, Payload: []byte("pay")}
	check("segment", AppendSegment(append([]byte(nil), prefix...), s), MarshalSegment(s))

	j := JoinStream{Player: 5, GameID: 2, ViewX: 10, ViewY: 20, ViewR: 30, LevelCap: 4,
		Ticket: []byte("ticket-bytes")}
	check("join", AppendJoinStream(append([]byte(nil), prefix...), j), MarshalJoinStream(j))

	h := Hello{Role: RolePlayerActions, ID: 77}
	check("hello", AppendHello(append([]byte(nil), prefix...), h), MarshalHello(h))

	check("ack", AppendAck(append([]byte(nil), prefix...), Ack{Code: 6}), MarshalAck(Ack{Code: 6}))

	reg := Register{Worker: 1_000_007, Capacity: 16, Load: 3, X: 120.5, Y: -88.25,
		Transport: StreamUDP, Addr: "127.0.0.1:4321", Sessions: []int64{7, 8, 9}}
	check("register", AppendRegister(append([]byte(nil), prefix...), reg), MarshalRegister(reg))

	rep := Report{Worker: 1_000_007, Seq: 99, Load: 7, Capacity: 16, Level: 2, Draining: 1}
	check("report", AppendReport(append([]byte(nil), prefix...), rep), MarshalReport(rep))

	pl := Place{Player: 42, GameID: 4, X: 5000, Y: 4000}
	check("place", AppendPlace(append([]byte(nil), prefix...), pl), MarshalPlace(pl))

	tk := Ticket{Player: 42, Worker: 1_000_007, Epoch: 12, Issued: 34567, Expiry: 94567,
		Transport: StreamTCP, Addr: "127.0.0.1:4321",
		Backups: []string{"127.0.0.1:4322", "127.0.0.1:4323"}, Sig: []byte("0123456789abcdef")}
	check("ticket", AppendTicket(append([]byte(nil), prefix...), tk), MarshalTicket(tk))

	rn := Renew{Player: 42, Epoch: 12}
	check("renew", AppendRenew(append([]byte(nil), prefix...), rn), MarshalRenew(rn))

	sy := Sync{Now: 123_456, LeaseTTL: 2_000_000_000}
	check("sync", AppendSync(append([]byte(nil), prefix...), sy), MarshalSync(sy))
}

// TestCoordRoundTrips pins encode→decode identity for the coordinator
// control-plane messages, including the empty-ring and unsigned ticket edge
// cases.
func TestCoordRoundTrips(t *testing.T) {
	reg := Register{Worker: 5, Capacity: 8, Load: 1, X: 1.5, Y: 2.5, Transport: StreamTCP,
		Addr: "host:1", Sessions: []int64{11, 12}}
	gotReg, err := UnmarshalRegister(MarshalRegister(reg))
	if err != nil || !reflect.DeepEqual(gotReg, reg) {
		t.Fatalf("register round trip: %+v %v", gotReg, err)
	}
	// A sessionless registration (the common first-connect case) must stay
	// nil through the round trip, not decode as an empty slice.
	bare := Register{Worker: 6, Capacity: 4, Addr: "host:2"}
	gotBare, err := UnmarshalRegister(MarshalRegister(bare))
	if err != nil || !reflect.DeepEqual(gotBare, bare) {
		t.Fatalf("bare register round trip: %+v %v", gotBare, err)
	}
	rep := Report{Worker: 5, Seq: 3, Load: 2, Capacity: 8, Level: 3, Draining: 1}
	gotRep, err := UnmarshalReport(MarshalReport(rep))
	if err != nil || gotRep != rep {
		t.Fatalf("report round trip: %+v %v", gotRep, err)
	}
	rn := Renew{Player: 9, Epoch: 4}
	gotRn, err := UnmarshalRenew(MarshalRenew(rn))
	if err != nil || gotRn != rn {
		t.Fatalf("renew round trip: %+v %v", gotRn, err)
	}
	sy := Sync{Now: 55, LeaseTTL: 66}
	gotSy, err := UnmarshalSync(MarshalSync(sy))
	if err != nil || gotSy != sy {
		t.Fatalf("sync round trip: %+v %v", gotSy, err)
	}
	pl := Place{Player: 9, GameID: 3, X: -4, Y: 4}
	gotPl, err := UnmarshalPlace(MarshalPlace(pl))
	if err != nil || gotPl != pl {
		t.Fatalf("place round trip: %+v %v", gotPl, err)
	}
	for _, tk := range []Ticket{
		{Player: 9, Worker: 5, Epoch: 1, Issued: 77, Expiry: 177, Transport: StreamUDP,
			Addr: "host:1", Backups: []string{"host:2", "host:3"}, Sig: []byte("sig")},
		{Player: 9, Epoch: 2, Addr: "cloud:1"}, // cloud-direct, unsigned, no ring, no lease
	} {
		got, err := UnmarshalTicket(MarshalTicket(tk))
		if err != nil {
			t.Fatalf("ticket round trip: %v", err)
		}
		if got.Player != tk.Player || got.Worker != tk.Worker || got.Epoch != tk.Epoch ||
			got.Issued != tk.Issued || got.Expiry != tk.Expiry ||
			got.Transport != tk.Transport || got.Addr != tk.Addr ||
			len(got.Backups) != len(tk.Backups) || !bytes.Equal(got.Sig, tk.Sig) {
			t.Fatalf("ticket round trip mismatch: %+v vs %+v", got, tk)
		}
		for i := range tk.Backups {
			if got.Backups[i] != tk.Backups[i] {
				t.Fatalf("ticket backup %d: %q vs %q", i, got.Backups[i], tk.Backups[i])
			}
		}
	}
	// Truncated tickets must error, not decode garbage.
	full := MarshalTicket(Ticket{Player: 1, Addr: "a:1", Backups: []string{"b:2"}})
	for cut := 1; cut < len(full); cut++ {
		if _, err := UnmarshalTicket(full[:cut]); err == nil {
			t.Fatalf("truncated ticket at %d decoded cleanly", cut)
		}
	}
}

// TestAppendSegmentHeaderComposes pins the split encode the render path
// uses: AppendSegmentHeader followed by the raw payload bytes must equal
// AppendSegment of the whole segment.
func TestAppendSegmentHeaderComposes(t *testing.T) {
	f := func(player, seq int64, level uint8, issued int64, payload []byte) bool {
		s := Segment{Player: player, Seq: seq, Level: level % 8,
			ActionIssued: time.Duration(issued), Payload: payload}
		split := AppendSegmentHeader(nil, s, len(payload))
		split = append(split, payload...)
		return bytes.Equal(split, MarshalSegment(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBeginFinishFrameMatchesAppendFrame pins the encode-in-place framing:
// BeginFrame + payload + FinishFrame must produce AppendFrame's bytes, at
// any header offset.
func TestBeginFinishFrameMatchesAppendFrame(t *testing.T) {
	f := func(t8 uint8, prefix, payload []byte) bool {
		typ := MsgType(t8)
		buf := BeginFrame(append([]byte(nil), prefix...), typ)
		buf = append(buf, payload...)
		if err := FinishFrame(buf, len(prefix)); err != nil {
			return false
		}
		want := AppendFrame(append([]byte(nil), prefix...), typ, payload)
		return bytes.Equal(buf, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentEncodeInPlaceNoAllocs pins the zero-copy encode: into a reused
// buffer that already holds one frame, BeginFrame + AppendSegmentHeader +
// payload + FinishFrame allocates nothing, at any GOMAXPROCS.
func TestSegmentEncodeInPlaceNoAllocs(t *testing.T) {
	payload := make([]byte, 4096)
	seg := Segment{Player: 42, Level: 3, ActionIssued: 123456}
	var buf []byte
	encode := func() {
		seg.Seq++
		buf = BeginFrame(buf[:0], TSegment)
		buf = AppendSegmentHeader(buf, seg, len(payload))
		buf = append(buf, payload...)
		if err := FinishFrame(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's warm-up call grows buf; every measured run reuses it.
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("segment encode allocates %.1f times per frame, want 0", allocs)
	}
}

func TestFinishFrameRejectsBadOffset(t *testing.T) {
	b := BeginFrame(nil, TSegment)
	if err := FinishFrame(b, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := FinishFrame(b, 1); err == nil {
		t.Fatal("offset past header accepted")
	}
	if err := FinishFrame(nil, 0); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

// TestReadFrameReuseReusesBuffer drives several frames through one buffer
// and checks the storage is recycled once it has grown to the high-water
// payload size.
func TestReadFrameReuseReusesBuffer(t *testing.T) {
	var wire bytes.Buffer
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 50),
		bytes.Repeat([]byte{3}, 100),
	}
	for _, p := range payloads {
		if err := WriteFrame(&wire, TSegment, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, want := range payloads {
		typ, got, err := ReadFrameReuse(&wire, &buf)
		if err != nil || typ != TSegment || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		if i > 0 && &got[0] != &buf[0] {
			t.Fatalf("frame %d: payload does not alias the reused buffer", i)
		}
	}
	if cap(buf) < 100 {
		t.Fatalf("buffer never grew to high-water mark: cap %d", cap(buf))
	}
}

// TestParseDatagramAliasesInput pins the zero-copy contract: the payload is
// a subslice of the datagram, not a copy.
func TestParseDatagramAliasesInput(t *testing.T) {
	p := AppendFrame(nil, TSegment, []byte("zero-copy"))
	typ, payload, err := ParseDatagram(p)
	if err != nil || typ != TSegment {
		t.Fatalf("parse: %v %v", typ, err)
	}
	if &payload[0] != &p[FrameHeaderLen] {
		t.Fatal("payload was copied instead of aliased")
	}
}

func TestParseDatagramRejectsMalformed(t *testing.T) {
	if _, _, err := ParseDatagram([]byte{1, 2}); err == nil {
		t.Fatal("short datagram accepted")
	}
	p := AppendFrame(nil, TAck, MarshalAck(Ack{}))
	if _, _, err := ParseDatagram(p[:len(p)-1]); err == nil {
		t.Fatal("truncated datagram accepted")
	}
	if _, _, err := ParseDatagram(append(p, 0)); err == nil {
		t.Fatal("datagram with trailing bytes accepted")
	}
}

// TestUnmarshalSegmentIntoBorrows pins the ownership rule the player relies
// on: the decoded payload aliases the input and must be consumed before the
// read buffer is reused.
func TestUnmarshalSegmentIntoBorrows(t *testing.T) {
	src := Segment{Player: 8, Seq: 3, Level: 2, Payload: []byte("borrowed")}
	p := MarshalSegment(src)
	var seg Segment
	if err := UnmarshalSegmentInto(p, &seg); err != nil {
		t.Fatal(err)
	}
	if seg.Player != src.Player || seg.Seq != src.Seq || !bytes.Equal(seg.Payload, src.Payload) {
		t.Fatalf("decode mismatch: %+v", seg)
	}
	p[len(p)-len(src.Payload)] = 'B'
	if seg.Payload[0] != 'B' {
		t.Fatal("payload was copied instead of borrowed")
	}
	// The allocating decoder must keep its own copy.
	owned, err := UnmarshalSegment(MarshalSegment(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(owned.Payload, src.Payload) {
		t.Fatalf("owned decode mismatch: %q", owned.Payload)
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	var bp BufferPool
	b := bp.Get(64)
	if len(b) != 0 || cap(b) < 64 {
		t.Fatalf("Get(64) = len %d cap %d", len(b), cap(b))
	}
	b = append(b, bytes.Repeat([]byte{9}, 1024)...)
	bp.Put(b)
	got := bp.Get(512)
	if len(got) != 0 {
		t.Fatalf("recycled buffer not reset: len %d", len(got))
	}
	// Oversize buffers must be dropped, not pinned.
	bp.Put(make([]byte, maxPooledBuf+1))
}

// chunkReader yields its underlying bytes in caller-chosen chunk sizes,
// modelling TCP segmentation of a batched writev.
type chunkReader struct {
	data   []byte
	bounds []int
	rng    *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.bounds) > 0 {
		n = c.bounds[0]%len(c.data) + 1
		c.bounds = c.bounds[1:]
	} else if c.rng != nil {
		n = c.rng.Intn(len(c.data)) + 1
	}
	if n > len(p) {
		n = len(p)
	}
	n = copy(p[:n], c.data)
	c.data = c.data[n:]
	return n, nil
}

// TestBatchSplitAtArbitraryBoundaries is the coalescing round-trip
// property: many frames appended back to back into one buffer (exactly what
// a batched writev puts on the wire) must decode identically no matter how
// the stream is sliced into reads.
func TestBatchSplitAtArbitraryBoundaries(t *testing.T) {
	f := func(seed int64, bounds []int, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%32) + 2
		var batch []byte
		segs := make([]Segment, n)
		for i := range segs {
			segs[i] = Segment{
				Player:  rng.Int63n(1000),
				Seq:     int64(i),
				Level:   uint8(rng.Intn(8)),
				Payload: make([]byte, rng.Intn(300)),
			}
			rng.Read(segs[i].Payload)
			hdr := len(batch)
			batch = BeginFrame(batch, TSegment)
			batch = AppendSegment(batch, segs[i])
			if err := FinishFrame(batch, hdr); err != nil {
				return false
			}
		}
		for i := range bounds {
			if bounds[i] < 0 {
				bounds[i] = -bounds[i]
			}
		}
		cr := &chunkReader{data: batch, bounds: bounds, rng: rng}
		var buf []byte
		for i := range segs {
			typ, payload, err := ReadFrameReuse(cr, &buf)
			if err != nil || typ != TSegment {
				return false
			}
			var got Segment
			if err := UnmarshalSegmentInto(payload, &got); err != nil {
				return false
			}
			if got.Player != segs[i].Player || got.Seq != segs[i].Seq ||
				got.Level != segs[i].Level || !bytes.Equal(got.Payload, segs[i].Payload) {
				return false
			}
		}
		_, _, err := ReadFrameReuse(cr, &buf)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
