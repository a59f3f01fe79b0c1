package proto

import (
	"bytes"
	"testing"
	"time"

	"cloudfog/internal/world"
)

// Native fuzz targets: `go test -fuzz FuzzDecodeDelta ./internal/proto`.
// In normal test runs they execute over the seed corpus only.

func FuzzDecodeAction(f *testing.F) {
	f.Add(MarshalAction(Action{Player: 1, Issued: time.Millisecond}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, p []byte) {
		a, err := UnmarshalAction(p)
		if err != nil {
			return
		}
		// Valid decodes must re-encode to the same bytes.
		if !bytes.Equal(MarshalAction(a), p) {
			t.Fatalf("re-encode mismatch for %x", p)
		}
	})
}

func FuzzDecodeDelta(f *testing.F) {
	d := world.Delta{
		FromVersion: 3, ToVersion: 9,
		Updated: []world.Entity{{ID: 1, Kind: world.KindAvatar, Owner: 2, HP: 50, Version: 9}},
		Removed: []world.EntityID{7},
	}
	f.Add(MarshalDelta(d))
	f.Add(MarshalDelta(world.Delta{Full: true}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := UnmarshalDelta(p)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalDelta(got), p) {
			t.Fatalf("re-encode mismatch for %x", p)
		}
	})
}

func FuzzDecodeSegment(f *testing.F) {
	f.Add(MarshalSegment(Segment{Player: 1, Seq: 2, Level: 3, Payload: []byte("xyz")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := UnmarshalSegment(p)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalSegment(got), p) {
			t.Fatalf("re-encode mismatch for %x", p)
		}
	})
}

// FuzzAppendMatchesMarshal drives the pooled Append* encoders against the
// allocating Marshal* forms with fuzzed fields and prefixes: appending into
// a dirty buffer must yield exactly prefix + Marshal bytes, and the split
// segment encode (header then raw payload) must match the one-shot form.
func FuzzAppendMatchesMarshal(f *testing.F) {
	f.Add([]byte("prefix"), int64(1), int64(2), uint8(3), int64(4), []byte("payload"))
	f.Add([]byte{}, int64(-1), int64(0), uint8(0), int64(-9), []byte{})
	f.Fuzz(func(t *testing.T, prefix []byte, player, seq int64, level uint8, issued int64, payload []byte) {
		check := func(name string, appended, marshaled []byte) {
			t.Helper()
			if !bytes.Equal(appended[:len(prefix)], prefix) {
				t.Fatalf("%s: prefix clobbered", name)
			}
			if !bytes.Equal(appended[len(prefix):], marshaled) {
				t.Fatalf("%s: appended bytes diverge from marshaled", name)
			}
		}
		pfx := func() []byte { return append([]byte(nil), prefix...) }

		s := Segment{Player: player, Seq: seq, Level: level % 8,
			ActionIssued: time.Duration(issued), Payload: payload}
		check("segment", AppendSegment(pfx(), s), MarshalSegment(s))
		split := AppendSegmentHeader(pfx(), s, len(payload))
		check("segment-split", append(split, payload...), MarshalSegment(s))

		a := Action{Player: player, Issued: time.Duration(issued),
			Act: world.Action{Player: player, Kind: world.ActionKind(level % 3),
				Target: world.Vec2{X: float64(seq), Y: float64(issued)}, Victim: world.EntityID(seq)}}
		check("action", AppendAction(pfx(), a), MarshalAction(a))

		d := world.Delta{FromVersion: uint64(player), ToVersion: uint64(seq),
			Updated: []world.Entity{{ID: world.EntityID(seq), Kind: world.KindAvatar,
				Owner: player, HP: int32(level), Version: uint64(seq)}},
			Removed: []world.EntityID{world.EntityID(issued)}}
		check("delta", AppendDelta(pfx(), d), MarshalDelta(d))

		j := JoinStream{Player: player, GameID: int32(level % 8), ViewX: float64(seq),
			ViewY: float64(issued), ViewR: 100, LevelCap: level, Ticket: payload}
		check("join", AppendJoinStream(pfx(), j), MarshalJoinStream(j))

		check("renew", AppendRenew(pfx(), Renew{Player: player, Epoch: uint64(seq)}),
			MarshalRenew(Renew{Player: player, Epoch: uint64(seq)}))
		check("sync", AppendSync(pfx(), Sync{Now: issued, LeaseTTL: seq}),
			MarshalSync(Sync{Now: issued, LeaseTTL: seq}))

		check("hello", AppendHello(pfx(), Hello{Role: Role(level), ID: player}),
			MarshalHello(Hello{Role: Role(level), ID: player}))
		check("ack", AppendAck(pfx(), Ack{Code: uint32(seq)}), MarshalAck(Ack{Code: uint32(seq)}))

		// Encode-in-place framing must agree with the one-shot AppendFrame.
		inPlace := BeginFrame(pfx(), TSegment)
		inPlace = AppendSegment(inPlace, s)
		if err := FinishFrame(inPlace, len(prefix)); err != nil {
			t.Fatalf("FinishFrame: %v", err)
		}
		check("frame", inPlace, AppendFrame(nil, TSegment, MarshalSegment(s)))
	})
}

func FuzzDecodeFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TSegment, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{byte(TDelta), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(p))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), p[:out.Len()]) {
			t.Fatal("re-framed bytes diverge")
		}
	})
}
