package live

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/world"
)

// TestConfigJSONRoundTrip pins the serializability contract: one JSON
// document per role, decoding back to the identical config.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfgs := []Config{
		{
			Role: RoleCloud, Addr: "127.0.0.1:0",
			World: world.DefaultConfig(), Tick: 50 * time.Millisecond,
			DirectFPS: 10,
		},
		{
			Role: RoleSupernode, ID: 3, Addr: "127.0.0.1:0",
			CloudAddr: "127.0.0.1:9000", CoordAddr: "127.0.0.1:9001",
			Transport: TransportUDP, FPS: 30,
			X: 2500, Y: 7500, Capacity: 64, ReportEvery: 100 * time.Millisecond,
		},
		{
			Role: RolePlayer, ID: 11, GameID: 1,
			CloudAddr: "127.0.0.1:9000", CoordAddr: "127.0.0.1:9001",
			ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius,
			BackupAddrs: []string{"127.0.0.1:9100", "127.0.0.1:9101"},
		},
		{
			Role: RoleCoordinator, Addr: "127.0.0.1:0",
			ShortlistK: 4, Backups: 2, TicketKey: "secret",
			Detector: health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond},
			Overload: health.DefaultOverloadConfig(),
		},
	}
	for _, cfg := range cfgs {
		blob, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", cfg.Role, err)
		}
		var back Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", cfg.Role, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("%s: round trip drifted:\n  in:  %+v\n  out: %+v", cfg.Role, cfg, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: decoded config fails validation: %v", cfg.Role, err)
		}
	}
}

// TestUnifiedConfigValidation exercises the single role-dispatched Validate.
func TestUnifiedConfigValidation(t *testing.T) {
	valid := map[RoleKind]Config{
		RoleCloud:     {Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 50 * time.Millisecond, DirectFPS: 10},
		RoleSupernode: {Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: "x:1", FPS: 30},
		RolePlayer: {Role: RolePlayer, ID: 2, GameID: 1, CloudAddr: "x:1", StreamAddr: "x:2",
			ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius},
		RoleCoordinator: {Role: RoleCoordinator, Addr: "127.0.0.1:0"},
	}
	for role, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid %s config rejected: %v", role, err)
		}
	}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"unknown role", Config{Role: "gateway", Addr: "x:1"}},
		{"bad transport", Config{Role: RoleCloud, Addr: "x:1", Tick: time.Millisecond, DirectFPS: 1, Transport: "sctp"}},
		{"cloud no addr", Config{Role: RoleCloud, Tick: time.Millisecond, DirectFPS: 1}},
		{"supernode no cloud", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", FPS: 30}},
		{"worker no capacity", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", CloudAddr: "x:2",
			FPS: 30, CoordAddr: "x:3", ReportEvery: time.Millisecond}},
		{"worker no report period", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", CloudAddr: "x:2",
			FPS: 30, CoordAddr: "x:3", Capacity: 8}},
		{"player no stream or coord", Config{Role: RolePlayer, ID: 2, GameID: 1, CloudAddr: "x:1",
			ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius}},
		{"coordinator no addr", Config{Role: RoleCoordinator}},
		{"coordinator negative shortlist", Config{Role: RoleCoordinator, Addr: "x:1", ShortlistK: -1}},
		{"coordinator negative backups", Config{Role: RoleCoordinator, Addr: "x:1", Backups: -1}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}

	// A coordinator-placed player needs no StreamAddr: the ticket names one.
	placed := Config{Role: RolePlayer, ID: 2, GameID: 1, CloudAddr: "x:1", CoordAddr: "x:9",
		ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius}
	if err := placed.Validate(); err != nil {
		t.Errorf("coordinator-placed player rejected: %v", err)
	}
}

// TestConfigConstructors drives a full cloud/supernode/player session through
// the functional-option constructors.
func TestConfigConstructors(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role: RoleCloud, Addr: "127.0.0.1:0",
		Tick: 20 * time.Millisecond, DirectFPS: 10,
	})
	if err != nil {
		t.Fatalf("NewCloud: %v", err)
	}
	defer cloud.Close()

	sn, err := NewSupernode(Config{
		Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), FPS: 60, Transport: TransportTCP,
	})
	if err != nil {
		t.Fatalf("NewSupernode: %v", err)
	}
	defer sn.Close()
	if got := sn.SessionCount(); got != 0 {
		t.Fatalf("fresh supernode SessionCount = %d, want 0", got)
	}

	pcfg, err := DefaultedPlayer(Config{
		Role: RolePlayer, ID: 7, GameID: 1,
		CloudAddr: cloud.Addr(), StreamAddr: sn.Addr(),
	})
	if err != nil {
		t.Fatalf("DefaultedPlayer: %v", err)
	}
	p, err := NewPlayer(pcfg)
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	rep, err := p.Run(400 * time.Millisecond)
	if err != nil {
		t.Fatalf("player run: %v", err)
	}
	if rep.Segments == 0 {
		t.Fatal("constructor-built player streamed zero segments")
	}
}
