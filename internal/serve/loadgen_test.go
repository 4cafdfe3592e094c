package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"rlpm/internal/leaktest"
)

// TestRunLoadFrameAndRewardCadence drives one load-generated device
// against an in-process server over json, bin, and bin with four periods
// per frame. It pins the frame and reward cadence: every frame carries K
// decisions, and the server ledger holds exactly one reward per 50
// decided periods — the boundary-crossing rule, whatever K is.
func TestRunLoadFrameAndRewardCadence(t *testing.T) {
	defer leaktest.Check(t)()
	for _, tc := range []struct {
		name  string
		proto string
		k     int
	}{
		{"json-k1", "json", 1},
		{"bin-k1", "bin", 1},
		{"bin-k4", "bin", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(chaosTestModel(t), nil, Config{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			cfg := LoadConfig{
				BaseURL:         hs.URL,
				Proto:           tc.proto,
				Devices:         1,
				Duration:        150 * time.Millisecond,
				Seed:            3,
				Epsilon:         0.1,
				PeriodsPerFrame: tc.k,
			}
			if tc.proto == "bin" {
				cfg.BinAddr = startBinServer(t, srv)
			}
			rep, err := RunLoad(context.Background(), cfg)
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if rep.Errors != 0 {
				t.Fatalf("errors = %d, want 0", rep.Errors)
			}
			if rep.Decisions == 0 || rep.Decisions%uint64(tc.k) != 0 {
				t.Fatalf("decisions = %d, want a positive multiple of %d", rep.Decisions, tc.k)
			}
			if rep.Server == nil {
				t.Fatal("no server metrics snapshot")
			}
			if want := rep.Decisions / 50; rep.Server.Rewards != want {
				t.Fatalf("server rewards = %d for %d decisions, want %d", rep.Server.Rewards, rep.Decisions, want)
			}
		})
	}
}
