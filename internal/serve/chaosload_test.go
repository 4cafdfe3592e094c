package serve

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/leaktest"
)

// chaosTestModel matches soc.DefaultChipSpec(): two clusters with 8 and 9
// OPPs — the chaos device loop simulates that chip, so the served model
// must agree on shape.
func chaosTestModel(t testing.TB) *Model { return testModel(t, 8, 9) }

// TestChaosZeroFaultsDifferential pins the do-no-harm contract: with every
// fault rate zero and no restart, the resilience machinery must be
// invisible — all decisions acked, zero retries, zero resumes, and every
// sequence identical to the in-process oracle. It doubles as the
// learning-disabled differential: the servers here run with the zero
// LearnConfig, so it proves the learner's reward-path plumbing (sequence
// tags, cohort hooks) leaves a frozen server byte-identical to seed
// behavior on both transports.
func TestChaosZeroFaultsDifferential(t *testing.T) {
	defer leaktest.Check(t)()
	for _, proto := range []string{"bin", "json"} {
		t.Run(proto, func(t *testing.T) {
			rep, err := RunChaos(context.Background(), chaosTestModel(t), ChaosConfig{
				Proto:   proto,
				Devices: 3,
				Periods: 40,
				Seed:    7,
				Epsilon: 0.2,
			})
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			if want := uint64(3 * 40); rep.Decisions != want {
				t.Errorf("decisions = %d, want %d", rep.Decisions, want)
			}
			if rep.Mismatches != 0 {
				t.Errorf("mismatches = %d, want 0", rep.Mismatches)
			}
			if rep.Retries != 0 || rep.Resumes != 0 {
				t.Errorf("fault-free run used retries=%d resumes=%d, want 0/0", rep.Retries, rep.Resumes)
			}
		})
	}
}

// TestChaosFaultsBin injects drops, partial writes, and latency spikes on
// the binary transport and demands a perfect run anyway.
func TestChaosFaultsBin(t *testing.T) {
	defer leaktest.Check(t)()
	rep, err := RunChaos(context.Background(), chaosTestModel(t), ChaosConfig{
		Proto:   "bin",
		Devices: 4,
		Periods: 60,
		Seed:    11,
		Epsilon: 0.3,
		Faults: chaos.Config{
			DropRate:         0.02,
			PartialWriteRate: 0.05,
			LatencyRate:      0.05,
			LatencyFor:       2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if rep.ProxyDrops == 0 {
		t.Error("fault schedule injected no drops; test is vacuous")
	}
	if rep.Retries == 0 {
		t.Error("drops occurred but no call retried")
	}
}

// TestChaosRewardRetryDedup is the reward-path regression under chaos:
// with drops and partial writes injected, some reward acks are lost and
// retried — the sequence tags must answer those retries from the dedup
// ledger so the server's reward count still equals the client's acked
// count exactly (RunChaos enforces that invariant internally for
// restart-free runs). The fault schedule is seed-derived, so the test
// scans a few seeds and demands at least one actually exercised the
// dedup path; otherwise the run was vacuous.
func TestChaosRewardRetryDedup(t *testing.T) {
	defer leaktest.Check(t)()
	for _, proto := range []string{"bin", "json"} {
		t.Run(proto, func(t *testing.T) {
			deduped := false
			for seed := uint64(1); seed <= 8 && !deduped; seed++ {
				rep, err := RunChaos(context.Background(), chaosTestModel(t), ChaosConfig{
					Proto:       proto,
					Devices:     4,
					Periods:     40,
					Seed:        seed,
					Epsilon:     0.2,
					RewardEvery: 2,
					Faults: chaos.Config{
						DropRate:         0.04,
						PartialWriteRate: 0.04,
						LatencyRate:      0.02,
						LatencyFor:       time.Millisecond,
					},
				})
				if err != nil {
					t.Fatalf("RunChaos(seed %d): %v", seed, err)
				}
				if rep.RewardsAcked == 0 {
					t.Fatalf("seed %d acked no rewards", seed)
				}
				deduped = rep.RewardsDeduped > 0
			}
			if !deduped {
				t.Error("no seed exercised the reward dedup path; regression test is vacuous")
			}
		})
	}
}

// TestChaosCrashRestart kills the server abruptly mid-run; clients must
// ride through via retry + resume with nothing lost or changed.
func TestChaosCrashRestart(t *testing.T) {
	defer leaktest.Check(t)()
	rep, err := RunChaos(context.Background(), chaosTestModel(t), ChaosConfig{
		Proto:   "bin",
		Devices: 4,
		Periods: 50,
		Seed:    13,
		Epsilon: 0.25,
		Restart: "crash",
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if rep.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", rep.Restarts)
	}
	if rep.Resumes == 0 {
		t.Error("server restarted but no session resumed")
	}
}

// TestChaosDrainRestartJSON drains the HTTP incarnation gracefully —
// verifying the farewell checkpoint is readable — then restarts it.
func TestChaosDrainRestartJSON(t *testing.T) {
	defer leaktest.Check(t)()
	rep, err := RunChaos(context.Background(), chaosTestModel(t), ChaosConfig{
		Proto:          "json",
		Devices:        3,
		Periods:        40,
		Seed:           17,
		Epsilon:        0.25,
		Restart:        "drain",
		CheckpointPath: filepath.Join(t.TempDir(), "drain.ckpt"),
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if rep.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", rep.Restarts)
	}
	if !rep.DrainCheckpoint {
		t.Error("drain checkpoint was not written or did not load")
	}
}

// TestChaosConfigValidate covers the config error paths.
func TestChaosConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  ChaosConfig
		want string
	}{
		{ChaosConfig{Proto: "grpc"}.withDefaults(), "unknown chaos proto"},
		{ChaosConfig{Restart: "reboot"}.withDefaults(), "unknown restart mode"},
		{ChaosConfig{Restart: "drain"}.withDefaults(), "checkpoint path"},
		{ChaosConfig{Devices: -1}.withDefaults(), "at least one device"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", c.cfg, err, c.want)
		}
	}
}

// TestChaosFailedDrainReports drains into a checkpoint path whose
// directory does not exist, so the restart step fails. RunChaos must
// report that failure promptly and tear down cleanly: the fleet stops
// instead of retrying against the dead address, and stopping the drained
// incarnation a second time does not block.
func TestChaosFailedDrainReports(t *testing.T) {
	defer leaktest.Check(t)()
	start := time.Now()
	_, err := RunChaos(context.Background(), chaosTestModel(t), ChaosConfig{
		Proto:          "bin",
		Devices:        2,
		Periods:        20,
		Seed:           3,
		Epsilon:        0.2,
		Restart:        "drain",
		CheckpointPath: filepath.Join(t.TempDir(), "missing", "drain.ckpt"),
	})
	if err == nil || !strings.Contains(err.Error(), "chaos restart") {
		t.Fatalf("RunChaos = %v, want a restart failure", err)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("failed restart took %v to report", d)
	}
}
