// Scaling harness: RunScale measures the fleet's decide throughput at a
// sequence of shard counts, producing the BENCH_pr9 scaling curve. For
// each point it stands up an N-shard checkpoint-hydrated fleet plus a
// router, then drives the load generator's device fleet at the shards
// DIRECTLY over the binary protocol — each device placed by the same
// consistent-hash ring the router uses, so placement agrees without the
// router in the data path (the deployment shape: the router handles
// placement, resume, and admin; steady-state decide traffic goes
// shard-direct). The router still fronts the control plane: health,
// placement, and the merged fleet /metrics each point records.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rlpm/internal/serve"
)

// ScaleConfig parameterizes a scaling-curve run.
type ScaleConfig struct {
	// ShardCounts lists the fleet sizes to measure (default [1, 2, 4]).
	ShardCounts []int
	// Devices is the simulated device count per point (default 100_000).
	Devices int
	// Workers bounds the load generator's goroutines (default 64).
	Workers int
	// Duration is the measured wall-clock window per point (default 10s).
	Duration time.Duration
	// Scenario, Seed, Epsilon pass through to the load generator.
	Scenario string
	Seed     uint64
	Epsilon  float64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4}
	}
	if c.Devices == 0 {
		c.Devices = 100_000
	}
	if c.Workers == 0 {
		c.Workers = 64
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Scenario == "" {
		c.Scenario = "gaming"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScalePoint is one shard count's measurement.
type ScalePoint struct {
	Shards int               `json:"shards"`
	Report *serve.LoadReport `json:"report"`
	// Fleet is the router's merged view scraped after the run: per-shard
	// decide counts prove every shard carried traffic.
	Fleet *RouterMetrics `json:"fleet,omitempty"`
}

// ScaleResult is the full curve.
type ScaleResult struct {
	Devices int          `json:"devices"`
	Workers int          `json:"workers"`
	Points  []ScalePoint `json:"points"`
}

// RunScale measures one point per shard count.
func RunScale(ctx context.Context, model *serve.Model, cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{Devices: cfg.Devices, Workers: cfg.Workers}
	for _, n := range cfg.ShardCounts {
		pt, err := runScalePoint(ctx, model, cfg, n)
		if err != nil {
			return res, fmt.Errorf("shard: scale point n=%d: %w", n, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func runScalePoint(ctx context.Context, model *serve.Model, cfg ScaleConfig, n int) (*ScalePoint, error) {
	fleet, err := NewFleet(model, n, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	router, err := NewRouter(RouterConfig{RingSeed: cfg.Seed}, fleet.Specs())
	if err != nil {
		return nil, err
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// The placement function: the router's ring, rebuilt locally from the
	// same (seed, member set) — determinism is the contract, so the load
	// generator and router agree on every device without coordination.
	ring := NewRing(cfg.Seed, 0)
	specByName := make(map[string]ShardSpec, n)
	for _, sp := range fleet.Specs() {
		ring.Add(sp.Name)
		specByName[sp.Name] = sp
	}
	addrs := make([]string, 0, n)
	for _, name := range ring.Members() {
		addrs = append(addrs, specByName[name].BinAddr)
	}

	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:  front.URL,
		Proto:    "bin",
		BinAddrs: addrs,
		ShardFor: func(seed uint64) int {
			i, _ := ring.OwnerIndex(seed)
			return i
		},
		Devices:  cfg.Devices,
		Workers:  cfg.Workers,
		Duration: cfg.Duration,
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Epsilon:  cfg.Epsilon,
	})
	if err != nil {
		return nil, err
	}

	// Scrape the merged fleet view through the router.
	fm, err := scrapeRouterMetrics(ctx, front.URL)
	if err != nil {
		return nil, err
	}
	return &ScalePoint{Shards: n, Report: rep, Fleet: fm}, nil
}

// scrapeRouterMetrics GETs the router's JSON /metrics rollup.
func scrapeRouterMetrics(ctx context.Context, baseURL string) (*RouterMetrics, error) {
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: router metrics status %d", resp.StatusCode)
	}
	var m RouterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
