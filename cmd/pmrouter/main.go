// Command pmrouter fronts N pmserve shards with consistent-hash routing.
//
// Devices talk to the router exactly as they would to a single pmserve —
// same HTTP routes, same binary frames, same error codes and backoff
// hints — and the router forwards each call to the shard that owns the
// device's seed on a seed-deterministic consistent-hash ring. Shards are
// named on the command line:
//
//	pmrouter -addr 127.0.0.1:7430 -listen-bin 127.0.0.1:7431 \
//	  -shard s0=127.0.0.1:7422@127.0.0.1:7421 \
//	  -shard s1=127.0.0.1:7432@127.0.0.1:7431
//
// Each -shard is name=BINADDR[@HTTPADDR]: BINADDR is the shard's binary
// listener (the forwarding path), HTTPADDR its HTTP listener (used to
// scrape and merge per-shard metrics into the router's fleet-wide
// GET /metrics). Membership changes at runtime go through the admin
// routes POST /v1/shards and DELETE /v1/shards/{name}; sessions whose
// keyspace moves are invalidated and their devices transparently resume
// on the new owner.
//
// Every process that must agree on placement (other routers, shard-direct
// load generators) shares -ring-seed and -vnodes; GET /v1/ring publishes
// the ring so peers can verify.
//
// -pprof ADDR serves net/http/pprof on a separate listener, for profiling
// the forwarding path under load.
//
// SIGINT/SIGTERM stop the fronts, wait for in-flight forwards, and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rlpm/internal/serve"
	"rlpm/internal/shard"
)

// shardFlags collects repeatable -shard name=BINADDR[@HTTPADDR] values.
type shardFlags []shard.ShardSpec

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sp := range *s {
		parts[i] = fmt.Sprintf("%s=%s@%s", sp.Name, sp.BinAddr, sp.HTTPAddr)
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, addrs, ok := strings.Cut(v, "=")
	if !ok || name == "" || addrs == "" {
		return fmt.Errorf("want name=BINADDR[@HTTPADDR], got %q", v)
	}
	binAddr, httpAddr, _ := strings.Cut(addrs, "@")
	if binAddr == "" {
		return fmt.Errorf("shard %q needs a binary address", name)
	}
	*s = append(*s, shard.ShardSpec{Name: name, BinAddr: binAddr, HTTPAddr: httpAddr})
	return nil
}

func main() {
	var shards shardFlags
	var (
		addr        = flag.String("addr", "127.0.0.1:7430", "HTTP listen address (device API, admin, merged /metrics)")
		binAddr     = flag.String("listen-bin", "", "binary-protocol listen address; empty disables")
		epoch       = flag.Uint("epoch", 1, "router incarnation number; bump on every restart")
		ringSeed    = flag.Uint64("ring-seed", 1, "consistent-hash ring seed; share with every placement peer")
		vnodes      = flag.Int("vnodes", 0, "virtual nodes per shard (0 = default)")
		callTimeout = flag.Duration("call-timeout", 5*time.Second, "per-forward deadline to a shard")
		waitShards  = flag.Duration("wait-shards", 0, "wait up to this long for every shard's /healthz before serving (0 = don't)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6061); empty disables")
	)
	flag.Var(&shards, "shard", "shard as name=BINADDR[@HTTPADDR]; repeatable")
	flag.Parse()

	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "pmrouter: at least one -shard required")
		os.Exit(1)
	}
	if *waitShards > 0 {
		if err := waitHealthy(shards, *waitShards); err != nil {
			fmt.Fprintln(os.Stderr, "pmrouter:", err)
			os.Exit(1)
		}
	}

	router, err := shard.NewRouter(shard.RouterConfig{
		Epoch:       uint32(*epoch),
		RingSeed:    *ringSeed,
		VNodes:      *vnodes,
		CallTimeout: *callTimeout,
	}, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmrouter:", err)
		os.Exit(1)
	}
	defer router.Close()

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmrouter:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pmrouter: pprof at %s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, nil) // net/http/pprof registers on the default mux
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmrouter:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: router.Handler()}
	fmt.Fprintf(os.Stderr, "pmrouter: routing %d shards on http://%s (ring seed %d, epoch %d)\n",
		len(shards), ln.Addr(), *ringSeed, *epoch)

	binDone := make(chan error, 1)
	if *binAddr != "" {
		binLn, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmrouter:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pmrouter: binary protocol on %s\n", binLn.Addr())
		go func() { binDone <- router.ServeBin(binLn) }()
	} else {
		binDone <- nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "pmrouter:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "pmrouter: shutdown:", err)
		}
		<-errCh
	}
	router.Close() // closes the binary fronts so ServeBin returns
	if err := <-binDone; err != nil {
		fmt.Fprintln(os.Stderr, "pmrouter: binary listener:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pmrouter: exiting")
}

// waitHealthy polls each shard's /healthz (when it has an HTTP address)
// until it answers or the window runs out.
func waitHealthy(shards []shard.ShardSpec, window time.Duration) error {
	deadline := time.Now().Add(window)
	for _, sp := range shards {
		if sp.HTTPAddr == "" {
			continue
		}
		c := serve.NewClient("http://" + sp.HTTPAddr)
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("shard %s: health wait window exhausted", sp.Name)
		}
		ctx, cancel := context.WithTimeout(context.Background(), remain)
		err := c.WaitHealthy(ctx, remain)
		cancel()
		c.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("shard %s not healthy: %w", sp.Name, err)
		}
	}
	return nil
}
