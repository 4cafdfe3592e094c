//go:build rlpmbench

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"perfbench/measure"
	"rlpm/internal/bench"
	"rlpm/internal/core"
	"rlpm/internal/serve"
)

// stack is one set-up: the trained checkpoint, the serving processes, and
// the device fleet with its sessions open.
type stack struct {
	opt    options
	model  *serve.Model // hydrated from the checkpoint the shards load: the oracle's policy
	shards []*proc
	router *proc // nil unless the workload routes
	fleet  *fleet
}

// setupTimes splits one set-up's wall time.
type setupTimes struct {
	train, ready, open time.Duration
}

func (t setupTimes) total() time.Duration { return t.train + t.ready + t.open }

// front is the process the devices talk to.
func (s *stack) front() *proc {
	if s.router != nil {
		return s.router
	}
	return s.shards[0]
}

// procs lists every server-side process, shards first.
func (s *stack) procs() []*proc {
	ps := append([]*proc(nil), s.shards...)
	if s.router != nil {
		ps = append(ps, s.router)
	}
	return ps
}

// setUp trains the policy with the full settings, starts the serving
// processes from its checkpoint, and opens every device session.
func setUp(ctx context.Context, opt options, rep int) (st *stack, t setupTimes, err error) {
	st = &stack{opt: opt}
	defer func() {
		if err != nil {
			st.teardown()
			st = nil
		}
	}()
	t0 := time.Now()
	model, _, err := bench.TrainedServeModel(bench.ServeOptions{Options: bench.DefaultOptions(), Scenario: scenario})
	if err != nil {
		return st, t, fmt.Errorf("train: %w", err)
	}
	ckpt := filepath.Join(opt.workdir, fmt.Sprintf("policy-%d.ckpt", rep))
	if _, err := serve.SaveCheckpoint(ckpt, model.Snapshot()); err != nil {
		return st, t, err
	}
	t1 := time.Now()

	// Every shard hydrates from its own copy of the one checkpoint: a
	// draining shard writes its final checkpoint back to its path, and two
	// shards must not race on one file.
	img, err := os.ReadFile(ckpt)
	if err != nil {
		return st, t, err
	}
	for i := 0; i < max(1, opt.wl.shards); i++ {
		name := fmt.Sprintf("pmserve-%d-s%d", rep, i)
		path := filepath.Join(opt.workdir, name+".ckpt")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			return st, t, err
		}
		args := []string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0", "-checkpoint", path}
		if opt.wl.learn {
			args = append(args, "-learn", "-learn-seed", fmt.Sprint(opt.seed))
		}
		p, err := startProc(opt.workdir, name, filepath.Join(opt.bindir, "pmserve"), args...)
		if err != nil {
			return st, t, err
		}
		st.shards = append(st.shards, p)
	}
	for _, p := range st.shards {
		if err := p.waitAddrs(ctx); err != nil {
			return st, t, err
		}
	}
	if opt.wl.shards > 0 {
		args := []string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0", "-wait-shards", "10s"}
		for i, p := range st.shards {
			args = append(args, "-shard", fmt.Sprintf("s%d=%s@%s", i, p.binAddr, p.httpAddr))
		}
		if st.router, err = startProc(opt.workdir, fmt.Sprintf("pmrouter-%d", rep), filepath.Join(opt.bindir, "pmrouter"), args...); err != nil {
			return st, t, err
		}
		if err := st.router.waitAddrs(ctx); err != nil {
			return st, t, err
		}
	}
	for _, p := range st.procs() {
		if err := healthz(ctx, p.httpAddr); err != nil {
			return st, t, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	t2 := time.Now()

	if st.fleet, err = openFleet(ctx, opt, st.front()); err != nil {
		return st, t, err
	}
	t3 := time.Now()
	if st.model, err = serve.LoadModel(ckpt, core.DefaultConfig()); err != nil {
		return st, t, err
	}
	return st, setupTimes{train: t1.Sub(t0), ready: t2.Sub(t1), open: t3.Sub(t2)}, nil
}

// teardown closes the fleet's connections, then stops the router and the
// shards, waiting for each to exit. Safe to call twice.
func (s *stack) teardown() error {
	if s.fleet != nil {
		s.fleet.close()
	}
	first := s.router.stop()
	for _, p := range s.shards {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sample is the server side at one instant: each process's exposition
// (shards first, router last) and CPU time.
type sample struct {
	scrapes []measure.Scrape
	cpu     []time.Duration
}

func (s *stack) scrapeAll() (*sample, error) {
	out := &sample{}
	for _, p := range s.procs() {
		sc, err := scrape(p.httpAddr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		cpu, err := measure.ProcCPU(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out.scrapes = append(out.scrapes, sc)
		out.cpu = append(out.cpu, cpu)
	}
	return out, nil
}

// peakRSS sums the server-side processes' peak resident sets.
func (s *stack) peakRSS() (uint64, error) {
	var sum uint64
	for _, p := range s.procs() {
		rss, err := measure.ProcPeakRSS(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += rss
	}
	return sum, nil
}

var httpc = &http.Client{Timeout: 10 * time.Second}

func scrape(addr string) (measure.Scrape, error) {
	resp, err := httpc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return measure.ParseProm(body)
}

func healthz(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: %s", resp.Status)
	}
	return nil
}

// proc is one serving process. Its standard error goes to a log file in
// the work directory; the listener announcements are parsed from it, so
// every process binds port 0 and no two runs can collide on a port.
type proc struct {
	name              string
	cmd               *exec.Cmd
	log               *os.File
	lines             chan string   // listener announcements
	done              chan struct{} // closed when standard error reaches EOF
	httpAddr, binAddr string
	stopped           bool
}

func startProc(dir, name, bin string, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = log
	// Should the generator die without tearing down, the kernel stops
	// the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	// The buffer holds every announcement a process makes (HTTP and binary).
	p := &proc{name: name, cmd: cmd, log: log, lines: make(chan string, 4), done: make(chan struct{})}
	go p.copyLog(pipe)
	return p, nil
}

func (p *proc) copyLog(r io.Reader) {
	defer close(p.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(p.log, line)
		if strings.Contains(line, " on ") {
			select {
			case p.lines <- line:
			default:
			}
		}
	}
}

// waitAddrs reads the process's HTTP and binary listener addresses from
// its announcements ("... on http://ADDR ..." and "binary protocol on ADDR").
func (p *proc) waitAddrs(ctx context.Context) error {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for p.httpAddr == "" || p.binAddr == "" {
		select {
		case line := <-p.lines:
			if i := strings.Index(line, "http://"); i >= 0 {
				p.httpAddr = strings.Fields(line[i+len("http://"):])[0]
			} else if strings.Contains(line, "binary protocol on ") {
				f := strings.Fields(line)
				p.binAddr = f[len(f)-1]
			}
		case <-p.done:
			return fmt.Errorf("%s exited during start-up; see %s", p.name, p.log.Name())
		case <-timeout.C:
			return fmt.Errorf("%s announced no listeners within 30s; see %s", p.name, p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// stop sends SIGTERM (the graceful drain), waits for the process to exit,
// and kills it if the drain overruns. A non-zero exit is an error: every
// serving binary promises a clean exit on SIGTERM.
func (p *proc) stop() error {
	if p == nil || p.stopped {
		return nil
	}
	p.stopped = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	err := p.cmd.Wait()
	p.log.Close()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("%s exited with %v; see %s", p.name, ee, p.log.Name())
	}
	return err
}
