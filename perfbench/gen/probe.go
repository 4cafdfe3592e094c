//go:build rlpmbench

package main

import (
	"errors"
	"io"
	"net"
	"time"
)

// The host probe measures how fast the shared host runs the benchmark's
// CPU at each moment, with work of the benchmark's own that no change to
// the program can alter: four 64-byte round trips through a loopback TCP
// connection (syscalls, the kernel's TCP stack and Go's netpoller, the
// bulk of a serving frame) and a short hash loop. Worker 0 runs it every
// probeEvery frames, between two frames, so it samples the same moments,
// CPU and caches as the fleet. Nothing else uses its connection, so its
// reads never wait on the serving processes.
//
// On the shared reference box, identical runs of direct-bin read from
// 29 000 to 60 000 decisions per second within twenty minutes as other
// tenants' load on the host came and went, and every timing metric
// drifted with it. Across twelve runs of direct-bin the probe's median
// time correlated with throughput at −0.97 and with the median frame time
// at 0.96, so the end-to-end timings are reported scaled to the host
// speed at which the probe takes refProbe, about its time on a quiet
// host there (see endToEnd).
const (
	probeEvery = 64
	refProbe   = 30 * time.Microsecond
)

type hostProbe struct {
	a, b net.Conn
	buf  [64]byte
	tab  [2048]uint64
	x    uint64
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	b := <-accepted
	if b == nil {
		a.Close()
		return nil, errors.New("host probe: accept failed")
	}
	return &hostProbe{a: a, b: b, x: 88172645463325252}, nil
}

// run times one probe.
func (p *hostProbe) run() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := p.a.Write(p.buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(p.b, p.buf[:]); err != nil {
			return 0, err
		}
		for j := 0; j < 512; j++ { // xorshift64
			p.x ^= p.x << 13
			p.x ^= p.x >> 7
			p.x ^= p.x << 17
			p.tab[p.x%uint64(len(p.tab))] += p.x
		}
		p.buf[i] = byte(p.tab[p.x%uint64(len(p.tab))])
	}
	return time.Since(t0), nil
}

func (p *hostProbe) close() {
	p.a.Close()
	p.b.Close()
}
