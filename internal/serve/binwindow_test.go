package serve

import (
	"bufio"
	"net"
	"testing"
	"time"

	"rlpm/internal/wire"
)

// pipelinedDecides encodes one decide frame per session, back to back, as
// a single write; request ids start at reqID0. Seq 0 is the untagged
// legacy form, so the same bytes can be resent forever.
func pipelinedDecides(sess []*Session, obs []wire.Obs, reqID0 uint32) []byte {
	var buf []byte
	for i, s := range sess {
		buf = append(buf, wire.FinishFrame(
			wire.AppendDecideReq(wire.BeginFrame(nil), s.Handle(), 0, 0, obs), wire.TDecide, reqID0+uint32(i))...)
	}
	return buf
}

func testSessions(t *testing.T, srv *Server, n int) []*Session {
	t.Helper()
	out := make([]*Session, n)
	for i := range out {
		s, err := srv.CreateSession(SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestBinWindowAllocFree pins the gathered-window decide path at zero
// allocations per window over a real TCP connection: three pipelined
// frames in one write are served as one window and answered with one
// vectored write. net.Buffers.WriteTo consumes the slice it is given, so
// the window must hand it a fresh header over its kept backing array, not
// its own (emptied, capacity-zero) slice.
func TestBinWindowAllocFree(t *testing.T) {
	m := testModel(t, 3, 4)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)

	const frames = 3
	req := pipelinedDecides(testSessions(t, srv, frames),
		[]wire.Obs{{Utilization: 0.5, Level: 1}, {DemandRatio: 0.8, Level: 2}}, 1)
	hdr := new([wire.HeaderSize]byte)
	var payload []byte
	window := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatalf("write: %v", err)
		}
		for i := 0; i < frames; i++ {
			var h wire.Header
			h, payload, err = wire.ReadFrame(br, hdr, payload)
			if err != nil || h.Type != wire.TDecideOK || h.ReqID != uint32(1+i) {
				t.Fatalf("response %d: type %d req %d err %v", i, h.Type, h.ReqID, err)
			}
		}
	}
	for i := 0; i < 20; i++ { // warm every scratch, pool and the batch worker
		window()
	}
	batches0, _, _ := srv.batch.stats()
	const runs = 200
	if n := testing.AllocsPerRun(runs, window); n != 0 {
		t.Fatalf("a pipelined %d-frame window allocates %v times, want 0", frames, n)
	}
	// Non-vacuity: the frames really were served as windows (one shared
	// batch for several frames), not one at a time.
	if batches1, _, _ := srv.batch.stats(); batches1-batches0 >= frames*(runs+1) {
		t.Fatalf("%d batches for %d frames: no window was gathered", batches1-batches0, frames*(runs+1))
	}
}

// TestBinWindowStageSamples pins the window path's stage accounting to the
// single-frame path's: one bin and one bin_write sample per answered frame,
// taken after the responses are encoded and before the socket write — not
// one writev span per frame.
func TestBinWindowStageSamples(t *testing.T) {
	m := testModel(t, 3, 4)
	srv := newTestServer(t, m, nil, Config{})
	sess := testSessions(t, srv, 3)
	cli, server := net.Pipe()
	defer cli.Close()
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		srv.serveBinConn(server)
	}()

	bin0, write0 := srv.histBin.Count(), srv.histBinWrite.Count()
	batches0, _, _ := srv.batch.stats()
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cli.Write(pipelinedDecides(sess, []wire.Obs{{Utilization: 0.5, Level: 1}, {DemandRatio: 0.8, Level: 2}}, 300)); err != nil {
		t.Fatalf("write: %v", err)
	}
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for i := range sess {
		h, p, err := wire.ReadFrame(cli, &hdr, payload)
		payload = p
		if err != nil || h.Type != wire.TDecideOK || h.ReqID != uint32(300+i) {
			t.Fatalf("response %d: type %d req %d err %v", i, h.Type, h.ReqID, err)
		}
	}
	cli.Close()
	<-connDone
	if batches1, _, _ := srv.batch.stats(); batches1-batches0 != 1 {
		t.Fatalf("%d batches for one pipelined window, want 1", batches1-batches0)
	}
	if got := srv.histBin.Count() - bin0; got != uint64(len(sess)) {
		t.Fatalf("bin stage: %d samples for %d answered frames", got, len(sess))
	}
	if got := srv.histBinWrite.Count() - write0; got != uint64(len(sess)) {
		t.Fatalf("bin_write stage: %d samples for %d answered frames", got, len(sess))
	}
}
