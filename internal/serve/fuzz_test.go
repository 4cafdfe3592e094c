package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"rlpm/internal/wire"
)

// streamConn is an in-memory net.Conn: reads drain a fixed request
// stream, writes collect the responses. The whole stream is available to
// the first read, so the server gathers windows exactly as it would behind
// a pipelining client.
type streamConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *streamConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *streamConn) Close() error                     { return nil }
func (c *streamConn) LocalAddr() net.Addr              { return nil }
func (c *streamConn) RemoteAddr() net.Addr             { return nil }
func (c *streamConn) SetDeadline(time.Time) error      { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }

// streamReq is one intact request frame of a fuzzed stream and the
// response type it must get.
type streamReq struct {
	reqID uint32
	want  byte
}

// FuzzBinStream feeds multi-frame byte streams to one server connection:
// decides and rewards for live sessions, decides the server must refuse
// without hanging up (unknown handle, out-of-range level), and frames that
// poison the stream (a flipped byte, a malformed payload, a truncated
// tail). Every response must parse, the responses must follow request
// order with ids echoed, the first poisoned frame gets one CodeBadRequest
// answer, and nothing after it is answered.
func FuzzBinStream(f *testing.F) {
	m := testModel(f, 3, 4)
	srv, err := New(m, nil, Config{})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(srv.Close)
	var live [2]uint64
	for i := range live {
		s, err := srv.CreateSession(SessionOptions{Epsilon: 0.2, Seed: uint64(i + 1)})
		if err != nil {
			f.Fatal(err)
		}
		live[i] = s.Handle()
	}
	n := m.Clusters()

	f.Add([]byte{0, 1, 0, 2, 1, 0})          // decides and a reward
	f.Add([]byte{0, 0, 4, 37, 0, 1})         // corrupt byte mid-stream
	f.Add([]byte{0, 0, 2, 9, 3, 1, 0, 1})    // refused but kept
	f.Add([]byte{0, 0, 0, 1, 6, 5, 1, 2, 0}) // malformed payload
	f.Add([]byte{0, 0, 1, 1, 5, 40})         // truncated tail
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		var stream []byte
		var intact []streamReq // answered frames before the poison
		poisoned := false
		var poisonID uint32 // echoed id of a well-framed poison; 0 when unknown
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			reqID := uint32(i/2 + 1)
			obs := make([]wire.Obs, n)
			for c := range obs {
				obs[c] = wire.Obs{Utilization: float64(arg%11) / 10, DemandRatio: float64(op%7) / 6, Level: int(arg) % 3}
			}
			decide := func(handle uint64) []byte {
				return wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(nil), handle, 0, 0, obs), wire.TDecide, reqID)
			}
			var frame []byte
			var want byte
			switch op % 7 {
			case 0:
				frame, want = decide(live[arg%2]), wire.TDecideOK
			case 1:
				frame = wire.FinishFrame(wire.AppendRewardReq(wire.BeginFrame(nil),
					wire.RewardReq{Handle: live[arg%2], Reward: -float64(arg) / 8}), wire.TReward, reqID)
				want = wire.TRewardOK
			case 2:
				frame, want = decide(1<<40+uint64(arg)), wire.TError
			case 3:
				obs[0].Level = 1000 + int(arg)
				frame, want = decide(live[arg%2]), wire.TError
			case 4: // one corrupted byte: a header or payload CRC catches it
				frame = decide(live[0])
				frame[int(arg)%len(frame)] ^= op | 1
			case 5: // a truncated tail ends the stream
				frame = decide(live[1])
				frame = frame[:1+int(arg)%(len(frame)-1)]
			case 6: // well framed, but too short to be a decide payload
				frame = wire.FinishFrame(append(wire.BeginFrame(nil), bytes.Repeat([]byte{op}, int(arg)%22)...), wire.TDecide, reqID)
				if !poisoned {
					poisonID = reqID
				}
			}
			stream = append(stream, frame...)
			if want == 0 {
				poisoned = true
			}
			if !poisoned {
				intact = append(intact, streamReq{reqID: reqID, want: want})
			}
			if op%7 == 5 {
				break
			}
		}

		conn := &streamConn{in: bytes.NewReader(stream)}
		srv.serveBinConn(conn)

		rd := bytes.NewReader(conn.out.Bytes())
		var hdr [wire.HeaderSize]byte
		answered := 0
		for {
			h, p, err := wire.ReadFrame(rd, &hdr, nil)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("response %d does not parse: %v", answered, err)
			}
			var ef wire.ErrorFrame
			switch h.Type {
			case wire.TDecideOK:
				var dok wire.DecideOK
				err = wire.ParseDecideOK(p, &dok)
			case wire.TRewardOK:
				var st wire.Stats
				err = wire.ParseStats(p, &st)
			case wire.TError:
				err = wire.ParseError(p, &ef)
			default:
				t.Fatalf("response %d: unexpected type %d", answered, h.Type)
			}
			if err != nil {
				t.Fatalf("response %d (type %d) payload: %v", answered, h.Type, err)
			}
			switch {
			case answered < len(intact):
				if r := intact[answered]; h.ReqID != r.reqID || h.Type != r.want {
					t.Fatalf("response %d: req %d type %d, want req %d type %d", answered, h.ReqID, h.Type, r.reqID, r.want)
				}
			case answered == len(intact) && poisoned:
				if h.Type != wire.TError || ef.Code != wire.CodeBadRequest {
					t.Fatalf("poisoned frame answered with type %d code %d, want CodeBadRequest", h.Type, ef.Code)
				}
				if poisonID != 0 && h.ReqID != poisonID {
					t.Fatalf("malformed frame answered as req %d, want %d", h.ReqID, poisonID)
				}
			default:
				t.Fatalf("response %d (req %d) answers a frame after the first poisoned one", answered, h.ReqID)
			}
			answered++
		}
		want := len(intact)
		if poisoned {
			want++
		}
		if answered != want {
			t.Fatalf("%d responses, want %d", answered, want)
		}
	})
}
