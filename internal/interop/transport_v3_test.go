package interop

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// TestTransportV3FallbackMatrix drives one current client stack against
// servers frozen at each transport generation, over the transports
// where each pairing can occur in a real pool. Every cell must settle
// on exactly the capability set both ends support and then serve the
// same operations — enough of them to earn a ring where one can be had,
// and a server that did not grant shm must never see a SHMREQ:
//
//	v3 server, unix dial  → byte windows; shm ring once earned
//	v3 server, tcp dial   → byte windows, no shm (client never offers it off-host)
//	v2 server, unix dial  → mux/snapd/chunk/ping, message windows, no shm
//	v1 server, unix dial  → bare v1 framing
func TestTransportV3FallbackMatrix(t *testing.T) {
	const puts = 150 // past the promotion threshold
	v2caps := []string{wire.CapMux, wire.CapSnapd, wire.CapChunk, wire.CapPing, wire.CapCtxOp}
	cases := []struct {
		name     string
		caps     []string // nil = server default (v3)
		tcp      bool
		wantShm  bool
		wantByte bool
		wantMux  bool
	}{
		{name: "v3-unix", caps: nil, wantShm: wire.ShmSupported(), wantByte: true, wantMux: true},
		{name: "v3-tcp", caps: nil, tcp: true, wantByte: true, wantMux: true},
		{name: "v2-unix", caps: v2caps, wantMux: true},
		{name: "v1-unix", caps: []string{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := attrspace.NewServer()
			if tc.caps != nil {
				srv.SetCaps(tc.caps...)
			}
			network, laddr := "unix", filepath.Join(t.TempDir(), "lass.sock")
			if tc.tcp {
				network, laddr = "tcp", "127.0.0.1:0"
			}
			l, err := net.Listen(network, laddr)
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			rl := &recListener{Listener: l}
			go srv.Serve(rl)
			defer srv.Close()
			addr := l.Addr().String()
			if !tc.tcp {
				addr = "unix:" + laddr
			}
			dial := attrspace.DialFunc(nil)
			if tc.tcp {
				dial = attrspace.TCPDial
			}
			c, err := attrspace.Dial(dial, addr, "matrix")
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			if c.ShmActive() {
				t.Error("ShmActive straight after HELLO")
			}
			if got := c.HasCap(wire.CapShm); got != tc.wantShm {
				t.Errorf("HasCap(shm) = %v, want %v", got, tc.wantShm)
			}
			if got := c.HasCap(wire.CapByteWin); got != tc.wantByte {
				t.Errorf("HasCap(bytewin) = %v, want %v", got, tc.wantByte)
			}
			if got := c.HasCap(wire.CapMux); got != tc.wantMux {
				t.Errorf("HasCap(mux) = %v, want %v", got, tc.wantMux)
			}
			// The same operation script must work in every cell,
			// whatever transport it landed on.
			for i := 0; i < puts; i++ {
				if err := c.Put(fmt.Sprintf("a%03d", i), "v"); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			if v, err := c.TryGet("a007"); err != nil || v != "v" {
				t.Fatalf("TryGet = %q, %v", v, err)
			}
			snap, _, err := c.SnapshotSeq(context.Background())
			if err != nil || len(snap) != puts {
				t.Fatalf("SnapshotSeq = %d entries, %v; want %d", len(snap), err, puts)
			}
			if tc.wantMux {
				// Every mux-era server here also grants ping.
				if err := c.Ping(context.Background()); err != nil {
					t.Fatalf("Ping: %v", err)
				}
			}
			if tc.wantShm {
				// The promotion runs beside the requests; keep some coming
				// until it lands.
				for deadline := time.Now().Add(10 * time.Second); !c.ShmActive(); {
					if err := c.Ping(context.Background()); err != nil {
						t.Fatalf("Ping on the way to a ring: %v", err)
					}
					if time.Now().After(deadline) {
						t.Fatal("connection never earned its ring")
					}
				}
				return
			}
			if c.ShmActive() {
				t.Error("ShmActive without a shm grant")
			}
			for i, frame := range splitFrames(t, rl.snapshot(0)) {
				if m, err := wire.Decode(frame); err != nil || m.Verb == "SHMREQ" || m.Verb == "SHMRDY" {
					t.Fatalf("frame %d from the client: %v, %v; a server that granted no shm must never see the promotion verbs", i, m, err)
				}
			}
		})
	}
}

// recListener tees the client→server byte stream of every accepted
// connection into a buffer, so a test can assert what a client
// actually put on the wire.
type recListener struct {
	net.Listener
	mu   sync.Mutex
	bufs []*bytes.Buffer
}

func (rl *recListener) Accept() (net.Conn, error) {
	c, err := rl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	buf := new(bytes.Buffer)
	rl.mu.Lock()
	rl.bufs = append(rl.bufs, buf)
	rl.mu.Unlock()
	return &recConn{Conn: c, rl: rl, buf: buf}, nil
}

func (rl *recListener) snapshot(i int) []byte {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if i >= len(rl.bufs) {
		return nil
	}
	return append([]byte(nil), rl.bufs[i].Bytes()...)
}

type recConn struct {
	net.Conn
	rl  *recListener
	buf *bytes.Buffer
}

func (rc *recConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	if n > 0 {
		rc.rl.mu.Lock()
		rc.buf.Write(p[:n])
		rc.rl.mu.Unlock()
	}
	return n, err
}

// splitFrames cuts a recorded byte stream into framed payloads.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			t.Fatalf("trailing %d bytes are not a frame header", len(data))
		}
		n := int(binary.BigEndian.Uint32(data[:4]))
		if len(data) < 4+n {
			t.Fatalf("truncated frame: header says %d, have %d", n, len(data)-4)
		}
		frames = append(frames, data[4:4+n])
		data = data[4+n:]
	}
	return frames
}

// TestTransportV3ClientBytesMatchV2 is the wire-identity half of the
// fallback matrix: a shm-capable client talking to a server that
// grants nothing must emit, after the HELLO, exactly the message
// stream a client with no shm eligibility emits, however long the
// connection lives — the v3 machinery may not leak a single byte (no
// SHMREQ or SHMRDY, no doorbell traffic, no extra fields) when the
// capability is not granted. The HELLO itself may
// differ only in the shm token of the caps offer. Frames are compared
// decoded because field order within a frame is map-iteration order;
// splitFrames still proves the raw streams are pure length-prefixed
// framing with nothing between the frames.
func TestTransportV3ClientBytesMatchV2(t *testing.T) {
	space := attr.NewSpace()
	keep := space.Join("mix")
	defer keep.Leave()

	// Same v1 server behavior behind both listeners; shared space so
	// both clients see identical reply contents (and so send identical
	// follow-ups).
	run := func(network, laddr string) []byte {
		l, err := net.Listen(network, laddr)
		if err != nil {
			t.Fatalf("listen %s: %v", network, err)
		}
		rl := &recListener{Listener: l}
		srv := attrspace.NewServerWithSpace(space)
		srv.SetCaps()
		go srv.Serve(rl)
		defer srv.Close()

		addr := l.Addr().String()
		dial := attrspace.DialFunc(attrspace.TCPDial)
		if network == "unix" {
			addr = "unix:" + laddr
			dial = nil
		}
		c, err := attrspace.Dial(dial, addr, "mix")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if c.ShmActive() {
			t.Fatal("shm active against a v1 server")
		}
		for i := 0; i < 120; i++ { // past the promotion threshold
			if err := c.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if _, err := c.TryGet("k3"); err != nil {
			t.Fatalf("TryGet: %v", err)
		}
		c.Close()

		// The EXIT is written asynchronously to Close returning; wait
		// for the recorded stream to end with it.
		deadline := time.Now().Add(5 * time.Second)
		for {
			data := rl.snapshot(0)
			frames := splitFrames(t, data)
			if n := len(frames); n > 0 {
				if m, err := wire.Decode(frames[n-1]); err == nil && m.Verb == "EXIT" {
					return data
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("EXIT never recorded (%d bytes)", len(data))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	unixStream := run("unix", filepath.Join(t.TempDir(), "v1.sock"))
	tcpStream := run("tcp", "127.0.0.1:0")

	uf := splitFrames(t, unixStream)
	tf := splitFrames(t, tcpStream)
	if len(uf) != len(tf) {
		t.Fatalf("frame counts differ: unix %d, tcp %d", len(uf), len(tf))
	}
	// HELLO: identical apart from the shm token in the caps offer (and
	// only when this build can offer it at all).
	uh, err := wire.Decode(uf[0])
	if err != nil {
		t.Fatalf("decode unix HELLO: %v", err)
	}
	th, err := wire.Decode(tf[0])
	if err != nil {
		t.Fatalf("decode tcp HELLO: %v", err)
	}
	ucaps, tcaps := uh.Get("caps"), th.Get("caps")
	wantU := tcaps
	if wire.ShmSupported() {
		wantU = tcaps + "," + wire.CapShm
	}
	if ucaps != wantU {
		t.Errorf("unix caps offer = %q, want %q", ucaps, wantU)
	}
	uh.Set("caps", "x")
	th.Set("caps", "x")
	if uh.Verb != th.Verb || !reflect.DeepEqual(uh.Fields, th.Fields) {
		t.Errorf("HELLOs differ beyond caps: unix %v, tcp %v", uh.Fields, th.Fields)
	}
	// Everything after the HELLO: the same messages in the same order.
	for i := 1; i < len(uf); i++ {
		um, err := wire.Decode(uf[i])
		if err != nil {
			t.Fatalf("decode unix frame %d: %v", i, err)
		}
		tm, err := wire.Decode(tf[i])
		if err != nil {
			t.Fatalf("decode tcp frame %d: %v", i, err)
		}
		if strings.HasPrefix(um.Verb, "SHM") || strings.HasPrefix(tm.Verb, "SHM") {
			t.Fatalf("frame %d: a promotion verb leaked onto a no-shm connection", i)
		}
		if um.Verb != tm.Verb || !reflect.DeepEqual(um.Fields, tm.Fields) {
			t.Errorf("frame %d differs:\n  unix: %s %v\n  tcp:  %s %v",
				i, um.Verb, um.Fields, tm.Verb, tm.Fields)
		}
	}
}
