package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// The receive buffers of a Conn are borrowed from a pool and handed
// back by the Recv the stream fails under. These tests cycle many
// short-lived connections through the pool at once, every one closed
// under its receiver's feet, and check what each receiver decodes: a
// buffer handed back while a Recv could still touch it would be read by
// two connections at once — a data race under -race, a foreign payload
// without it.

// recvResult is what one receiver saw before its stream failed.
type recvResult struct {
	n   int
	err error
}

// recvAll receives until the stream fails and checks that every message
// is this connection's own; it closes allIn at the total'th, so the test
// can pull the stream from under the Recv that follows. swapTo, when not
// nil, is the ring a SHMRDY moves the read side onto, between two Recvs
// as the protocol does it.
func recvAll(rc *Conn, want string, swapTo *ShmEndpoint, total int, allIn chan<- struct{}) (n int, err error) {
	for {
		if n == total && allIn != nil {
			close(allIn)
			allIn = nil
		}
		m, rerr := rc.Recv()
		if rerr != nil {
			return n, nil
		}
		if m.Verb == "SHMRDY" {
			rc.SwapRead(swapTo)
			continue
		}
		if got := m.Get("v"); got != want {
			return n, fmt.Errorf("message %d carried %.16q…, want %.16q…", n, got, want)
		}
		n++
	}
}

func TestPooledReadBufferCloseRacingRecv(t *testing.T) {
	const conns, rounds, msgs = 8, 40, 3
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := strings.Repeat(fmt.Sprintf("%02d", i), 300)
			for r := 0; r < rounds; r++ {
				a, b := net.Pipe()
				rc, sc := NewConn(a), NewConn(b)
				done, allIn := make(chan recvResult, 1), make(chan struct{})
				go func() {
					n, err := recvAll(rc, want, nil, msgs, allIn)
					done <- recvResult{n, err}
				}()
				for k := 0; k < msgs; k++ {
					if err := sc.Send(NewMessage("PUT").Set("v", want)); err != nil {
						t.Errorf("conn %d round %d: send: %v", i, r, err)
					}
				}
				<-allIn
				go a.Close() // under the receiver, which is in or on its way into Recv
				b.Close()
				if res := <-done; res.err != nil || res.n != msgs {
					t.Errorf("conn %d round %d: %d of %d messages, %v", i, r, res.n, msgs, res.err)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPooledReadBufferAcrossCutover: SwapRead re-aims the borrowed
// buffer at the ring instead of borrowing another, so the cutover hands
// nothing back while the connection lives, and the ring's Recvs give it
// back when the ring dies.
func TestPooledReadBufferAcrossCutover(t *testing.T) {
	if !ShmSupported() {
		t.Skip("no shm on this platform")
	}
	const conns, rounds, msgs = 4, 10, 3
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := strings.Repeat(fmt.Sprintf("%02d", i), 300)
			for r := 0; r < rounds; r++ {
				server, client := shmPair(t, 4096)
				a, b := net.Pipe()
				rc, sc := NewConn(a), NewConn(b)
				done, allIn := make(chan recvResult, 1), make(chan struct{})
				go func() {
					n, err := recvAll(rc, want, server, 2*msgs, allIn)
					done <- recvResult{n, err}
				}()
				send := func() {
					for k := 0; k < msgs; k++ {
						if err := sc.Send(NewMessage("PUT").Set("v", want)); err != nil {
							t.Errorf("conn %d round %d: send: %v", i, r, err)
						}
					}
				}
				send() // over the socket
				if err := sc.SendSwap(NewMessage("SHMRDY"), client); err != nil {
					t.Errorf("conn %d round %d: SendSwap: %v", i, r, err)
				}
				send() // over the ring
				<-allIn
				go server.Close()
				client.Close()
				a.Close()
				b.Close()
				if res := <-done; res.err != nil || res.n != 2*msgs {
					t.Errorf("conn %d round %d: %d of %d messages, %v", i, r, res.n, 2*msgs, res.err)
				}
			}
		}(i)
	}
	wg.Wait()
}
