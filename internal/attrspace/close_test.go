package attrspace

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/wire"
)

// lateCloseConn swallows its first Close: the server's Close has begun but
// has not reached this connection yet. The second Close, the
// connection's own teardown, closes it.
type lateCloseConn struct {
	net.Conn
	reached atomic.Bool
}

func (c *lateCloseConn) Close() error {
	if c.reached.CompareAndSwap(false, true) {
		return nil
	}
	return c.Conn.Close()
}

// holdSecond hands the server its second accepted connection wrapped
// in a lateCloseConn.
type holdSecond struct {
	net.Listener
	accepted int
}

func (l *holdSecond) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted++
	if l.accepted == 2 {
		return &lateCloseConn{Conn: c}, nil
	}
	return c, nil
}

// TestCloseAnswersNothingOnceBegun: Close tears connections down one by
// one, so the holder of a context can leave, destroying it, while a
// pooled connection is still open. A ctx-scope op on that connection
// must then fail as a lost connection, not be answered "no such
// context" — a shard going down is not a context that nobody holds.
func TestCloseAnswersNothingOnceBegun(t *testing.T) {
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(&holdSecond{Listener: l})
	t.Cleanup(srv.Close)
	addr := l.Addr().String()

	holder := dialT(t, addr, "job-0")       // accepted first
	pooled := dialT(t, addr, routerContext) // accepted second: Close reaches it last
	if err := holder.Put("k", "v"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if r := rawCall(t, pooled, wire.NewMessage("CGET").Set("ctx", "job-0").Set("attr", "k")); r.Verb != "VALUE" {
		t.Fatalf("CGET before Close: %s %s", r.Verb, r.Get("error"))
	}

	srv.Close()
	waitFor(t, func() bool { return !slices.Contains(srv.space.Contexts(), "job-0") })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := pooled.call(ctx, &opSpec{verb: "CGET"}, wire.NewMessage("CGET").Set("ctx", "job-0").Set("attr", "k"))
	if err == nil {
		err = replyErr(r)
	}
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("CGET after Close began: %v, want %v", err, ErrConnLost)
	}
}
