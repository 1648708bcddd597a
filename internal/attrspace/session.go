package attrspace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tdp/internal/liveness"
	"tdp/internal/telemetry"
)

// ErrSessionClosed is returned for operations on a Session after Close.
var ErrSessionClosed = errors.New("attrspace: session closed")

const (
	// sessionDialTimeout bounds each dial + HELLO round trip, so a server
	// that accepts connections but never answers cannot wedge the loop.
	sessionDialTimeout = 3 * time.Second
	// sessionConnectWait bounds how long a caller waits for the first
	// connection before failing with ErrConnLost.
	sessionConnectWait = 5 * time.Second
)

// SessionConfig configures a reconnecting Session.
type SessionConfig struct {
	Dial    DialFunc // nil = AutoDial
	Addr    string
	Context string

	// Heartbeat, when > 0, pings the server at this interval on every
	// live connection and declares the connection lost when a ping gets
	// no reply within one interval — catching half-dead transports that
	// never produce a read error. 0 = disabled.
	Heartbeat time.Duration

	Registry *telemetry.Registry // session.reconnects; nil = a private one
	Logger   *telemetry.Logger   // reconnect diagnostics; nil discards
}

// Session is the shard router's connection to one shard, kept up: it
// dials in the background, redials on the liveness schedule (50 ms
// doubling to 2 s, jittered, forever) whenever the connection dies, and
// with a Heartbeat retires a connection whose pings go unanswered. It
// retries no operation: one cut short by a lost connection fails with
// ErrConnLost on the Client it rode, and its fate is the caller's to
// resolve.
type Session struct {
	cfg SessionConfig

	mu            sync.Mutex
	cur           *Client       // nil while disconnected
	gen           uint64        // bumped on every successful install
	ready         chan struct{} // closed while cur != nil; replaced on loss
	closed        bool
	everConnected bool
	done          chan struct{} // closed by Close: stops the connect loop and heartbeats

	cReconnects *telemetry.Counter
}

// NewSession starts a session toward addr/context. It returns
// immediately: the first connection is established by the background
// reconnect loop, and a caller that needs it waits in client.
func NewSession(cfg SessionConfig) *Session {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := &Session{
		cfg:         cfg,
		ready:       make(chan struct{}),
		done:        make(chan struct{}),
		cReconnects: cfg.Registry.Counter("session.reconnects"),
	}
	go s.connectLoop()
	return s
}

func (s *Session) log() *telemetry.Logger { return s.cfg.Logger }

// up reports whether the session currently holds a live connection.
// False means disconnected: either still dialing the first connection
// or inside a reconnect outage.
func (s *Session) up() bool {
	c, _ := s.live()
	return c != nil
}

// live returns the current connection without waiting — nil while
// disconnected — and whether the session has ever held one: nil before
// the first connect means "not yet", after it means "lost" (the shard
// router fails fast on the second and waits out the first).
func (s *Session) live() (c *Client, ever bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.everConnected
}

// connectLoop is the single-flight reconnect driver: exactly one runs
// per outage (spawned by NewSession and by lost()), and it exits as
// soon as a connection is installed or the session closes.
func (s *Session) connectLoop() {
	liveness.Retry(liveness.System, s.done, liveness.Schedule{}, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), sessionDialTimeout)
		defer cancel()
		c, err := DialCtx(ctx, s.cfg.Dial, s.cfg.Addr, s.cfg.Context)
		if err != nil {
			s.log().Debugf("attrspace: session connect %s failed: %v", s.cfg.Addr, err)
			return err
		}
		s.install(c)
		return nil
	})
}

// install publishes a freshly-dialed client as the current connection:
// bump the generation, wire the loss trigger, start the heartbeat. A
// session closed meanwhile closes the client instead.
func (s *Session) install(c *Client) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.gen++
	gen := s.gen
	reconnect := s.everConnected
	s.cur = c
	s.everConnected = true
	close(s.ready)
	s.mu.Unlock()

	if reconnect {
		s.cReconnects.Inc()
		s.log().Infof("attrspace: session reconnected to %s (gen %d)", s.cfg.Addr, gen)
	}
	// The loss trigger arms after publication: if the client is already
	// dead, onClose fires immediately and tears this generation down.
	c.onClose(func(error) { s.lost(gen, c) })
	if s.cfg.Heartbeat > 0 {
		go s.heartbeat(gen, c)
	}
}

// lost retires generation gen: the first caller (the client's onClose
// hook, or the heartbeat) clears the current client and spawns the next
// connect loop; later callers for the same generation are no-ops.
func (s *Session) lost(gen uint64, c *Client) {
	s.mu.Lock()
	if s.closed || s.gen != gen || s.cur != c {
		s.mu.Unlock()
		return
	}
	s.cur = nil
	s.ready = make(chan struct{})
	s.mu.Unlock()
	c.Close()
	s.log().Debugf("attrspace: session lost connection to %s (gen %d)", s.cfg.Addr, gen)
	go s.connectLoop()
}

// Close tears the session down. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	c := s.cur
	s.cur = nil
	close(s.done)
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	return nil
}

// client returns the current connection, waiting through an outage if
// necessary. The wait is bounded by ctx and by sessionConnectWait,
// whichever ends first; with a connection in hand it allocates nothing.
func (s *Session) client(ctx context.Context) (*Client, error) {
	var bound <-chan time.Time
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrSessionClosed
		}
		if s.cur != nil {
			c := s.cur
			s.mu.Unlock()
			return c, nil
		}
		ready := s.ready
		s.mu.Unlock()
		if bound == nil {
			t := time.NewTimer(sessionConnectWait)
			defer t.Stop()
			bound = t.C
		}
		select {
		case <-ready:
		case <-s.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-bound:
			return nil, fmt.Errorf("%w: no connection to %s after %v", ErrConnLost, s.cfg.Addr, sessionConnectWait)
		}
	}
}

// heartbeat probes one connection generation with periodic PINGs, each
// bounded by one interval, and retires it through the normal loss path
// when one goes unanswered. It runs alongside everything else the
// connection does — a chunked snapshot included, so a large reply does
// not read as a dead transport — and ends with the generation: a ping
// on a closed client fails at once.
func (s *Session) heartbeat(gen uint64, c *Client) {
	if err := liveness.Watch(liveness.System, s.done, s.cfg.Heartbeat, s.cfg.Heartbeat, c.ping); err != nil {
		s.log().Debugf("attrspace: session heartbeat to %s failed (gen %d): %v", s.cfg.Addr, gen, err)
		s.lost(gen, c)
	}
}
