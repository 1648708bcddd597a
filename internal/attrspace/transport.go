package attrspace

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"tdp/internal/wire"
)

// This file holds the same-host fast path: LASS/CASS daemons listen on
// a unix-domain socket beside their TCP port (ListenUnixBeside), and
// AutoDial transparently prefers that socket when the endpoint is
// local. The dominant TDP hop — AP or paradynd talking to the LASS on
// the same execution host — then skips the TCP stack entirely while
// remote clients keep using TCP, with no configuration on either side.
// A same-host connection starts, and if it is short ends, on that
// socket. HELLO only establishes that a shared-memory ring is possible
// (shm=1: same host, both builds can mmap); a connection that has
// taken shmPromoteAfter replies asks for one in mid-stream (SHMREQ):
// the server creates the segment file on tmpfs (shmDir), its path
// travels in the reply, and the file is unlinked as soon as the client
// has mapped it and said so (SHMRDY), or failed to, or gone away.

// SocketPathFor derives the conventional unix socket path paired with
// a TCP listen address: tdp-attr-<port>.sock in the system temp
// directory. Server and clients derive the same path independently, so
// no discovery round is needed. Returns "" when the address has no
// usable port.
func SocketPathFor(tcpAddr string) string {
	_, port, err := net.SplitHostPort(tcpAddr)
	if err != nil || port == "" || port == "0" {
		return ""
	}
	// One string, not filepath.Join: every dial derives it.
	dir := strings.TrimSuffix(os.TempDir(), string(filepath.Separator))
	return dir + string(filepath.Separator) + "tdp-attr-" + port + ".sock"
}

// shmSegSeq makes segment paths unique within one server process.
var shmSegSeq atomic.Uint64

// shmDir is where segment files are created: the host's tmpfs when it
// has one, else the system temp directory beside the sockets. A
// segment on a disk-backed temp directory costs a promotion a
// file-system journal's worth of create, truncate and unlink (~250 µs
// where tmpfs takes ~12 µs) for a file that exists only between SHMREQ
// and the client mapping it, and whose pages never need to reach a
// disk.
var shmDir = sync.OnceValue(func() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
})

// createShmSegment creates and maps a fresh ring segment file
// and returns it with its path, trying the system temp directory when
// shmDir refuses (read-only, full, not ours to write). Uniqueness needs
// only pid + sequence: the file exists just until the client has mapped
// it, after which the server unlinks it and the mappings alone keep
// the pages alive.
func createShmSegment() (*wire.ShmSegment, string, error) {
	name := fmt.Sprintf("tdp-shm-%d-%d.seg", os.Getpid(), shmSegSeq.Add(1))
	dir := shmDir()
	path := filepath.Join(dir, name)
	seg, err := wire.CreateShmSegment(path, 0)
	if tmp := os.TempDir(); err != nil && dir != tmp {
		path = filepath.Join(tmp, name)
		seg, err = wire.CreateShmSegment(path, 0)
	}
	return seg, path, err
}

// sameHostConn reports whether conn provably joins two endpoints on
// the same machine: a unix-domain socket, or a connection that itself
// vouches through a SameHost method (netsim's conns when same-host
// modelling is enabled). Only such connections are eligible for the
// shared-memory transport — the segment file is reachable by both
// ends exactly when this holds.
func sameHostConn(conn net.Conn) bool {
	if addr := conn.RemoteAddr(); addr != nil && addr.Network() == "unix" {
		return true
	}
	if sh, ok := conn.(interface{ SameHost() bool }); ok {
		return sh.SameHost()
	}
	return false
}

// isLoopbackHost reports whether a dial-address host names this
// machine. Only loopback forms qualify — a resolvable remote hostname
// must never be mistaken for local, or the dialer would connect to an
// unrelated local daemon that happens to share the port.
func isLoopbackHost(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// dialUnix is net.Dial("unix", path) without the resolver: a socket path
// has nothing to resolve, and the Dialer and address list built to find
// that out cost every dial three objects.
func dialUnix(path string) (net.Conn, error) {
	conn, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		return nil, err // not a typed-nil *net.UnixConn in a net.Conn
	}
	return conn, nil
}

// AutoDial is the default DialFunc, and its rule is "same host → unix
// socket" (what rides the connection later is the connection's own
// business, see shmPromoteAfter): "unix:/path" dials that socket
// directly; a loopback TCP address first tries the conventional
// same-host socket (SocketPathFor) and falls back to TCP when no local
// daemon is listening there — including when a stale socket file from
// a crashed daemon still sits at the path (connection refused), in
// which case the dead file is also removed so later dials skip
// straight to TCP. Non-loopback addresses always use TCP.
func AutoDial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return dialUnix(path)
	}
	if host, _, err := net.SplitHostPort(addr); err == nil && isLoopbackHost(host) {
		if path := SocketPathFor(addr); path != "" {
			conn, err := dialUnix(path)
			if err == nil {
				return conn, nil
			}
			if errors.Is(err, syscall.ECONNREFUSED) {
				// The file exists but nothing accepts on it: a leftover
				// from a crashed daemon. Clear it; best effort — failure
				// just means the next dial probes it again.
				os.Remove(path)
			}
		}
	}
	return net.Dial("tcp", addr)
}
