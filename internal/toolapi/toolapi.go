// Package toolapi defines the plug-in contract between resource
// managers and run-time tools in this reproduction. Any RM (the
// Condor miniature, the fork RM, the PBS-like queue RM) launches any
// tool (paradynd, the tracer, the debugger) through this one
// interface; the tools speak only TDP inside. This is the m + n
// structure the paper argues for: each RM implements "launch a tool
// factory with an Env", each tool implements "operate via TDP given an
// Env", and every pairing works without per-pair code.
package toolapi

import (
	"net"

	"tdp/internal/attrspace"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// Env is everything a tool daemon needs to operate on its execution
// host: the machine's kernel (its "operating system"), the address of
// the machine's LASS, the dialer reaching it, and the TDP context for
// the job it monitors.
type Env struct {
	Machine  string
	Kernel   *procsim.Kernel
	LASSAddr string
	Dial     attrspace.DialFunc
	Context  string
	// Rank is the MPI rank this daemon monitors (0 for sequential jobs).
	Rank int
	// Tracer records the tool's TDP protocol steps (may be nil).
	Tracer *telemetry.Tracer
	// NetListen binds a listener on the execution host (for tools or
	// auxiliary services that accept connections). Nil means loopback
	// TCP; machines on a simulated network set it to their host's
	// Listen.
	NetListen func() (net.Listener, error)
}

// Factory builds the tool daemon program from its environment and the
// tool arguments from the job description (e.g. ToolDaemonArgs).
type Factory func(env Env, args []string) procsim.Program

// AuxFactory launches an auxiliary service (the paper's third entity
// kind next to AP and RT — e.g. a multicast/reduction network node)
// on the execution host. parentAddr is the upstream endpoint the
// service forwards to (typically the tool front-end). It returns the
// address tools should connect to instead, and a shutdown function.
type AuxFactory func(env Env, args []string, parentAddr string) (addr string, shutdown func(), err error)
