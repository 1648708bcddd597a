// Package tdp is a Go implementation of the Tool Dæmon Protocol (TDP)
// from Miller, Cortés, Senar and Livny, "The Tool Dæmon Protocol
// (TDP)", SC 2003.
//
// TDP standardizes the interactions between a resource manager (RM —
// a batch scheduler such as Condor), a run-time tool (RT — a debugger,
// profiler or tracer such as Paradyn), and the application process
// (AP) they cooperate on. Porting m tools to n schedulers normally
// costs m × n efforts; with both sides coded against TDP it costs
// m + n.
//
// The library provides the paper's three service groups:
//
//   - Process management (§3.1): CreateProcess with a run or paused
//     start mode, Attach, and Continue. A paused create leaves the
//     process stopped "just after the exec call" so a tool can attach
//     and instrument it before main runs.
//
//   - Inter-daemon communication (§3.2): a per-context attribute
//     space served by a Local Attribute Space Server (LASS) on each
//     execution host and an optional Central Attribute Space Server
//     (CASS) beside the tool front-end. Put and Get are blocking;
//     both attributes and values are free-form strings.
//
//   - Event notification (§3.3): AsyncGet and AsyncPut complete
//     through a queue drained by ServiceEvents, so callbacks run at a
//     point the daemon chooses — the paper's poll-loop model, adopted
//     because neither signals nor threads are portable across tools.
//
// A Handle corresponds to the paper's tdp handle: the result of
// tdp_init, used in every subsequent call, released by tdp_exit.
//
// The process substrate is the simulated kernel in internal/procsim;
// see DESIGN.md for why a simulator faithfully stands in for
// fork/exec + ptrace in this reproduction.
package tdp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tdp/internal/attrspace"
	"tdp/internal/events"
	"tdp/internal/procsim"
	"tdp/internal/telemetry"
)

// Standard attribute names (§3.2: "there is a standard list of
// attribute names for the set of data commonly exchanged between the
// different daemons"). RMs and RTs may extend the set freely.
const (
	// AttrPID carries the application process id from RM to RT.
	AttrPID = "pid"
	// AttrExecutable carries the application executable name.
	AttrExecutable = "executable_name"
	// AttrArgs carries the application argument string (parsed by the
	// consumer, per §3.2's "-p1500 -P2000" discussion).
	AttrArgs = "args"
	// AttrFrontendAddr carries the host:port the RT daemon should dial
	// to reach its front-end — either the real address or the RM's
	// proxy (§2.4).
	AttrFrontendAddr = "frontend_addr"
	// AttrStdioAddr carries the host:port for application stdin/stdout
	// forwarding (§2.4).
	AttrStdioAddr = "stdio_addr"
	// AttrStatus carries application process status published by the
	// RM (§2.3); values are procsim state strings or "exited:<status>".
	AttrStatus = "process_status"
	// AttrToolReady is set by the RT once its initialization is done,
	// telling the RM it may proceed.
	AttrToolReady = "tool_ready"
	// AttrStartRequest is set by the RT to ask the RM to start the
	// paused application (§2.3: control operations are centralized in
	// the RM; the RT requests them through the space).
	AttrStartRequest = "start_request"
)

// Errors returned by the public API.
var (
	// ErrNotFound reports an absent attribute from TryGet.
	ErrNotFound = attrspace.ErrNotFound
	// ErrClosed reports use of a Handle after Exit.
	ErrClosed = errors.New("tdp: handle closed")
	// ErrNoKernel reports a process-management call on a Handle whose
	// Config carried no process substrate.
	ErrNoKernel = errors.New("tdp: no process kernel configured")
	// ErrNoCASS reports a global-space call without a configured CASS.
	ErrNoCASS = errors.New("tdp: no central attribute space configured")
)

// Config parameterizes Init.
type Config struct {
	// Context names the attribute space shared by this daemon and its
	// peers. An RM managing several tools uses a different context per
	// tool (§3.2); all participants in one job use the same value.
	Context string

	// LASSAddr is the address of the local attribute space server.
	// Required.
	LASSAddr string

	// CASSAddr optionally points at the central attribute space server
	// on the front-end host. Empty disables the global space.
	CASSAddr string

	// GlobalViaLASS routes the *Global operations through the LASS
	// instead of a direct CASS connection: the LASS must have been
	// started with an upstream CASS (a caching LASS — see
	// attrspace.Server.EnableGlobalCache or tdp.ServeCachingLASS).
	// Steady-state global reads are then answered from the LASS's
	// subscription-invalidated cache in one local hop, and global
	// writes keep read-your-writes through the same LASS. Mutually
	// exclusive with CASSAddr.
	GlobalViaLASS bool

	// Dial opens connections to the attribute servers. Nil uses real
	// TCP; experiments on the simulated network pass the host's Dial.
	Dial attrspace.DialFunc

	// Kernel is the process substrate for CreateProcess/Attach. A
	// daemon that only exchanges attributes (e.g. a tool front-end)
	// may leave it nil.
	Kernel *procsim.Kernel

	// Identity names this daemon for attach bookkeeping and traces
	// (e.g. "condor_starter", "paradynd-3").
	Identity string

	// Telemetry, when non-nil, receives op counters and latency
	// histograms for every tdp_* call ("tdp.*") plus the attribute
	// space client and wire metrics ("client.*", "wire.*").
	Telemetry *telemetry.Registry

	// Tracer, when non-nil, records every tdp_* call as a step under
	// Identity (what the figure reproductions check the published call
	// order on) and gives every attribute space operation a span; spans
	// started by the caller and carried in a context propagate to the
	// servers as the reserved _tid/_sid wire fields.
	Tracer *telemetry.Tracer
}

// Handle is the tdp handle returned by Init and used in every
// subsequent TDP action. It is safe for concurrent use.
type Handle struct {
	cfg  Config
	lass *attrspace.Client
	// global and gscope are where the *Global operations go, chosen once
	// by Init: a CASS connection at Local, the caching LASS at Global, or
	// nil when the handle has no global space.
	global *attrspace.Client
	gscope attrspace.Scope
	queue  events.Queue

	meters [numHandleOps]atomic.Pointer[opMeter] // see observe

	mu       sync.Mutex
	attached []*Process
}

// Init establishes the TDP framework for one daemon: it connects to
// the LASS (and CASS when configured) and joins the context. This is
// tdp_init; the returned Handle is the tdp handle.
func Init(cfg Config) (*Handle, error) {
	if cfg.Context == "" {
		return nil, errors.New("tdp: Config.Context is required")
	}
	if cfg.LASSAddr == "" {
		return nil, errors.New("tdp: Config.LASSAddr is required")
	}
	if cfg.Identity == "" {
		cfg.Identity = "daemon"
	}
	if cfg.GlobalViaLASS && cfg.CASSAddr != "" {
		return nil, errors.New("tdp: GlobalViaLASS and CASSAddr are mutually exclusive")
	}
	lass, err := attrspace.Dial(cfg.Dial, cfg.LASSAddr, cfg.Context)
	if err != nil {
		return nil, fmt.Errorf("tdp: init: LASS: %w", err)
	}
	lass.SetTelemetry(cfg.Telemetry, cfg.Tracer)
	h := &Handle{cfg: cfg, lass: lass}
	switch {
	case cfg.GlobalViaLASS:
		h.global, h.gscope = lass, attrspace.Global
	case cfg.CASSAddr != "":
		cass, err := attrspace.Dial(cfg.Dial, cfg.CASSAddr, cfg.Context)
		if err != nil {
			lass.Close()
			return nil, fmt.Errorf("tdp: init: CASS: %w", err)
		}
		cass.SetTelemetry(cfg.Telemetry, cfg.Tracer)
		h.global, h.gscope = cass, attrspace.Local
	}
	if h.cfg.Tracer != nil {
		h.cfg.Tracer.Step(h.cfg.Identity, "tdp_init", "context="+cfg.Context)
	}
	return h, nil
}

// Exit disengages from the TDP library and the attribute space. When
// the last participant of a context exits, the context is destroyed
// (§3.2). Any processes this handle is still attached to are detached
// — the library-level analog of the OS releasing a dead tracer's
// ptrace attachments, which lets a replacement tool re-attach after a
// tool fault. Exit is idempotent.
func (h *Handle) Exit() error {
	h.cfg.Tracer.Step(h.cfg.Identity, "tdp_exit", "")
	h.mu.Lock()
	attached := h.attached
	h.attached = nil
	h.mu.Unlock()
	for _, p := range attached {
		p.Detach() // best effort; the process may have exited
	}
	if h.global != nil && h.global != h.lass {
		h.global.Close() // the CASS connection
	}
	return h.lass.Close()
}

func (h *Handle) trackAttached(p *Process) {
	h.mu.Lock()
	h.attached = append(h.attached, p)
	h.mu.Unlock()
}

func (h *Handle) untrackAttached(p *Process) {
	h.mu.Lock()
	for i, q := range h.attached {
		if q == p {
			h.attached = append(h.attached[:i], h.attached[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// Identity returns the daemon identity from the Config.
func (h *Handle) Identity() string { return h.cfg.Identity }

// Context returns the attribute space context name.
func (h *Handle) Context() string { return h.cfg.Context }

// tracePut records a put step with its "attribute=value" detail, which
// it builds only when tracing is on: the put paths run it on every call.
func (h *Handle) tracePut(action, attribute, value string) {
	if h.cfg.Tracer != nil {
		h.cfg.Tracer.Step(h.cfg.Identity, action, attribute+"="+value)
	}
}

// kernel returns the configured process substrate or ErrNoKernel.
func (h *Handle) kernel() (*procsim.Kernel, error) {
	if h.cfg.Kernel == nil {
		return nil, ErrNoKernel
	}
	return h.cfg.Kernel, nil
}
