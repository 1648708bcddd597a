package tdp

import (
	"context"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

// This file wires the unified telemetry layer (internal/telemetry)
// into the public TDP handle. Every tdp_* entry point counts an op and
// observes its latency under "tdp.*" when the Config carries a
// Registry; the configured Tracer flows into the attribute space
// clients so traced operations propagate _tid/_sid to the servers.

// MonitorPrefix is the attribute-name prefix under which daemons
// self-publish their metrics into the attribute space; re-exported
// from internal/telemetry so RM/RT code needs no extra import.
const MonitorPrefix = telemetry.MonitorPrefix

// handleOp names one tdp-level operation for observe.
type handleOp uint8

const (
	opPut handleOp = iota
	opPutBatch
	opPutBatchGlobal
	opGet
	opTryGet
	opDelete
	opSnapshot
	opPutGlobal
	opGetGlobal
	opTryGetGlobal
	opSnapshotGlobalMany
	opGlobalContexts
	opAsyncGet
	opAsyncPut
	opServiceEvents
	opCreateProcess
	opAttach
	opContinueProcess
	numHandleOps
)

// handleOpNames holds each operation's two metric names, built once.
var handleOpNames = func() (names [numHandleOps]struct{ ops, latency string }) {
	for op, name := range [numHandleOps]string{
		opPut: "put", opPutBatch: "put_batch", opPutBatchGlobal: "put_batch_global",
		opGet: "get", opTryGet: "tryget", opDelete: "delete", opSnapshot: "snapshot",
		opPutGlobal: "put_global", opGetGlobal: "get_global", opTryGetGlobal: "tryget_global",
		opSnapshotGlobalMany: "snapshot_global_many", opGlobalContexts: "global_contexts",
		opAsyncGet: "async_get", opAsyncPut: "async_put", opServiceEvents: "service_events",
		opCreateProcess: "create_process", opAttach: "attach", opContinueProcess: "continue_process",
	} {
		names[op].ops, names[op].latency = "tdp.ops."+name, "tdp.latency."+name
	}
	return names
}()

// opMeter is one operation's counter and latency histogram, resolved in
// the handle's registry on the operation's first use — so an operation
// never called stays out of the snapshot — and never looked up again.
type opMeter struct {
	ops     *telemetry.Counter
	latency *telemetry.Histogram
}

// opTiming is one observed call in progress; the caller defers (or, for
// an async operation, hands on) its done.
type opTiming struct {
	latency *telemetry.Histogram
	start   time.Time
}

// done records the call's latency; a no-op without a registry.
func (t opTiming) done() {
	if t.latency != nil {
		t.latency.Since(t.start)
	}
}

// observe counts one tdp-level operation and starts timing it.
func (h *Handle) observe(op handleOp) opTiming {
	reg := h.cfg.Telemetry
	if reg == nil {
		return opTiming{}
	}
	m := h.meters[op].Load()
	if m == nil {
		// First uses that race resolve the same two registry entries.
		names := &handleOpNames[op]
		m = &opMeter{ops: reg.Counter(names.ops), latency: reg.Histogram(names.latency, nil)}
		h.meters[op].Store(m)
	}
	m.ops.Inc()
	return opTiming{latency: m.latency, start: time.Now()}
}

// noteEventDepth tracks the completion-callback backlog — the distance
// between async completions arriving and the daemon's poll loop
// servicing them.
func (h *Handle) noteEventDepth() {
	if reg := h.cfg.Telemetry; reg != nil {
		reg.Gauge("tdp.events.pending").Set(int64(h.queue.Len()))
	}
}

// StartMonitorPublisher periodically publishes this handle's registry
// into its local attribute space under MonitorPrefix + identity + ".",
// so any participant can watch the daemon with a plain Get — the same
// mechanism the paper uses for process status (§2.3), in the encoding
// every publisher shares (attrspace.MonitorPairs). The returned stop
// function ends publication.
func (h *Handle) StartMonitorPublisher(interval time.Duration) (stop func()) {
	reg := h.cfg.Telemetry
	if reg == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			// One batched put per tick: the whole snapshot crosses the
			// wire as a single MPUT instead of one round trip per metric.
			pairs := attrspace.MonitorPairs(h.cfg.Identity, reg.Snapshot())
			h.lass.PutBatchAt(context.Background(), attrspace.Local, pairs)
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
		}
	}
}
