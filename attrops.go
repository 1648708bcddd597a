package tdp

import (
	"context"

	"tdp/internal/attrspace"
)

// KV is one attribute/value pair in a batched put.
type KV = attrspace.KV

// This file implements the synchronous attribute space operations
// (§3.2): tdp_put and tdp_get plus the convenience lookups built on
// them. All default to the local space (LASS); the *Global variants
// address the central space (CASS) along the one route Init chose —
// h.global at h.gscope.
//
// Each operation counts under "tdp.ops.*" / "tdp.latency.*" when the
// handle has a telemetry registry, and the *Ctx variants propagate a
// caller span (telemetry.NewContext) to the server as _tid/_sid.

// Put stores attribute = value in the local space. It blocks until the
// value is visible to other participants (the paper's blocking
// tdp_put).
func (h *Handle) Put(attribute, value string) error {
	return h.PutCtx(context.Background(), attribute, value)
}

// PutCtx is Put with a context for cancellation and span propagation.
func (h *Handle) PutCtx(ctx context.Context, attribute, value string) error {
	defer h.observe(opPut).done()
	h.tracePut("tdp_put", attribute, value)
	_, err := h.lass.PutAt(ctx, attrspace.Local, attribute, value)
	return err
}

// PutBatch stores every pair in the local space in order and blocks
// until all are visible — one MPUT round trip instead of N PUTs, the
// natural shape for the paper's startup pattern (an RM publishing pid,
// executable name, args and frontend address together). A batch of one
// travels as a plain PUT.
func (h *Handle) PutBatch(pairs []KV) error {
	return h.PutBatchCtx(context.Background(), pairs)
}

// PutBatchCtx is PutBatch with a context for cancellation and span
// propagation.
func (h *Handle) PutBatchCtx(ctx context.Context, pairs []KV) error {
	defer h.observe(opPutBatch).done()
	for _, p := range pairs {
		h.tracePut("tdp_put", p.Key, p.Value)
	}
	_, err := h.lass.PutBatchAt(ctx, attrspace.Local, pairs)
	return err
}

// PutBatchGlobal is PutBatch against the global space: one MPUT to the
// CASS, or one GMPUT relayed (and cached) by the LASS with
// GlobalViaLASS.
func (h *Handle) PutBatchGlobal(pairs []KV) error {
	if h.global == nil {
		return ErrNoCASS
	}
	defer h.observe(opPutBatchGlobal).done()
	for _, p := range pairs {
		h.tracePut("tdp_put_global", p.Key, p.Value)
	}
	_, err := h.global.PutBatchAt(context.Background(), h.gscope, pairs)
	return err
}

// Get blocks until the attribute exists in the local space and returns
// its value (the paper's blocking tdp_get). Cancel through ctx; a span
// carried by ctx propagates to the server.
func (h *Handle) Get(ctx context.Context, attribute string) (string, error) {
	defer h.observe(opGet).done()
	h.traceStep("tdp_get", attribute)
	v, _, err := h.lass.GetAt(ctx, attrspace.Local, attribute)
	return v, err
}

// TryGet returns the attribute's current value without blocking, or
// ErrNotFound.
func (h *Handle) TryGet(attribute string) (string, error) {
	defer h.observe(opTryGet).done()
	v, _, err := h.lass.TryGetAt(context.Background(), attrspace.Local, attribute)
	return v, err
}

// Delete removes an attribute from the local space.
func (h *Handle) Delete(attribute string) error {
	defer h.observe(opDelete).done()
	_, err := h.lass.DeleteAt(context.Background(), attrspace.Local, attribute)
	return err
}

// Snapshot copies every attribute in the local space's context.
func (h *Handle) Snapshot() (map[string]string, error) {
	defer h.observe(opSnapshot).done()
	return h.lass.SnapshotAt(context.Background(), attrspace.Local)
}

// PutGlobal stores attribute = value in the global space (directly on
// the CASS, or write-through the caching LASS with GlobalViaLASS).
func (h *Handle) PutGlobal(attribute, value string) error {
	return h.PutGlobalCtx(context.Background(), attribute, value)
}

// PutGlobalCtx is PutGlobal with a context for cancellation and span
// propagation.
func (h *Handle) PutGlobalCtx(ctx context.Context, attribute, value string) error {
	if h.global == nil {
		return ErrNoCASS
	}
	defer h.observe(opPutGlobal).done()
	h.tracePut("tdp_put_global", attribute, value)
	_, err := h.global.PutAt(ctx, h.gscope, attribute, value)
	return err
}

// GetGlobal blocks until the attribute exists in the global space.
// With GlobalViaLASS a cached attribute is answered by the LASS in one
// local hop; only misses travel to the CASS.
func (h *Handle) GetGlobal(ctx context.Context, attribute string) (string, error) {
	if h.global == nil {
		return "", ErrNoCASS
	}
	defer h.observe(opGetGlobal).done()
	h.traceStep("tdp_get_global", attribute)
	v, _, err := h.global.GetAt(ctx, h.gscope, attribute)
	return v, err
}

// TryGetGlobal is the non-blocking global space lookup.
func (h *Handle) TryGetGlobal(attribute string) (string, error) {
	if h.global == nil {
		return "", ErrNoCASS
	}
	defer h.observe(opTryGetGlobal).done()
	v, _, err := h.global.TryGetAt(context.Background(), h.gscope, attribute)
	return v, err
}

// HasGlobal reports whether this handle can reach a global space —
// through its own CASS connection or a caching LASS.
func (h *Handle) HasGlobal() bool { return h.global != nil }

// SnapshotGlobalMany snapshots several global contexts at once through
// the caching LASS (one GSNAPM round trip; on a sharded CASS pool the
// LASS fetches each context from its owning shard concurrently). The
// result maps context name → attribute snapshot. A CASS reached
// directly has no such verb: attrspace.ErrNoGlobal.
func (h *Handle) SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error) {
	if h.global == nil {
		return nil, ErrNoCASS
	}
	defer h.observe(opSnapshotGlobalMany).done()
	return h.global.SnapshotGlobalMany(ctx, contexts)
}

// GlobalContexts lists the context names alive in the global space —
// on a sharded CASS pool, the union across every reachable shard —
// through the caching LASS (attrspace.ErrNoGlobal from a CASS reached
// directly).
func (h *Handle) GlobalContexts(ctx context.Context) ([]string, error) {
	if h.global == nil {
		return nil, ErrNoCASS
	}
	defer h.observe(opGlobalContexts).done()
	return h.global.GlobalContexts(ctx)
}
