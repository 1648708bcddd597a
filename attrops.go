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
// address the central space (CASS).
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
	return h.lass.PutCtx(ctx, attribute, value)
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
	return h.lass.PutBatchCtx(ctx, pairs)
}

// PutBatchGlobal is PutBatch against the global space. With a direct
// CASS connection it is one MPUT to the CASS; with GlobalViaLASS it is
// one GMPUT relayed (and cached) by the LASS.
func (h *Handle) PutBatchGlobal(pairs []KV) error {
	if h.cass == nil && !h.cfg.GlobalViaLASS {
		return ErrNoCASS
	}
	defer h.observe(opPutBatchGlobal).done()
	for _, p := range pairs {
		h.tracePut("tdp_put_global", p.Key, p.Value)
	}
	if h.cfg.GlobalViaLASS {
		return h.lass.PutBatchGlobal(context.Background(), pairs)
	}
	return h.cass.PutBatch(pairs)
}

// Get blocks until the attribute exists in the local space and returns
// its value (the paper's blocking tdp_get). Cancel through ctx; a span
// carried by ctx propagates to the server.
func (h *Handle) Get(ctx context.Context, attribute string) (string, error) {
	defer h.observe(opGet).done()
	h.traceStep("tdp_get", attribute)
	return h.lass.Get(ctx, attribute)
}

// TryGet returns the attribute's current value without blocking, or
// ErrNotFound.
func (h *Handle) TryGet(attribute string) (string, error) {
	defer h.observe(opTryGet).done()
	return h.lass.TryGet(attribute)
}

// Delete removes an attribute from the local space.
func (h *Handle) Delete(attribute string) error {
	defer h.observe(opDelete).done()
	return h.lass.Delete(attribute)
}

// Snapshot copies every attribute in the local space's context.
func (h *Handle) Snapshot() (map[string]string, error) {
	defer h.observe(opSnapshot).done()
	return h.lass.Snapshot()
}

// PutGlobal stores attribute = value in the global space (directly on
// the CASS, or write-through the caching LASS with GlobalViaLASS).
func (h *Handle) PutGlobal(attribute, value string) error {
	return h.PutGlobalCtx(context.Background(), attribute, value)
}

// PutGlobalCtx is PutGlobal with a context for cancellation and span
// propagation.
func (h *Handle) PutGlobalCtx(ctx context.Context, attribute, value string) error {
	if h.cass == nil && !h.cfg.GlobalViaLASS {
		return ErrNoCASS
	}
	defer h.observe(opPutGlobal).done()
	h.tracePut("tdp_put_global", attribute, value)
	if h.cfg.GlobalViaLASS {
		return h.lass.PutGlobal(ctx, attribute, value)
	}
	return h.cass.PutCtx(ctx, attribute, value)
}

// GetGlobal blocks until the attribute exists in the global space.
// With GlobalViaLASS a cached attribute is answered by the LASS in one
// local hop; only misses travel to the CASS.
func (h *Handle) GetGlobal(ctx context.Context, attribute string) (string, error) {
	if h.cass == nil && !h.cfg.GlobalViaLASS {
		return "", ErrNoCASS
	}
	defer h.observe(opGetGlobal).done()
	h.traceStep("tdp_get_global", attribute)
	if h.cfg.GlobalViaLASS {
		return h.lass.GetGlobal(ctx, attribute)
	}
	return h.cass.Get(ctx, attribute)
}

// TryGetGlobal is the non-blocking global space lookup.
func (h *Handle) TryGetGlobal(attribute string) (string, error) {
	if h.cass == nil && !h.cfg.GlobalViaLASS {
		return "", ErrNoCASS
	}
	defer h.observe(opTryGetGlobal).done()
	if h.cfg.GlobalViaLASS {
		return h.lass.TryGetGlobal(context.Background(), attribute)
	}
	return h.cass.TryGet(attribute)
}

// HasGlobal reports whether this handle can reach a global space —
// through its own CASS connection or a caching LASS.
func (h *Handle) HasGlobal() bool { return h.cass != nil || h.cfg.GlobalViaLASS }

// globalManyAPI is the multi-context surface of the sharded global
// space. It is asserted rather than part of attrspace.API so that
// custom API implementations predating it keep compiling.
type globalManyAPI interface {
	SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error)
	GlobalContexts(ctx context.Context) ([]string, error)
}

// SnapshotGlobalMany snapshots several global contexts at once through
// the caching LASS (one GSNAPM round trip; on a sharded CASS pool the
// LASS fetches each context from its owning shard concurrently). The
// result maps context name → attribute snapshot.
func (h *Handle) SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error) {
	if !h.cfg.GlobalViaLASS {
		return nil, ErrNoCASS
	}
	api, ok := h.lass.(globalManyAPI)
	if !ok {
		return nil, attrspace.ErrNoGlobal
	}
	defer h.observe(opSnapshotGlobalMany).done()
	return api.SnapshotGlobalMany(ctx, contexts)
}

// GlobalContexts lists the context names alive in the global space —
// on a sharded CASS pool, the union across every reachable shard.
func (h *Handle) GlobalContexts(ctx context.Context) ([]string, error) {
	if !h.cfg.GlobalViaLASS {
		return nil, ErrNoCASS
	}
	api, ok := h.lass.(globalManyAPI)
	if !ok {
		return nil, attrspace.ErrNoGlobal
	}
	defer h.observe(opGlobalContexts).done()
	return api.GlobalContexts(ctx)
}
