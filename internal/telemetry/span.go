package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// This file implements the cross-daemon span tracer. A trace is one
// logical operation (a Put issued by a tool front-end, say); a span is
// one daemon's share of it. Trace and span IDs travel between daemons
// as the reserved _tid/_sid fields on wire.Message (see
// wire.FieldTraceID), so the receiving daemon records its span under
// the same trace ID and the operation can be followed front-end →
// CASS → proxy → LASS from the daemons' span logs alone. The proxy
// needs no changes to participate: it splices bytes, so the reserved
// fields pass through untouched.
//
// The same log holds the protocol steps a daemon takes (Step): each
// tdp_* call, and each RM/tool daemon action around it, as a span with
// no duration and no trace, which is what the figure reproductions
// check the published call order on.

// SpanRecord is one finished span in a daemon's span log.
type SpanRecord struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Actor    string            `json:"actor"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration"`
	Fields   map[string]string `json:"fields,omitempty"`
}

// String renders "actor:name tid=.. sid=.. parent=.. dur=.." for logs,
// and a step (a span with no trace) as "actor:name(detail)".
func (r SpanRecord) String() string {
	if r.TraceID == "" {
		if d := r.Fields["detail"]; d != "" {
			return r.Actor + ":" + r.Name + "(" + d + ")"
		}
		return r.Actor + ":" + r.Name
	}
	s := fmt.Sprintf("%s:%s tid=%s sid=%s", r.Actor, r.Name, r.TraceID, r.SpanID)
	if r.ParentID != "" {
		s += " parent=" + r.ParentID
	}
	return fmt.Sprintf("%s dur=%s", s, r.Duration)
}

// maxSpans bounds each tracer's span log; the log is a diagnosis aid,
// not an archive, so old spans are dropped ring-buffer style.
const maxSpans = 4096

// Tracer accumulates finished spans for one daemon. All methods are
// safe for concurrent use.
type Tracer struct {
	actor string

	mu    sync.Mutex
	spans []SpanRecord
	head  int  // next write position once the ring is full
	full  bool // the ring has wrapped
	log   *Logger
}

// NewTracer returns an empty tracer whose spans carry the given actor
// name (e.g. "cassd", "paradynd").
func NewTracer(actor string) *Tracer {
	return &Tracer{actor: actor}
}

// Actor returns the daemon name spans are recorded under.
func (t *Tracer) Actor() string { return t.actor }

// SetLogger makes the tracer echo every finished span to log at debug
// level (the daemon's span log on disk/stderr, in addition to the
// in-memory ring).
func (t *Tracer) SetLogger(log *Logger) {
	t.mu.Lock()
	t.log = log
	t.mu.Unlock()
}

// Span is an in-flight operation segment. Create with StartSpan or
// StartChild, annotate with Set, finish with End (which records it in
// the tracer). A nil *Span is valid and inert, so call sites need no
// nil checks when tracing is disabled.
type Span struct {
	tracer   *Tracer
	traceID  string
	spanID   string
	parentID string
	name     string
	start    time.Time

	mu     sync.Mutex
	fields map[string]string
	ended  bool
}

// StartSpan begins a new root span — a fresh trace ID with this span
// at its root.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer:  t,
		traceID: newID(),
		spanID:  newID(),
		name:    name,
		start:   time.Now(),
	}
}

// StartChild begins a span within an existing trace, as received from
// a peer daemon (traceID/parentID off the wire). An empty traceID
// starts a fresh root trace instead.
func (t *Tracer) StartChild(name, traceID, parentID string) *Span {
	if t == nil {
		return nil
	}
	if traceID == "" {
		return t.StartSpan(name)
	}
	return &Span{
		tracer:   t,
		traceID:  traceID,
		spanID:   newID(),
		parentID: parentID,
		name:     name,
		start:    time.Now(),
	}
}

// StartChild begins a child span of sp in the same tracer.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tracer.StartChild(name, sp.traceID, sp.spanID)
}

// TraceID returns the trace this span belongs to ("" on nil).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.traceID
}

// SpanID returns this span's own ID ("" on nil).
func (sp *Span) SpanID() string {
	if sp == nil {
		return ""
	}
	return sp.spanID
}

// Set annotates the span with a key/value pair.
func (sp *Span) Set(key, value string) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	if sp.fields == nil {
		sp.fields = make(map[string]string)
	}
	sp.fields[key] = value
	sp.mu.Unlock()
	return sp
}

// End finishes the span and records it in the tracer's span log. End
// is idempotent; only the first call records.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	fields := sp.fields
	sp.mu.Unlock()
	rec := SpanRecord{
		TraceID:  sp.traceID,
		SpanID:   sp.spanID,
		ParentID: sp.parentID,
		Actor:    sp.tracer.actor,
		Name:     sp.name,
		Start:    sp.start,
		Duration: time.Since(sp.start),
		Fields:   fields,
	}
	sp.tracer.record(rec)
}

// Step records one protocol step taken now by actor (a daemon of the
// caller's, not necessarily the tracer's own): a finished span named
// name, with detail, when not empty, as its "detail" field. A step
// belongs to no cross-daemon trace, so its trace and span IDs are
// empty. Step on a nil tracer does nothing.
func (t *Tracer) Step(actor, name, detail string) {
	if t == nil {
		return
	}
	rec := SpanRecord{Actor: actor, Name: name, Start: time.Now()}
	if detail != "" {
		rec.Fields = map[string]string{"detail": detail}
	}
	t.record(rec)
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if t.full {
		t.spans[t.head] = rec
		t.head = (t.head + 1) % maxSpans
	} else {
		t.spans = append(t.spans, rec)
		if len(t.spans) == maxSpans {
			t.full = true
		}
	}
	log := t.log
	t.mu.Unlock()
	if log != nil {
		log.Debugf("span %s", rec)
	}
}

// Spans returns a copy of the span log, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.spans))
	if t.full {
		out = append(out, t.spans[t.head:]...)
		out = append(out, t.spans[:t.head]...)
	} else {
		out = append(out, t.spans...)
	}
	return out
}

// SpansForTrace returns the recorded spans of one trace, oldest first.
func (t *Tracer) SpansForTrace(traceID string) []SpanRecord {
	var out []SpanRecord
	for _, rec := range t.Spans() {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

// Len reports the number of spans currently held.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// newID returns a 16-hex-char random identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID
		// beats a panic in a diagnostics path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ctxKey is the context key for span propagation inside one process.
type ctxKey struct{}

// NewContext returns ctx carrying sp; client layers extract it and
// inject the IDs into outgoing wire messages.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
