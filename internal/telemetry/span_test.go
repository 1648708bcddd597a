package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestSpanRootAndChild(t *testing.T) {
	tr := NewTracer("cass")
	root := tr.StartSpan("put")
	root.Set("attr", "pid")
	child := root.StartChild("server.put")
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Error("child did not inherit the trace ID")
	}
	if spans[0].ParentID != root.SpanID() {
		t.Errorf("child parent = %q, want %q", spans[0].ParentID, root.SpanID())
	}
	if spans[1].Fields["attr"] != "pid" {
		t.Errorf("root fields = %v", spans[1].Fields)
	}
	if got := tr.SpansForTrace(root.TraceID()); len(got) != 2 {
		t.Errorf("SpansForTrace = %d spans, want 2", len(got))
	}
}

func TestStartChildFromWireIDs(t *testing.T) {
	// The receiving daemon reconstructs the caller's trace from the
	// _tid/_sid fields; an empty trace ID means "start fresh".
	tr := NewTracer("lass")
	sp := tr.StartChild("server.put", "aaaa", "bbbb")
	sp.End()
	rec := tr.Spans()[0]
	if rec.TraceID != "aaaa" || rec.ParentID != "bbbb" {
		t.Errorf("wire child = %+v", rec)
	}
	fresh := tr.StartChild("server.put", "", "")
	if fresh.TraceID() == "" {
		t.Error("empty wire trace ID should start a fresh trace")
	}
}

func TestNilSpanAndTracerAreInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x")
	sp.Set("k", "v")
	sp.End() // must not panic
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Error("nil span has IDs")
	}
	if got := FromContext(NewContext(context.Background(), sp)); got != nil {
		t.Error("nil span stored in context")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTracer("fe")
	sp := tr.StartSpan("op")
	ctx := NewContext(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Error("FromContext did not return the stored span")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Error("FromContext on empty ctx returned a span")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer("d")
	sp := tr.StartSpan("op")
	sp.End()
	sp.End()
	if tr.Len() != 1 {
		t.Errorf("spans = %d, want 1 (End must be idempotent)", tr.Len())
	}
}

func TestStepRecordsActorNameDetail(t *testing.T) {
	var off *Tracer
	off.Step("RM", "tdp_init", "") // must not panic

	tr := NewTracer("pool")
	tr.Step("RM", "tdp_init", "")
	tr.Step("RM", "tdp_create_process", "foo,paused")
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	first, second := spans[0], spans[1]
	if first.Actor != "RM" || first.Name != "tdp_init" || first.Fields != nil || first.Start.IsZero() {
		t.Errorf("first step = %+v", first)
	}
	if second.Fields["detail"] != "foo,paused" || second.TraceID != "" || second.SpanID != "" {
		t.Errorf("second step = %+v", second)
	}
	if second.Start.Before(first.Start) {
		t.Error("steps out of order")
	}
	if first.String() != "RM:tdp_init" || second.String() != "RM:tdp_create_process(foo,paused)" {
		t.Errorf("String = %q, %q", first, second)
	}
}

func TestStepStrings(t *testing.T) {
	tr := NewTracer("pool")
	tr.Step("RM", "a", "")
	tr.Step("RT", "b", "x")
	got := make([]string, 0, 2)
	for _, s := range tr.Spans() {
		got = append(got, s.String())
	}
	if len(got) != 2 || got[0] != "RM:a" || got[1] != "RT:b(x)" {
		t.Errorf("Strings = %v", got)
	}
}

func TestStepConcurrent(t *testing.T) {
	tr := NewTracer("pool")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Step("A", "step", "")
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if tr.Len() != 800 || len(spans) != 800 {
		t.Fatalf("steps = %d (Spans %d), want 800", tr.Len(), len(spans))
	}
	for i, s := range spans {
		if s.Actor != "A" || s.Name != "step" || s.String() != "A:step" {
			t.Fatalf("step %d = %+v", i, s)
		}
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer("d")
	for i := 0; i < maxSpans+10; i++ {
		tr.StartSpan("op").End()
	}
	if tr.Len() != maxSpans {
		t.Errorf("ring len = %d, want %d", tr.Len(), maxSpans)
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Errorf("Spans() = %d, want %d", got, maxSpans)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("d")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := tr.StartSpan("op")
				sp.Set("i", "x")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 1600 {
		t.Errorf("spans = %d, want 1600", tr.Len())
	}
}

func TestLoggerLevels(t *testing.T) {
	var b strings.Builder
	log := NewLogger(&b, LevelInfo, "lassd")
	log.Debugf("hidden %d", 1)
	log.Infof("visible")
	log.Errorf("boom")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug record leaked through LevelInfo")
	}
	if !strings.Contains(out, "INFO visible") || !strings.Contains(out, "ERROR boom") {
		t.Errorf("missing records:\n%s", out)
	}
	if !strings.Contains(out, "lassd: ") {
		t.Errorf("missing prefix:\n%s", out)
	}
}

func TestNilLoggerIsSilent(t *testing.T) {
	var log *Logger
	log.Infof("x") // must not panic
	log.SetLevel(LevelDebug)
	if Silent() != nil {
		t.Error("Silent() should be the nil logger")
	}
}

func TestFuncLogger(t *testing.T) {
	var got []string
	log := FuncLogger(func(format string, args ...any) {
		got = append(got, format)
	})
	log.Debugf("a")
	if len(got) != 1 {
		t.Errorf("FuncLogger forwarded %d records, want 1", len(got))
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "error": LevelError,
		"silent": LevelSilent, "bogus": LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLoggerTruncatesLongRecords(t *testing.T) {
	var b strings.Builder
	log := NewLogger(&b, LevelDebug, "")
	log.SetMaxRecordLen(32)
	long := strings.Repeat("x", 500)
	log.Infof("value=%s", long)
	out := b.String()
	if strings.Contains(out, long) {
		t.Fatal("record not truncated")
	}
	if !strings.Contains(out, "…(+") {
		t.Errorf("missing truncation marker:\n%s", out)
	}
	// Default bound applies without SetMaxRecordLen.
	b.Reset()
	log2 := NewLogger(&b, LevelDebug, "")
	log2.Infof("%s", strings.Repeat("y", DefaultMaxRecordLen+100))
	if got := b.Len(); got > DefaultMaxRecordLen+64 {
		t.Errorf("default-bounded record is %d bytes", got)
	}
	// Disabling the bound passes records through.
	b.Reset()
	log2.SetMaxRecordLen(-1)
	log2.Infof("%s", long)
	if !strings.Contains(b.String(), long) {
		t.Error("unbounded logger truncated anyway")
	}
	// Truncation never splits a UTF-8 rune.
	if got := truncate(strings.Repeat("é", 20), 5); !strings.HasPrefix(got, "éé…") {
		t.Errorf("rune-split truncation: %q", got)
	}
}
