package tracectx

import (
	"context"
	"strings"
	"testing"
)

func TestNewMintsValidDistinctContexts(t *testing.T) {
	a, b := New(), New()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("New minted invalid contexts: %v %v", a, b)
	}
	if a.TraceID() == b.TraceID() {
		t.Fatalf("two roots share trace ID %s", a.TraceID())
	}
}

func TestChildKeepsTraceChangesSpan(t *testing.T) {
	root := New()
	child := root.Child()
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	if child.SpanID() == root.SpanID() {
		t.Fatalf("child span ID %s did not change", child.SpanID())
	}
	if !child.Valid() {
		t.Fatal("child context invalid")
	}
}

func TestStringParseRoundtrip(t *testing.T) {
	c := New()
	s := c.String()
	if !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") || len(s) != 55 {
		t.Fatalf("serialized form %q is not a 55-char 00-…-01 traceparent", s)
	}
	got, ok := Parse(s)
	if !ok {
		t.Fatalf("Parse rejected own output %q", s)
	}
	if got != c {
		t.Fatalf("roundtrip changed context: %v != %v", got, c)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"not-a-traceparent",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // 3 parts
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // short version
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span
		"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01",   // short trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736x-00f067aa0ba902b7-01", // long trace
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex trace
	}
	for _, s := range bad {
		if c, ok := Parse(s); ok {
			t.Errorf("Parse(%q) accepted as %v", s, c)
		}
	}
}

func TestParseAcceptsUnknownVersionAndExtraParts(t *testing.T) {
	// Per the spec, unknown (non-ff) versions parse by the 00 layout, and
	// future versions may append more dash-separated fields.
	s := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extrafield"
	c, ok := Parse(s)
	if !ok {
		t.Fatalf("Parse rejected forward-compatible form %q", s)
	}
	if c.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %s", c.TraceID())
	}
}

func TestContextCarriage(t *testing.T) {
	if _, ok := From(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := New()
	ctx := Into(context.Background(), tc)
	got, ok := From(ctx)
	if !ok || got != tc {
		t.Fatalf("From = %v, %v; want %v, true", got, ok, tc)
	}

	ctx2, same, joined := Ensure(ctx)
	if !joined || same != tc || ctx2 != ctx {
		t.Fatal("Ensure minted a new root despite an existing trace")
	}
	_, minted, joined := Ensure(context.Background())
	if joined || !minted.Valid() {
		t.Fatalf("Ensure on empty context: joined=%v minted=%v", joined, minted)
	}
}

func TestFromHeader(t *testing.T) {
	tc := New()
	hdr := map[string]string{Header: tc.String()}
	got, joined := FromHeader(func(k string) string { return hdr[k] })
	if !joined || got != tc {
		t.Fatalf("FromHeader = %v, %v; want %v, true", got, joined, tc)
	}
	got, joined = FromHeader(func(string) string { return "garbage" })
	if joined {
		t.Fatal("FromHeader claimed to join a garbage header")
	}
	if !got.Valid() {
		t.Fatal("FromHeader fallback root is invalid")
	}
}
