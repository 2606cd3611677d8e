// traceparent.go carries the end-to-end request identity: a W3C trace
// context (the `traceparent` HTTP header, version 00) generated by the
// client (or minted by the front when absent) — parsed by the serving
// layer, attached to the span tree and the access log, and echoed in
// the response. One slow request is then traceable from the client's
// latency sample through the serve route to the pipeline section that
// answered it, by one hex ID.

package obsv

import "encoding/hex"

// TraceContext is a parsed W3C traceparent: a 16-byte trace ID naming
// the whole request tree, an 8-byte span ID naming the caller's span,
// and the sampled flag. The zero value is invalid.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether the context carries non-zero IDs, as the W3C
// spec requires.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// String renders the canonical version-00 header value:
// 00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>.
func (tc TraceContext) String() string {
	b := append(make([]byte, 0, 55), "00-"...)
	b = append(hex.AppendEncode(b, tc.TraceID[:]), '-')
	b = append(hex.AppendEncode(b, tc.SpanID[:]), '-')
	return string(hex.AppendEncode(b, []byte{tc.Flags}))
}

// TraceIDString returns the 32-hex-digit trace ID alone — the grep key
// shared by the access log, the span tree, and the client.
func (tc TraceContext) TraceIDString() string {
	return hex.EncodeToString(tc.TraceID[:])
}

// ParseTraceParent parses a version-00 traceparent header value. It
// returns ok=false for anything malformed, unknown versions included —
// the caller then mints a fresh context instead of propagating garbage.
func ParseTraceParent(s string) (TraceContext, bool) {
	var tc TraceContext
	// 2 (version) + 1 + 32 (trace-id) + 1 + 16 (span-id) + 1 + 2 (flags)
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, false
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return tc, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return tc, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return tc, false
	}
	tc.Flags = flags[0]
	if !tc.Valid() {
		return tc, false
	}
	return tc, true
}

// Uint64Source is any deterministic random source (math/rand's *Rand
// qualifies) — what MakeTraceContext draws IDs from, so a seeded
// client stamps the same traceparent sequence every time.
type Uint64Source interface{ Uint64() uint64 }

// MakeTraceContext mints a sampled trace context from src. IDs are
// guaranteed non-zero.
func MakeTraceContext(src Uint64Source) TraceContext {
	var tc TraceContext
	for tc.TraceID == [16]byte{} {
		putUint64(tc.TraceID[0:8], src.Uint64())
		putUint64(tc.TraceID[8:16], src.Uint64())
	}
	for tc.SpanID == [8]byte{} {
		putUint64(tc.SpanID[:], src.Uint64())
	}
	tc.Flags = 0x01 // sampled
	return tc
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}
