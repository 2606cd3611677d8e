package obsv

import (
	"math/rand"
	"strings"
	"testing"
)

var sinkString string

func TestTraceParentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		tc := MakeTraceContext(rng)
		if !tc.Valid() {
			t.Fatalf("minted invalid context %+v", tc)
		}
		s := tc.String()
		if len(s) != 55 || !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") {
			t.Fatalf("bad header form %q", s)
		}
		got, ok := ParseTraceParent(s)
		if !ok || got != tc {
			t.Fatalf("round trip: %q -> %+v ok=%v, want %+v", s, got, ok, tc)
		}
	}
}

func TestTraceParentDeterministic(t *testing.T) {
	a := MakeTraceContext(rand.New(rand.NewSource(9)))
	b := MakeTraceContext(rand.New(rand.NewSource(9)))
	if a != b {
		t.Error("same seed minted different trace contexts")
	}
	c := MakeTraceContext(rand.New(rand.NewSource(10)))
	if a == c {
		t.Error("different seeds minted the same trace context")
	}
}

func TestTraceParentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"garbage",
		"00-abc-def-01", // too short
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-4bf92f3577b34da6a3ce929d0e0e4736x00f067aa0ba902b7-01", // bad separator
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-zzf067aa0ba902b7-01", // non-hex span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // non-hex flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
	} {
		if _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", bad)
		}
	}
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceParent(good)
	if !ok || tc.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.Flags != 1 {
		t.Errorf("ParseTraceParent(%q) = %+v ok=%v", good, tc, ok)
	}
	if got := tc.String(); got != good {
		t.Errorf("String() = %q, want %q", got, good)
	}
	// Replica and gateway render it on every request: the string itself
	// is the only allocation.
	if n := testing.AllocsPerRun(100, func() { sinkString = tc.String() }); n > 1 {
		t.Errorf("String() allocates %v times, want ≤ 1", n)
	}
}
