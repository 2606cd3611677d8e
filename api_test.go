package manrsmeter

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 3, 50, 500, 6
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 50, 15, 2, 3
	return cfg
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	// The README quickstart, verbatim in spirit.
	ix := NewROVIndex()
	err := ix.Add(Authorization{Prefix: MustParsePrefix("192.0.2.0/24"), ASN: 64500, MaxLength: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Validate(MustParsePrefix("192.0.2.0/24"), 64500); got != StatusValid {
		t.Errorf("status = %v", got)
	}
	if got := ix.Validate(MustParsePrefix("192.0.2.0/24"), 64666); got != StatusInvalidASN {
		t.Errorf("status = %v", got)
	}
	if !Conformant(StatusValid, StatusNotFound) {
		t.Error("RPKI-valid must be conformant")
	}
	if !Unconformant(StatusInvalidASN, StatusNotFound) {
		t.Error("RPKI-invalid-only must be unconformant")
	}
	if ClassifySize(200) != Large || ClassifySize(1) != Small {
		t.Error("size classification")
	}
}

func TestConformanceClassification(t *testing.T) {
	// The full §6.4 truth table over the four defined statuses: a pair
	// is conformant on RPKI Valid, IRR Valid, or IRR Invalid-length
	// (IRR has no max-length attribute); unconformant on RPKI Invalid
	// or RPKI-unregistered with a wrong-origin IRR object; pairs
	// registered nowhere are neither.
	cases := []struct {
		rpki, irr          Status
		conform, unconform bool
	}{
		{StatusNotFound, StatusNotFound, false, false},
		{StatusNotFound, StatusValid, true, false},
		{StatusNotFound, StatusInvalidASN, false, true},
		{StatusNotFound, StatusInvalidLength, true, false},
		{StatusValid, StatusNotFound, true, false},
		{StatusValid, StatusValid, true, false},
		{StatusValid, StatusInvalidASN, true, false},
		{StatusValid, StatusInvalidLength, true, false},
		{StatusInvalidASN, StatusNotFound, false, true},
		{StatusInvalidASN, StatusValid, true, false},
		{StatusInvalidASN, StatusInvalidASN, false, true},
		{StatusInvalidASN, StatusInvalidLength, true, false},
		{StatusInvalidLength, StatusNotFound, false, true},
		{StatusInvalidLength, StatusValid, true, false},
		{StatusInvalidLength, StatusInvalidASN, false, true},
		{StatusInvalidLength, StatusInvalidLength, true, false},
	}
	for _, tc := range cases {
		if got := Conformant(tc.rpki, tc.irr); got != tc.conform {
			t.Errorf("Conformant(%v, %v) = %v, want %v", tc.rpki, tc.irr, got, tc.conform)
		}
		if got := Unconformant(tc.rpki, tc.irr); got != tc.unconform {
			t.Errorf("Unconformant(%v, %v) = %v, want %v", tc.rpki, tc.irr, got, tc.unconform)
		}
		if Conformant(tc.rpki, tc.irr) && Unconformant(tc.rpki, tc.irr) {
			t.Errorf("(%v, %v) both conformant and unconformant", tc.rpki, tc.irr)
		}
	}
	// Statuses outside the defined enum must classify as neither, not
	// panic or default to a verdict.
	if Conformant(Status(7), Status(9)) {
		t.Error("unknown statuses classified conformant")
	}
	if Unconformant(Status(7), Status(9)) {
		t.Error("unknown statuses classified unconformant")
	}
}

func TestClassifySizeBoundaries(t *testing.T) {
	// Class edges from the paper: small ≤ 2 < medium ≤ 180 < large.
	// Zero customer degree (a stub AS) is small, as is a negative
	// degree from a defensive caller.
	cases := []struct {
		degree int
		want   SizeClass
	}{
		{-1, Small}, {0, Small}, {1, Small}, {2, Small},
		{3, Medium}, {100, Medium}, {180, Medium},
		{181, Large}, {10000, Large},
	}
	for _, tc := range cases {
		if got := ClassifySize(tc.degree); got != tc.want {
			t.Errorf("ClassifySize(%d) = %v, want %v", tc.degree, got, tc.want)
		}
	}
}

func TestRunReportEndToEnd(t *testing.T) {
	world, err := GenerateWorld(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = RunReport(context.Background(), &buf, world, ReportOptions{StabilityWeeks: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every table and figure of the evaluation must appear.
	for _, want := range []string{
		"Figure 2", "Figure 4a", "Figure 4b", "Finding 7.0",
		"Figure 5a", "Figure 5b", "Action 4", "Table 1",
		"Finding 8.7", "Figure 6", "Figure 7a", "Figure 7b",
		"Figure 8", "Table 2", "Figure 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunReportSkipStability(t *testing.T) {
	world, err := GenerateWorld(smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunReport(context.Background(), &buf, world, ReportOptions{SkipStability: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skipped") {
		t.Error("skip note missing")
	}
}

func TestComputeMetricsThroughFacade(t *testing.T) {
	world, err := GenerateWorld(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(world)
	if err != nil {
		t.Fatal(err)
	}
	ds := pipe.Dataset()
	ms := ComputeMetrics(ds)
	if len(ms) == 0 {
		t.Fatal("no metrics")
	}
	origTotal := 0
	for _, m := range ms {
		origTotal += m.Originated
	}
	if origTotal != len(ds.PrefixOrigins) {
		t.Errorf("metrics cover %d originations, dataset has %d", origTotal, len(ds.PrefixOrigins))
	}
}
