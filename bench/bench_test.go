package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestDeclarationsMatchBenchmarkJSON keeps the harness's workload and
// metric sets equal to the ones BENCHMARK.json declares: report() only
// prints runs that match spec.go, so this closes the loop.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}

	var gotW []workloadSpec
	for _, w := range file.Workloads {
		gotW = append(gotW, workloadSpec{w.Name, w.Why})
	}
	if !reflect.DeepEqual(gotW, workloads) {
		t.Errorf("workloads differ:\n json %v\n code %v", gotW, workloads)
	}
	var gotE, wantE, gotL, wantL []metricSpec
	for _, m := range file.EndToEnd {
		gotE = append(gotE, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range endToEnd {
		wantE = append(wantE, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range file.PerLayer {
		gotL = append(gotL, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, m := range perLayer {
		wantL = append(wantL, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", gotE, wantE)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("per_layer differs:\n json %v\n code %v", gotL, wantL)
	}
}

func TestDeclarationsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(runners) != len(workloads) {
		t.Errorf("%d runners for %d workloads", len(runners), len(workloads))
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		use(m.Name)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("end-to-end metrics lack setup_s")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
		if m.Moves != "" && !e2e[m.Moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, m.Moves)
		}
		for _, w := range m.On {
			if _, ok := runners[w]; !ok {
				t.Errorf("%s is on unknown workload %q", m.Name, w)
			}
		}
	}
}

func TestDeclaredFillsOffPathLayersWithZero(t *testing.T) {
	specs := []metricSpec{{Name: "a", Unit: "s", On: []string{wScan}}, {Name: "b", Unit: "us"}}
	got, err := declared(wScan, specs, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || got["a"].Value != 1.5 || got["b"] != (metricValue{2, "us"}) {
		t.Fatalf("on path: %v, %v", got, err)
	}
	got, err = declared(wDirect, specs, map[string]float64{"b": 2})
	if err != nil || got["a"] != (metricValue{0, "s"}) {
		t.Fatalf("off path: %v, %v", got, err)
	}
	if _, err := declared(wScan, specs, map[string]float64{"b": 2}); err == nil {
		t.Error("a missing on-path metric was accepted")
	}
	if _, err := declared(wDirect, specs, map[string]float64{"a": 1, "b": 2}); err == nil {
		t.Error("an off-path measurement was accepted")
	}
	if _, err := declared(wDirect, specs, map[string]float64{"b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestQuantileAndSummary(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.9: 46, 0.99: 49.6, 1: 50} {
		if got := quantile(sorted, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is a number")
	}
	// One stalled window must not move the run's number.
	got := summarize([]float64{140, 139, 900, 141, 138})
	if want := (summary{Median: 140, Q1: 139, Q3: 141, N: 5}); got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
}

func TestKarpFlatt(t *testing.T) {
	for _, c := range []struct {
		speedup float64
		p       int
		want    float64
	}{
		{2, 2, 0},                   // perfect scaling: nothing serial
		{1, 2, 1},                   // no scaling: everything serial
		{1.07, 2, 0.86915887850467}, // the committed workers=2 build: 7% faster
		{4, 8, 1.0 / 7},
	} {
		if got := karpFlatt(c.speedup, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("karpFlatt(%v, %d) = %v, want %v", c.speedup, c.p, got, c.want)
		}
	}
	if !math.IsNaN(karpFlatt(1, 1)) {
		t.Error("serial fraction on one processor is a number")
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping: cover
	// 40, not 50) and 60..70; the second child has its own child 25..45.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "b1", Start: 25, End: 45, Parent: 2},
	}
	if got, want := selfTimes(spans), []int64{50, 20, 10, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	asns := make([]uint32, 3000)
	for i := range asns {
		asns[i] = uint32(100 + i)
	}
	a, b, other := mixStream(7, 1, asns), mixStream(7, 1, asns), mixStream(8, 1, asns)
	same, differs := true, false
	keys := map[string]bool{}
	for i := 0; i < 5000; i++ {
		ra, rb, ro := a(), b(), other()
		same = same && ra == rb
		differs = differs || ra != ro
		keys[ra.path] = true
	}
	if !same || !differs {
		t.Errorf("same seed replays: %v; another seed differs: %v", same, differs)
	}
	if len(keys) > 2*hotKeys+3 {
		t.Errorf("%d distinct paths exceed the hot set", len(keys))
	}

	paths := []string{"/a", "/b", "/c", "/d", "/e"}
	asked := map[string]int{}
	for c := 0; c < 2; c++ {
		s := scanStream(paths, c, 2)
		for i := 0; i < 3-c; i++ { // 3 + 2 requests: one full pass
			asked[s().path]++
		}
	}
	for _, p := range paths {
		if asked[p] != 1 {
			t.Errorf("scan asked %s %d times in one pass", p, asked[p])
		}
	}
}
