package hegemony

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestAccumulatorMatchesScores is the differential gate: for random path
// sets (with empty paths, single-hop paths, prepending duplicates, and
// varied trims) the Accumulator must reproduce Ranked(Scores(...))
// bit-for-bit, fed ASNs (AddPath) and fed slots (AddIndexPath). The
// index accumulator's symbol table is shuffled, so slot order is not
// ASN order and ties must still rank by ASN.
func TestAccumulatorMatchesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acc := NewAccumulator()
	asns := make([]uint32, 40)
	slotOf := map[uint32]int32{}
	for i, j := range rng.Perm(len(asns)) {
		asns[i] = uint32(1 + j)
		slotOf[asns[i]] = int32(i)
	}
	idx := NewIndexAccumulator(asns)
	var slotPath []int32
	for trial := 0; trial < 200; trial++ {
		nPaths := rng.Intn(30)
		paths := make([][]uint32, 0, nPaths)
		for i := 0; i < nPaths; i++ {
			plen := rng.Intn(7)
			p := make([]uint32, 0, plen+2)
			for j := 0; j < plen; j++ {
				asn := uint32(1 + rng.Intn(40))
				p = append(p, asn)
				if rng.Intn(4) == 0 { // prepend
					p = append(p, asn)
				}
			}
			paths = append(paths, p)
		}
		trim := []float64{0, 0.1, 0.25, 0.5, 0.9}[rng.Intn(5)]

		acc.Reset()
		idx.Reset()
		for _, p := range paths {
			acc.AddPath(p)
			slotPath = slotPath[:0]
			for _, asn := range p {
				slotPath = append(slotPath, slotOf[asn])
			}
			idx.AddIndexPath(slotPath)
		}
		want := Ranked(Scores(paths, trim))
		for name, a := range map[string]*Accumulator{"AddPath": acc, "AddIndexPath": idx} {
			got := a.Ranked(trim)
			if len(got) != len(want) {
				t.Fatalf("%s trial %d trim %v: %d scores, want %d\n got %v\nwant %v",
					name, trial, trim, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].ASN != want[i].ASN || got[i].Hegemony != want[i].Hegemony {
					t.Fatalf("%s trial %d trim %v: score[%d] = %v, want %v", name, trial, trim, i, got[i], want[i])
				}
				if a == idx && asns[a.RankedSlot(i)] != got[i].ASN {
					t.Fatalf("%s trial %d: RankedSlot(%d) is AS%d, score is AS%d", name, trial, i, asns[a.RankedSlot(i)], got[i].ASN)
				}
			}
		}
	}
}

// accumulatorWithHistory returns an Accumulator that has scored n
// distinct ASes on an earlier destination, as a build worker has after
// a few thousand floods.
func accumulatorWithHistory(n int) *Accumulator {
	acc := NewAccumulator()
	for asn := uint32(1); asn <= uint32(n); asn++ {
		acc.AddPath([]uint32{asn + 1, asn})
	}
	return acc
}

// What a worker scored before a Reset is neither ranked nor walked: after
// 10k ASes of history, a 3-hop destination ranks exactly as it does on
// its own, from an unused Accumulator and through Scores.
func TestAccumulatorRankedAfterHistory(t *testing.T) {
	// 20 and 30 are in the history; 70001 and 70002 are not.
	paths := [][]uint32{{70001, 20, 30}, {70002, 20, 30}, {70001, 30}}
	want := Ranked(Scores(paths, DefaultTrim))
	fresh := NewAccumulator() // no Reset before its first destination
	used := accumulatorWithHistory(10000)
	used.Reset()
	for name, acc := range map[string]*Accumulator{"fresh": fresh, "after history": used} {
		for _, p := range paths {
			acc.AddPath(p)
		}
		if got := acc.Ranked(DefaultTrim); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Ranked = %v, want %v", name, got, want)
		}
		if len(acc.touched) != 2 {
			t.Errorf("%s: Ranked walks %d ASes, the destination's paths cross 2", name, len(acc.touched))
		}
	}
}

func BenchmarkAccumulatorRankedAfterHistory(b *testing.B) {
	acc := accumulatorWithHistory(10000)
	paths := [][]uint32{{70001, 20, 30}, {70002, 20, 30}, {70001, 30}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, p := range paths {
			acc.AddPath(p)
		}
		if got := acc.Ranked(DefaultTrim); len(got) != 2 {
			b.Fatalf("Ranked = %v", got)
		}
	}
}

func TestIndicatorTrimmedMeanEdgeCases(t *testing.T) {
	// Tiny n where the trimmed window collapses to the plain mean.
	for n := 1; n <= 12; n++ {
		for c := 0; c <= n; c++ {
			for _, trim := range []float64{0, 0.1, 0.4999, 0.5, 2} {
				xs := make([]float64, n)
				for i := 0; i < c; i++ {
					xs[i] = 1
				}
				want := refTrimmedMean(xs, trim)
				got := indicatorTrimmedMean(c, n, trim)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("n=%d c=%d trim=%v: got %v want %v", n, c, trim, got, want)
				}
			}
		}
	}
}

// refTrimmedMean mirrors stats.TrimmedMean for 0/1 inputs.
func refTrimmedMean(xs []float64, trim float64) float64 {
	if trim <= 0 {
		return mean(xs)
	}
	if trim >= 0.5 {
		trim = 0.49
	}
	s := append([]float64(nil), xs...)
	// xs is zeros-then-ones already reversed; sort ascending.
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	k := int(math.Floor(trim * float64(len(s))))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return mean(xs)
	}
	return mean(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
