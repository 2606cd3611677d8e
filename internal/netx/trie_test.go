package netx

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTrieInsertExact(t *testing.T) {
	tr := NewTrie[string](false)
	p := MustParsePrefix("10.0.0.0/8")
	if !tr.Insert(p, "a") {
		t.Fatal("insert failed")
	}
	if !tr.Insert(p, "b") {
		t.Fatal("second insert failed")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1 (two values, one prefix)", tr.Len())
	}
	got := tr.Exact(p)
	if !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("Exact = %v", got)
	}
	if tr.Exact(MustParsePrefix("10.0.0.0/9")) != nil {
		t.Error("Exact on absent prefix should be nil")
	}
	// Wrong family rejected.
	if tr.Insert(MustParsePrefix("2001:db8::/32"), "x") {
		t.Error("v6 insert into v4 trie should fail")
	}
}

func TestTrieCovering(t *testing.T) {
	tr := NewTrie[string](false)
	for _, e := range []struct{ p, v string }{
		{"0.0.0.0/0", "default"},
		{"10.0.0.0/8", "ten8"},
		{"10.1.0.0/16", "ten1-16"},
		{"10.1.2.0/24", "ten12-24"},
		{"192.0.2.0/24", "doc"},
	} {
		tr.Insert(MustParsePrefix(e.p), e.v)
	}
	tests := []struct {
		q    string
		want []string
	}{
		{"10.1.2.0/24", []string{"default", "ten8", "ten1-16", "ten12-24"}},
		{"10.1.2.128/25", []string{"default", "ten8", "ten1-16", "ten12-24"}},
		{"10.1.0.0/16", []string{"default", "ten8", "ten1-16"}},
		{"10.2.0.0/16", []string{"default", "ten8"}},
		{"203.0.113.0/24", []string{"default"}},
		{"192.0.2.0/23", []string{"default"}}, // less specific than stored /24
	}
	for _, tt := range tests {
		got := tr.Covering(nil, MustParsePrefix(tt.q))
		if !slices.Equal(got, tt.want) {
			t.Errorf("Covering(%s) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestTrieCoveringNotFound(t *testing.T) {
	tr := NewTrie[int](false)
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if got := tr.Covering(nil, MustParsePrefix("11.0.0.0/8")); got != nil {
		t.Errorf("Covering of uncovered prefix = %v, want nil", got)
	}
}

func TestTrieWalkOrderAndReconstruction(t *testing.T) {
	tr := NewTrie[int](false)
	ins := []string{"10.0.0.0/8", "10.1.0.0/16", "0.0.0.0/0", "192.0.2.0/24", "10.1.128.0/17"}
	for i, s := range ins {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []string
	tr.Walk(func(p Prefix, vals []int) bool {
		got = append(got, p.String())
		return true
	})
	if len(got) != len(ins) {
		t.Fatalf("walk visited %d prefixes, want %d: %v", len(got), len(ins), got)
	}
	for _, s := range ins {
		if !slices.Contains(got, MustParsePrefix(s).String()) {
			t.Errorf("walk missing %s", s)
		}
	}
	// Early stop.
	n := 0
	tr.Walk(func(Prefix, []int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early-stopped walk visited %d, want 2", n)
	}
}

func TestTrieWalkV6Reconstruction(t *testing.T) {
	tr := NewTrie[int](true)
	want := []string{"2001:db8::/32", "2001:db8:5::/48", "::/0"}
	for i, s := range want {
		tr.Insert(MustParsePrefix(s), i)
	}
	seen := map[string]bool{}
	tr.Walk(func(p Prefix, _ []int) bool { seen[p.String()] = true; return true })
	for _, s := range want {
		if !seen[MustParsePrefix(s).String()] {
			t.Errorf("v6 walk missing %s (saw %v)", s, seen)
		}
	}
}

func TestTableDualFamily(t *testing.T) {
	tb := NewTable[string]()
	tb.Insert(MustParsePrefix("10.0.0.0/8"), "v4")
	tb.Insert(MustParsePrefix("2001:db8::/32"), "v6")
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
	if got := tb.Covering(nil, MustParsePrefix("10.1.0.0/16")); !slices.Equal(got, []string{"v4"}) {
		t.Errorf("v4 covering = %v", got)
	}
	if got := tb.Covering(nil, MustParsePrefix("2001:db8:1::/48")); !slices.Equal(got, []string{"v6"}) {
		t.Errorf("v6 covering = %v", got)
	}
	if got := tb.Covering(nil, MustParsePrefix("2001:db9::/40")); got != nil {
		t.Errorf("unrelated v6 covering = %v, want nil", got)
	}
	var n int
	tb.Walk(func(Prefix, []string) bool { n++; return true })
	if n != 2 {
		t.Errorf("table walk visited %d, want 2", n)
	}
	// Early-stop across families.
	n = 0
	tb.Walk(func(Prefix, []string) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop table walk visited %d, want 1", n)
	}
	if got := tb.Exact(MustParsePrefix("10.0.0.0/8")); !slices.Equal(got, []string{"v4"}) {
		t.Errorf("table Exact = %v", got)
	}
}

// Property: for random prefix sets, Covering(q) equals the brute-force scan
// of all inserted prefixes that cover q, in shortest-first order.
func TestTrieCoveringMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := NewTrie[Prefix](false)
		var all []Prefix
		for i := 0; i < 40; i++ {
			p := randomPrefix4(r)
			tr.Insert(p, p)
			all = append(all, p)
		}
		q := randomPrefix4(r)
		got := tr.Covering(nil, q)
		var want []Prefix
		for _, p := range all {
			if p.Covers(q) {
				want = append(want, p)
			}
		}
		slices.SortStableFunc(want, func(a, b Prefix) int { return a.Bits() - b.Bits() })
		slices.SortStableFunc(got, func(a, b Prefix) int { return a.Bits() - b.Bits() })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every inserted prefix is found by Exact and by Walk.
func TestTrieInsertFindProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := NewTrie[int](true)
		set := map[Prefix]bool{}
		for i := 0; i < 30; i++ {
			p := randomPrefix6(r)
			tr.Insert(p, i)
			set[p] = true
		}
		if tr.Len() != len(set) {
			return false
		}
		for p := range set {
			if tr.Exact(p) == nil {
				return false
			}
		}
		walked := map[Prefix]bool{}
		tr.Walk(func(p Prefix, _ []int) bool { walked[p] = true; return true })
		if len(walked) != len(set) {
			return false
		}
		for p := range set {
			if !walked[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
