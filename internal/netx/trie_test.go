package netx

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestTrieInsertExact(t *testing.T) {
	tr := NewTable[string]()
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
	// An invalid prefix is rejected.
	if tr.Insert(Prefix{}, "x") {
		t.Error("insert of the zero Prefix should fail")
	}
}

func TestTrieCovering(t *testing.T) {
	tr := NewTable[string]()
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
	tr := NewTable[int]()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if got := tr.Covering(nil, MustParsePrefix("11.0.0.0/8")); got != nil {
		t.Errorf("Covering of uncovered prefix = %v, want nil", got)
	}
}

func TestTrieWalkOrderAndReconstruction(t *testing.T) {
	tr := NewTable[int]()
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
	tr := NewTable[int]()
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
		tr := NewTable[Prefix]()
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
		tr := NewTable[int]()
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

// randomTablePrefix draws from two address bases in each family (IPv4,
// IPv6, 4-in-6) at random lengths, sometimes with one address bit
// flipped, so that duplicates, nested chains, near misses and short IPv6
// prefixes covering 4-in-6 ones are all common.
func randomTablePrefix(r *rand.Rand) Prefix {
	var a [16]byte
	switch r.Intn(3) {
	case 0:
		a = [16]byte{10, byte(r.Intn(2))}
	case 1:
		a = [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(2))}
	default:
		a = [16]byte{10: 0xff, 11: 0xff, 12: 10, 13: byte(r.Intn(2))}
	}
	width := 128
	if a[0] == 10 {
		width = 32
	}
	if r.Intn(4) == 0 {
		i := r.Intn(width)
		a[i/8] ^= 0x80 >> (i % 8)
	}
	addr := netip.AddrFrom16(a)
	if width == 32 {
		addr = netip.AddrFrom4([4]byte(a[:4]))
	}
	p, _ := PrefixFrom(addr, r.Intn(width+1))
	return p
}

// checkTable compares tb, which holds value i at ins[i] for every i,
// against linear scans of ins: Covering(q) and Exact(q) for each query,
// then Len and Walk.
func checkTable(tb *Table[int], ins []Prefix, queries []Prefix) error {
	for _, q := range queries {
		var want []int
		for i, p := range ins {
			if p.Covers(q) {
				want = append(want, i)
			}
		}
		// Shortest prefix first; one prefix's values in insertion order.
		slices.SortStableFunc(want, func(a, b int) int { return ins[a].Bits() - ins[b].Bits() })
		if got := tb.Covering(nil, q); !slices.Equal(got, want) {
			return fmt.Errorf("Covering(%s) = %v, linear scan %v", q, got, want)
		}
		var exact []int
		for i, p := range ins {
			if p == q {
				exact = append(exact, i)
			}
		}
		if got := tb.Exact(q); !slices.Equal(got, exact) {
			return fmt.Errorf("Exact(%s) = %v, linear scan %v", q, got, exact)
		}
	}
	if err := checkCursor(tb, queries); err != nil {
		return err
	}
	distinct := map[Prefix][]int{}
	for i, p := range ins {
		distinct[p] = append(distinct[p], i)
	}
	if tb.Len() != len(distinct) {
		return fmt.Errorf("Len = %d, want %d", tb.Len(), len(distinct))
	}
	var prev Prefix
	var err error
	n := 0
	tb.Walk(func(p Prefix, vals []int) bool {
		switch {
		case n > 0 && prev.Compare(p) >= 0:
			err = fmt.Errorf("Walk visits %s after %s", p, prev)
		case !slices.Equal(vals, distinct[p]):
			err = fmt.Errorf("Walk(%s) = %v, want %v", p, vals, distinct[p])
		}
		prev = p
		n++
		return err == nil
	})
	if err == nil && n != len(distinct) {
		err = fmt.Errorf("Walk visited %d prefixes, want %d", n, len(distinct))
	}
	return err
}

// checkCursor checks that one Cursor answers like Covering on the
// queries in ascending order, each asked twice (the prefix-ordered walk),
// and on the queries as given, where a step back or a change of family
// takes the cursor's binary-search fallback. It also checks PrefixOrder
// on the queries against a stable comparator sort.
func checkCursor(tb *Table[int], queries []Prefix) error {
	order := PrefixOrder(len(queries), func(i int) Prefix { return queries[i] })
	want := make([]int32, len(queries))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return queries[a].Compare(queries[b]) })
	if !slices.Equal(order, want) {
		return fmt.Errorf("PrefixOrder = %v, stable sort %v", order, want)
	}
	walk := tb.Cursor()
	for _, i := range order {
		for range 2 {
			if got, want := walk.Covering(nil, queries[i]), tb.Covering(nil, queries[i]); !slices.Equal(got, want) {
				return fmt.Errorf("ascending Cursor.Covering(%s) = %v, Covering %v", queries[i], got, want)
			}
		}
	}
	given := tb.Cursor()
	for _, q := range queries {
		if got, want := given.Covering(nil, q), tb.Covering(nil, q); !slices.Equal(got, want) {
			return fmt.Errorf("Cursor.Covering(%s) in given order = %v, Covering %v", q, got, want)
		}
	}
	return nil
}

// Differential: on random tables mixing IPv4, IPv6 and 4-in-6 prefixes,
// with duplicates and nested chains, and with every round inserting
// after the previous round's reads, the table answers like a linear
// scan of everything inserted.
func TestTableMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable[int]()
		var ins []Prefix
		for round := 0; round < 3; round++ {
			for i := 0; i < 25; i++ {
				p := randomTablePrefix(r)
				tb.Insert(p, len(ins))
				ins = append(ins, p)
			}
			queries := make([]Prefix, 30)
			for i := range queries {
				queries[i] = randomTablePrefix(r)
			}
			if err := checkTable(tb, ins, queries); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The first read after inserts sorts the table. Readers that race to be
// first, and readers after a later Insert, must all see the whole table
// (this test earns its keep under -race).
func TestTableConcurrentFirstReads(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tb := NewTable[int]()
	var ins []Prefix
	queries := make([]Prefix, 64)
	for i := range queries {
		queries[i] = randomTablePrefix(r)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			p := randomTablePrefix(r)
			tb.Insert(p, len(ins))
			ins = append(ins, p)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = checkTable(tb, ins, queries)
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d reader %d: %v", round, g, err)
			}
		}
	}
}

// FuzzPrefixTable builds a table from fuzz bytes and checks it against
// linear scans. Each record is a tag byte, an address (4 bytes for
// IPv4 and 4-in-6, 16 for IPv6) and a length byte; the tag's low two
// bits pick the family and bit 2 makes the record a query, checked
// against everything inserted so far, instead of an insert.
func FuzzPrefixTable(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 8, 0, 10, 1, 0, 0, 16, 4, 10, 1, 2, 0, 24})
	f.Add([]byte{1, 0x20, 1, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8,
		2, 10, 0, 0, 0, 104, 6, 10, 0, 0, 0, 120, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 104})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTable[int]()
		var ins []Prefix
		for len(data) > 0 {
			tag := data[0]
			n := 4
			if tag&3 == 1 {
				n = 16
			}
			if len(data) < 2+n {
				return
			}
			var addr netip.Addr
			switch tag & 3 {
			case 1:
				addr = netip.AddrFrom16([16]byte(data[1:17]))
			case 2, 3:
				addr = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: data[1], 13: data[2], 14: data[3], 15: data[4]})
			default:
				addr = netip.AddrFrom4([4]byte(data[1:5]))
			}
			p, err := PrefixFrom(addr, int(data[1+n])%(addr.BitLen()+1))
			if err != nil {
				t.Fatal(err)
			}
			data = data[2+n:]
			if tag&4 != 0 {
				if err := checkTable(tb, ins, []Prefix{p}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			tb.Insert(p, len(ins))
			ins = append(ins, p)
		}
		if err := checkTable(tb, ins, ins); err != nil {
			t.Fatal(err)
		}
	})
}

// PrefixOrder places zero values first, then IPv4 by packed key, then
// 128-bit prefixes (IPv6 and 4-in-6) by the comparator tail, equal
// prefixes by index.
func TestPrefixOrderMixedFamilies(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("2001:db8::/32"), MustParsePrefix("10.0.0.0/8"), {},
		MustParsePrefix("::ffff:10.0.0.0/104"), MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.0.0/8"), {}, MustParsePrefix("2001:db8::/32"), MustParsePrefix("0.0.0.0/0"),
	}
	got := PrefixOrder(len(ps), func(i int) Prefix { return ps[i] })
	want := []int32{2, 6, 8, 1, 5, 4, 3, 0, 7}
	if !slices.Equal(got, want) {
		t.Errorf("PrefixOrder = %v, want %v", got, want)
	}
}
