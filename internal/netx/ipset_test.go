package netx

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func TestIPSet4Basic(t *testing.T) {
	var s IPSet4
	if s.Size() != 0 {
		t.Errorf("empty size = %d", s.Size())
	}
	s.AddPrefix(MustParsePrefix("10.0.0.0/8"))
	if s.Size() != 1<<24 {
		t.Errorf("size = %d", s.Size())
	}
	// Overlapping more-specific adds nothing.
	s.AddPrefix(MustParsePrefix("10.1.0.0/16"))
	if s.Size() != 1<<24 {
		t.Errorf("size after nested add = %d", s.Size())
	}
	// Disjoint prefix adds fully.
	s.AddPrefix(MustParsePrefix("192.0.2.0/24"))
	if s.Size() != 1<<24+256 {
		t.Errorf("size after disjoint add = %d", s.Size())
	}
	// v6 ignored.
	s.AddPrefix(MustParsePrefix("2001:db8::/32"))
	if s.Size() != 1<<24+256 {
		t.Errorf("size after v6 add = %d", s.Size())
	}
}

func TestIPSet4AdjacentMerge(t *testing.T) {
	var s IPSet4
	s.AddPrefix(MustParsePrefix("10.0.0.0/9"))
	s.AddPrefix(MustParsePrefix("10.128.0.0/9"))
	if s.Size() != 1<<24 {
		t.Errorf("adjacent halves size = %d, want %d", s.Size(), 1<<24)
	}
	if len(s.ranges) != 1 {
		t.Errorf("adjacent halves left %d ranges, want 1", len(s.ranges))
	}
}

func TestIPSet4Intersect(t *testing.T) {
	var a, b IPSet4
	a.AddPrefix(MustParsePrefix("10.0.0.0/8"))
	b.AddPrefix(MustParsePrefix("10.255.0.0/16"))
	b.AddPrefix(MustParsePrefix("11.0.0.0/16"))
	if got := a.IntersectSize(&b); got != 1<<16 {
		t.Errorf("intersect = %d, want %d", got, 1<<16)
	}
	if got := b.IntersectSize(&a); got != 1<<16 {
		t.Errorf("intersect should be symmetric, got %d", got)
	}
	var empty IPSet4
	if got := a.IntersectSize(&empty); got != 0 {
		t.Errorf("intersect with empty = %d", got)
	}
}

// Property: union size equals brute-force bitmap count for prefixes
// inside a /16 sandbox.
func TestIPSet4SizeMatchesBruteForce(t *testing.T) {
	base := MustParsePrefix("192.168.0.0/16")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var subs []Prefix
		covered := make(map[uint32]bool)
		for i := 0; i < 12; i++ {
			bits := 20 + r.Intn(13) // /20../32 inside the /16
			sub, err := base.NthSubprefix(bits, uint64(r.Intn(16)))
			if err != nil {
				return false
			}
			subs = append(subs, sub)
			a4 := sub.Addr().As4()
			start := binary.BigEndian.Uint32(a4[:])
			for a := uint64(0); a < uint64(sub.AddressCount()); a++ {
				covered[start+uint32(a)] = true
			}
		}
		// The same ranges in random, sorted and reversed order, and with
		// duplicate starts (each network again one bit longer, covering
		// nothing new); all at once and in two batches, the second
		// appended to the first's normalized ranges.
		sorted := slices.Clone(subs)
		slices.SortFunc(sorted, Prefix.Compare)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		dupStarts := slices.Clone(subs)
		for _, p := range subs {
			if p.Bits() < 32 {
				q, _ := PrefixFrom(p.Addr(), p.Bits()+1)
				dupStarts = append(dupStarts, q)
			}
		}
		for _, order := range [][]Prefix{subs, sorted, reversed, dupStarts} {
			var once, twice IPSet4
			for i, p := range order {
				once.AddPrefix(p)
				twice.AddPrefix(p)
				if i == len(order)/2 {
					twice.Size()
				}
			}
			if once.Size() != uint64(len(covered)) || twice.Size() != uint64(len(covered)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: IntersectSize(s, s) == Size(s).
func TestIPSet4SelfIntersect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s IPSet4
		for i := 0; i < 10; i++ {
			var a [4]byte
			r.Read(a[:])
			bits := 8 + r.Intn(25)
			p, _ := PrefixFrom(netip.AddrFrom4(a), bits)
			s.AddPrefix(p)
		}
		return s.IntersectSize(&s) == s.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
