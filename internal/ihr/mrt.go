package ihr

import (
	"fmt"
	"sort"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/hegemony"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
)

// FromMRT derives the prefix-origin and transit datasets from a
// TABLE_DUMP_V2 RIB archive — the exact data path of the real study,
// which consumes RouteViews/RIS dumps rather than a simulator. Each RIB
// entry contributes one vantage path (the peer's view); origins come
// from the rightmost path element. The AS graph supplies customer
// relationships for the FromCustomer flag; rpkiIx/irrIx may be nil
// (everything NotFound).
func FromMRT(dump *mrt.Dump, g *astopo.Graph, rpkiIx, irrIx *rov.Index, trim float64) (*Dataset, error) {
	if dump == nil {
		return nil, fmt.Errorf("ihr: nil MRT dump")
	}
	if trim == 0 {
		trim = hegemony.DefaultTrim
	}
	validate := func(ix *rov.Index, p netx.Prefix, o uint32) rov.Status {
		if ix == nil {
			return rov.NotFound
		}
		return ix.Validate(p, o)
	}

	// Group paths per (prefix, origin): a prefix can be announced by
	// multiple origins (MOAS), each a distinct pair in the dataset.
	type key struct {
		prefix netx.Prefix
		origin uint32
	}
	paths := make(map[key][][]uint32)
	var order []key
	for _, rec := range dump.Records {
		for _, e := range rec.Entries {
			if len(e.Path) == 0 {
				continue
			}
			origin := e.Path[len(e.Path)-1]
			k := key{rec.Prefix, origin}
			if _, ok := paths[k]; !ok {
				order = append(order, k)
			}
			paths[k] = append(paths[k], e.Path)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].origin != order[j].origin {
			return order[i].origin < order[j].origin
		}
		return order[i].prefix.Compare(order[j].prefix) < 0
	})

	var csr *astopo.CSR
	if g != nil {
		csr = g.CSR()
	}
	ds := &Dataset{}
	for _, k := range order {
		ps := paths[k]
		rpkiS := validate(rpkiIx, k.prefix, k.origin)
		irrS := validate(irrIx, k.prefix, k.origin)
		ds.PrefixOrigins = append(ds.PrefixOrigins, PrefixOrigin{
			Prefix: k.prefix, Origin: k.origin, RPKI: rpkiS, IRR: irrS,
		})
		ds.Visibility.Origs = append(ds.Visibility.Origs, astopo.Origination{Prefix: k.prefix, Origin: k.origin})
		ds.Visibility.Counts = append(ds.Visibility.Counts, int32(len(ps)))
		scores := hegemony.Scores(ps, trim)
		for _, sc := range hegemony.Ranked(scores) {
			if sc.ASN == k.origin {
				continue
			}
			ds.Transits = append(ds.Transits, TransitRow{
				Prefix:       k.prefix,
				Origin:       k.origin,
				Transit:      sc.ASN,
				Hegemony:     sc.Hegemony,
				RPKI:         rpkiS,
				IRR:          irrS,
				FromCustomer: learnedFromCustomer(csr, ps, sc.ASN),
			})
		}
	}
	ds.Visibility.Normalize()
	return ds, nil
}

// learnedFromCustomer reports whether transit learned the route from a
// direct customer on any observed path: in a vantage-first path
// [..., transit, next, ..., origin], "next" is the neighbor the route
// was learned from.
func learnedFromCustomer(c *astopo.CSR, paths [][]uint32, transit uint32) bool {
	if c == nil {
		return false
	}
	for _, path := range paths {
		for i := 0; i < len(path)-1; i++ {
			if path[i] == transit && isCustomer(c, transit, path[i+1]) {
				return true
			}
		}
	}
	return false
}
