// Package astopo models the AS-level Internet: autonomous systems, their
// organizations, business relationships (customer-provider and peer-peer),
// the metrics CAIDA derives from them (customer cone, customer degree, AS
// rank), and valley-free (Gao–Rexford) route propagation with pluggable
// per-AS import filters.
//
// The package stands in for three of the paper's inputs at once: the
// CAIDA as2org / as-rel / AS Rank datasets (exported in their file
// formats), and — through the propagation engine — the public BGP view
// (RouteViews/RIS) from which the Internet Health Report derives its
// prefix-origin and transit datasets.
package astopo

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// AS is one autonomous system.
type AS struct {
	ASN   uint32
	OrgID string
	RIR   rpki.RIR
	// CC is the ISO country code of the operating organization.
	CC string

	// Relationship sets, maintained by the Graph. Sorted ascending.
	Providers []uint32
	Customers []uint32
	Peers     []uint32
}

// Org is an organization owning one or more ASes (the as2org view).
type Org struct {
	ID   string
	Name string
	CC   string
	ASNs []uint32
}

// Graph is the AS-level topology: ASes, organizations and relationships.
// Who announces what is not in it; callers keep their originations
// themselves and hand them to the propagator and the prefix2as writer.
// The zero value is not usable; call NewGraph.
//
// Concurrency contract: once a Graph is fully built, any number of
// goroutines may read it concurrently — Propagate, NewPropagator, the
// writers, and every other non-mutating method are
// safe in parallel (the lazily-built dense adjacency is guarded
// internally). Mutations (AddAS, SetProviderCustomer, SetPeer, the Read*
// loaders, and writes to AS field slices) require exclusive access.
type Graph struct {
	ases map[uint32]*AS
	orgs map[string]*Org
	// adjMu guards adj: the canonical CSR adjacency used by Propagate,
	// built lazily on first use and invalidated on topology mutation.
	adjMu sync.Mutex
	adj   *CSR
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{ases: make(map[uint32]*AS), orgs: make(map[string]*Org)}
}

// AddAS registers an AS under an organization, creating the organization
// record on first use. Re-adding an existing ASN returns the existing AS.
func (g *Graph) AddAS(asn uint32, orgID, orgName, cc string, rir rpki.RIR) *AS {
	if a, ok := g.ases[asn]; ok {
		return a
	}
	a := &AS{ASN: asn, OrgID: orgID, RIR: rir, CC: cc}
	g.ases[asn] = a
	g.invalidateAdj()
	o, ok := g.orgs[orgID]
	if !ok {
		o = &Org{ID: orgID, Name: orgName, CC: cc}
		g.orgs[orgID] = o
	}
	o.ASNs = insertSorted(o.ASNs, asn)
	return a
}

// AS returns the AS record for asn, or nil.
func (g *Graph) AS(asn uint32) *AS { return g.ases[asn] }

// Org returns the organization record, or nil.
func (g *Graph) Org(id string) *Org { return g.orgs[id] }

// NumASes returns the number of registered ASes.
func (g *Graph) NumASes() int { return len(g.ases) }

// ASNs returns all ASNs in ascending order.
func (g *Graph) ASNs() []uint32 {
	out := make([]uint32, 0, len(g.ases))
	for asn := range g.ases {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Orgs returns all organizations sorted by ID.
func (g *Graph) Orgs() []*Org {
	out := make([]*Org, 0, len(g.orgs))
	for _, o := range g.orgs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func insertSorted(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// SetProviderCustomer records provider → customer. Both ASes must exist.
func (g *Graph) SetProviderCustomer(provider, customer uint32) error {
	p, c := g.ases[provider], g.ases[customer]
	if p == nil || c == nil {
		return fmt.Errorf("astopo: relationship %d→%d references unknown AS", provider, customer)
	}
	if provider == customer {
		return fmt.Errorf("astopo: AS%d cannot be its own provider", provider)
	}
	p.Customers = insertSorted(p.Customers, customer)
	c.Providers = insertSorted(c.Providers, provider)
	g.invalidateAdj()
	return nil
}

// SetPeer records a settlement-free peering between a and b.
func (g *Graph) SetPeer(a, b uint32) error {
	pa, pb := g.ases[a], g.ases[b]
	if pa == nil || pb == nil {
		return fmt.Errorf("astopo: peering %d—%d references unknown AS", a, b)
	}
	if a == b {
		return fmt.Errorf("astopo: AS%d cannot peer with itself", a)
	}
	pa.Peers = insertSorted(pa.Peers, b)
	pb.Peers = insertSorted(pb.Peers, a)
	g.invalidateAdj()
	return nil
}

func (g *Graph) invalidateAdj() {
	g.adjMu.Lock()
	g.adj = nil
	g.adjMu.Unlock()
}

// CustomerDegree returns the number of direct AS customers — the size
// classifier from Dhamdhere & Dovrolis used by the paper (§6.2).
func (g *Graph) CustomerDegree(asn uint32) int {
	a := g.ases[asn]
	if a == nil {
		return 0
	}
	return len(a.Customers)
}

// WriteASRel writes the CAIDA as-rel format: "p|c|-1" for
// provider-customer and "a|b|0" for peers, one edge per line, with the
// lower ASN first for peer edges.
func (g *Graph) WriteASRel(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# provider|customer|-1 , peer|peer|0"); err != nil {
		return err
	}
	for _, asn := range g.ASNs() {
		a := g.ases[asn]
		for _, c := range a.Customers {
			if _, err := fmt.Fprintf(bw, "%d|%d|-1\n", asn, c); err != nil {
				return err
			}
		}
		for _, p := range a.Peers {
			if asn < p { // emit each peer edge once
				if _, err := fmt.Fprintf(bw, "%d|%d|0\n", asn, p); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadASRel parses the CAIDA as-rel format into an existing graph,
// creating placeholder ASes (org "unknown") for ASNs not yet present. A
// line is "a|b|rel", optionally followed by CAIDA's "|source" field.
func (g *Graph) ReadASRel(r io.Reader) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		a, b, rel, err := parseASRel(text)
		if err != nil {
			return fmt.Errorf("astopo: as-rel line %d: %w", line, err)
		}
		for _, asn := range []uint32{a, b} {
			if g.ases[asn] == nil {
				g.AddAS(asn, fmt.Sprintf("org-unknown-%d", asn), "unknown", "ZZ", rpki.ARIN)
			}
		}
		switch rel {
		case -1:
			err = g.SetProviderCustomer(a, b)
		case 0:
			err = g.SetPeer(a, b)
		default:
			err = fmt.Errorf("unknown relationship %d", rel)
		}
		if err != nil {
			return fmt.Errorf("astopo: as-rel line %d: %w", line, err)
		}
	}
	return scanErr("as-rel", line, sc)
}

// parseASRel parses one as-rel line: two ASNs and a relationship.
func parseASRel(text string) (a, b uint32, rel int, err error) {
	f := strings.Split(text, "|")
	if len(f) != 3 && len(f) != 4 {
		return 0, 0, 0, fmt.Errorf("want a|b|rel, got %d fields", len(f))
	}
	var asn [2]uint32
	for i := range asn {
		n, err := strconv.ParseUint(f[i], 10, 32)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bad ASN %q", f[i])
		}
		asn[i] = uint32(n)
	}
	if rel, err = strconv.Atoi(f[2]); err != nil {
		return 0, 0, 0, fmt.Errorf("bad relationship %q", f[2])
	}
	return asn[0], asn[1], rel, nil
}

// scanErr is sc's error, if any, at the line after the last one read.
func scanErr(format string, line int, sc *bufio.Scanner) error {
	if err := sc.Err(); err != nil {
		return fmt.Errorf("astopo: %s line %d: %w", format, line+1, err)
	}
	return nil
}

// WriteAS2Org writes a simplified CAIDA as2org mapping:
// "asn|org_id|org_name|country", one AS per line.
func (g *Graph) WriteAS2Org(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# asn|org_id|org_name|country"); err != nil {
		return err
	}
	for _, asn := range g.ASNs() {
		a := g.ases[asn]
		o := g.orgs[a.OrgID]
		name := ""
		if o != nil {
			name = o.Name
		}
		if _, err := fmt.Fprintf(bw, "%d|%s|%s|%s\n", asn, a.OrgID, name, a.CC); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePrefix2AS writes origs in the CAIDA prefix2as format,
// "address\tlength\tasn" per origination, in the order given.
func WritePrefix2AS(w io.Writer, origs []Origination) error {
	bw := bufio.NewWriter(w)
	for _, og := range origs {
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\n", og.Prefix.Addr(), og.Prefix.Bits(), og.Origin); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Origination is a (prefix, origin AS) pair.
type Origination struct {
	Prefix netx.Prefix
	Origin uint32
}

// ReadAS2Org parses the simplified as2org format written by WriteAS2Org
// ("asn|org_id|org_name|country"), creating or updating AS and
// organization records. ASes already present keep their relationships.
func (g *Graph) ReadAS2Org(r io.Reader) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		parts := strings.SplitN(text, "|", 4)
		if len(parts) != 4 {
			return fmt.Errorf("astopo: as2org line %d: want 4 fields, got %d", line, len(parts))
		}
		asn64, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return fmt.Errorf("astopo: as2org line %d: %w", line, err)
		}
		asn := uint32(asn64)
		if existing := g.ases[asn]; existing != nil {
			existing.OrgID, existing.CC = parts[1], parts[3]
			o, ok := g.orgs[parts[1]]
			if !ok {
				o = &Org{ID: parts[1], Name: parts[2], CC: parts[3]}
				g.orgs[parts[1]] = o
			}
			o.ASNs = insertSorted(o.ASNs, asn)
			continue
		}
		g.AddAS(asn, parts[1], parts[2], parts[3], rpki.ARIN)
	}
	return scanErr("as2org", line, sc)
}

// ReadPrefix2AS parses the CAIDA prefix2as format
// ("address\tlength\tasn") into originations, in file order, creating
// placeholder ASes for origins the graph lacks.
func (g *Graph) ReadPrefix2AS(r io.Reader) ([]Origination, error) {
	sc := bufio.NewScanner(r)
	line := 0
	var out []Origination
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("astopo: prefix2as line %d: want 3 fields, got %d", line, len(fields))
		}
		prefix, err := netx.ParsePrefix(fields[0] + "/" + fields[1])
		if err != nil {
			return nil, fmt.Errorf("astopo: prefix2as line %d: %w", line, err)
		}
		asn64, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("astopo: prefix2as line %d: %w", line, err)
		}
		asn := uint32(asn64)
		if g.ases[asn] == nil {
			g.AddAS(asn, fmt.Sprintf("org-unknown-%d", asn), "unknown", "ZZ", rpki.ARIN)
		}
		out = append(out, Origination{Prefix: prefix, Origin: asn})
	}
	if err := scanErr("prefix2as", line, sc); err != nil {
		return nil, err
	}
	return out, nil
}
