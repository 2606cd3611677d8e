// Package ihr rebuilds the two Internet Health Report datasets the paper
// consumes (§5.3): the prefix-origin dataset (routed prefix-origin pairs
// with their RPKI and IRR statuses) and the transit dataset (per
// prefix-origin, the transit ASes with their AS hegemony scores).
//
// The real IHR derives these from RouteViews/RIS BGP tables; here they
// are derived the same way from the simulated BGP view: Gao–Rexford
// propagation over the AS topology, observed from a set of vantage-point
// ASes (the collector peers), with each network's route filtering policy
// applied at import time.
package ihr

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/hegemony"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/parallel"
	"manrsmeter/internal/rov"
)

// Flood accounting: nodes per flood is what a build pays per tree key,
// readable from /metrics as the ratio of the two.
var (
	mFloods = obsv.NewCounter("ihr_floods_total",
		"Route propagations run by dataset builds, one per tree key.")
	mFloodNodes = obsv.NewCounter("ihr_flood_nodes_total",
		"Routes settled by those propagations, summed over ASes.")
)

// Policy is one AS's route filtering behavior.
type Policy struct {
	// DropRPKIInvalid models deployed Route Origin Validation: announcements
	// whose RPKI status is Invalid or Invalid-length are rejected at import.
	DropRPKIInvalid bool
	// DropIRRInvalidCustomers models IRR-based customer filtering:
	// announcements from customers whose IRR status is Invalid (wrong
	// origin) are rejected. Invalid-length is accepted, matching the
	// paper's treatment of de-aggregation (§3).
	DropIRRInvalidCustomers bool
	// IRRFilterMissRate is the fraction of invalid customer announcements
	// that slip through the IRR filter anyway — prefix-list filtering is
	// built from as-sets that go stale, so real deployments leak (§3,
	// §10: operators cite "complicated business relationships and
	// outdated equipment"). Misses are deterministic per (importer,
	// prefix). Zero means a perfect filter; ROV has no miss rate because
	// routers enforce it automatically.
	IRRFilterMissRate float64
}

// filterMisses reports whether the importer's IRR filter misses this
// prefix, using an FNV hash so the decision is stable across runs.
func filterMisses(importer uint32, prefix netx.Prefix, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := fnv.New32a()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], importer)
	h.Write(b[:])
	h.Write([]byte(prefix.String()))
	return float64(h.Sum32()%1000) < rate*1000
}

// PrefixOrigin is one row of the prefix-origin dataset.
type PrefixOrigin struct {
	Prefix netx.Prefix
	Origin uint32
	RPKI   rov.Status
	IRR    rov.Status
}

// TransitRow is one row of the transit dataset: transit AS Transit
// carries traffic toward (Prefix, Origin) with the given hegemony.
type TransitRow struct {
	Prefix   netx.Prefix
	Origin   uint32
	Transit  uint32
	Hegemony float64
	RPKI     rov.Status
	IRR      rov.Status
	// FromCustomer reports whether Transit learned this route from a
	// direct customer (the Action 1 denominator, Formula 6).
	FromCustomer bool
}

// Config parameterizes dataset construction.
type Config struct {
	Graph *astopo.Graph
	// RPKI and IRR classify each (prefix, origin); either may be nil,
	// meaning "no registry" (every pair NotFound).
	RPKI *rov.Index
	IRR  *rov.Index
	// Policies maps ASN → filtering policy; absent ASes filter nothing.
	Policies map[uint32]Policy
	// VantagePoints are the collector-peer ASes whose paths are observed.
	VantagePoints []uint32
	// Trim is the hegemony trimming fraction; zero means
	// hegemony.DefaultTrim.
	Trim float64
	// KeepInvisible includes prefix-origin pairs seen by no vantage point.
	// The real IHR cannot see them; the impact analysis (§9.4) relies on
	// that censoring, so the default is false.
	KeepInvisible bool
	// Originations overrides the set of announcements to build from; nil
	// means every origination currently in the graph. Snapshot views use
	// this to build historical datasets without mutating the graph.
	Originations []astopo.Origination
	// Workers bounds the goroutines used for propagation and row
	// construction; ≤ 0 means one per CPU. The dataset is byte-identical
	// for every worker count.
	Workers int
}

// Dataset is the pair of IHR views plus the route trees they came from.
type Dataset struct {
	PrefixOrigins []PrefixOrigin
	Transits      []TransitRow
	// Visibility counts how many vantage points saw each prefix-origin.
	Visibility Visibility
}

// Visibility is the compact per-origination vantage-point count: two
// parallel slices sorted by (origin, prefix), queried by binary search.
// At ~1M originations the map it replaces cost ~50 bytes/entry of
// overhead; this form is also what the durable codec persists.
type Visibility struct {
	Origs  []astopo.Origination
	Counts []int32
}

// Len returns the number of originations recorded.
func (v Visibility) Len() int { return len(v.Origs) }

// Count returns how many vantage points saw og (0 when unrecorded).
func (v Visibility) Count(og astopo.Origination) int {
	lo, hi := 0, len(v.Origs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if visLess(v.Origs[mid], og) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.Origs) && v.Origs[lo] == og {
		return int(v.Counts[lo])
	}
	return 0
}

func visLess(a, b astopo.Origination) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Prefix.Compare(b.Prefix) < 0
}

// Normalize sorts the parallel slices by (origin, prefix) and collapses
// duplicate originations (which necessarily carry equal counts), so
// Count's binary search is valid for any input order.
func (v *Visibility) Normalize() {
	sorted := true
	for i := 1; i < len(v.Origs); i++ {
		if visLess(v.Origs[i], v.Origs[i-1]) {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Sort(visByOrig{v})
	}
	w := 0
	for i := range v.Origs {
		if i > 0 && v.Origs[i] == v.Origs[w-1] {
			continue
		}
		v.Origs[w], v.Counts[w] = v.Origs[i], v.Counts[i]
		w++
	}
	v.Origs, v.Counts = v.Origs[:w], v.Counts[:w]
}

type visByOrig struct{ v *Visibility }

func (s visByOrig) Len() int           { return len(s.v.Origs) }
func (s visByOrig) Less(i, j int) bool { return visLess(s.v.Origs[i], s.v.Origs[j]) }
func (s visByOrig) Swap(i, j int) {
	s.v.Origs[i], s.v.Origs[j] = s.v.Origs[j], s.v.Origs[i]
	s.v.Counts[i], s.v.Counts[j] = s.v.Counts[j], s.v.Counts[i]
}

// treeKey identifies one equivalence class of propagations: originations
// whose route trees are provably identical share one key, one
// propagation, and one derived row template. Beyond the origin, the
// import filters only read two bits of a pair's statuses — "RPKI is
// invalid" (either kind) and "IRR status is InvalidASN" — and only the
// InvalidASN-IRR branch consults the announced prefix (the deterministic
// filter-miss hash). So:
//
//   - irr == InvalidASN: prefix-sensitive; group by the full
//     (origin, rpki, irr) statuses exactly as a sequential walk would,
//     seeding the filter with the first-appearing pair's prefix.
//   - otherwise RPKI-invalid: one class per origin (both invalid kinds
//     and every non-InvalidASN IRR status behave identically).
//   - otherwise (or no policies at all): the benign class — the filter
//     provably accepts every edge, so propagation runs filterless.
type treeKey struct {
	origin uint32
	class  uint8 // 0 benign, 1 rpki-invalid, 2 irr-invalid-asn
	rpki   rov.Status
	irr    rov.Status
}

const (
	classBenign   = 0
	classRPKIInv  = 1
	classIRRInvAS = 2
)

func makeTreeKey(origin uint32, rpkiS, irrS rov.Status, havePolicies bool) treeKey {
	if !havePolicies {
		return treeKey{origin: origin, class: classBenign}
	}
	if irrS == rov.InvalidASN {
		return treeKey{origin: origin, class: classIRRInvAS, rpki: rpkiS, irr: irrS}
	}
	if rpkiS.IsInvalid() {
		return treeKey{origin: origin, class: classRPKIInv}
	}
	return treeKey{origin: origin, class: classBenign}
}

// BuildCtx constructs the dataset for every origination in the graph,
// with cancellation and panic isolation threaded through every fan-out
// stage: once ctx is done no new originations are
// classified, no new trees are propagated and no new rows are derived,
// and the build returns the cancellation cause instead of a partial
// dataset. A panic in any stage surfaces as a *parallel.PanicError.
func BuildCtx(ctx context.Context, cfg Config) (*Dataset, error) {
	return build(ctx, cfg, true)
}

// build is BuildCtx. vpOnly false floods every AS instead of only what
// the vantage points can see: the slow reference the tests compare with.
func build(ctx context.Context, cfg Config, vpOnly bool) (*Dataset, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("ihr: Config.Graph is required")
	}
	if len(cfg.VantagePoints) == 0 {
		return nil, fmt.Errorf("ihr: at least one vantage point is required")
	}
	trim := cfg.Trim
	if trim == 0 {
		trim = hegemony.DefaultTrim
	}
	validate := func(ix *rov.Index, p netx.Prefix, o uint32) rov.Status {
		if ix == nil {
			return rov.NotFound
		}
		return ix.Validate(p, o)
	}

	origs := cfg.Originations
	if origs == nil {
		origs = cfg.Graph.Originations()
	}

	// Stage 1: classify every origination. Validation is a pure lookup
	// against immutable indexes, so it fans out safely.
	type status struct{ rpki, irr rov.Status }
	statuses := make([]status, len(origs))
	err := parallel.ForEachCtx(ctx, len(origs), cfg.Workers, func(i int) {
		og := origs[i]
		statuses[i] = status{
			rpki: validate(cfg.RPKI, og.Prefix, og.Origin),
			irr:  validate(cfg.IRR, og.Prefix, og.Origin),
		}
	})
	if err != nil {
		return nil, fmt.Errorf("ihr: classify originations: %w", err)
	}

	// Stage 2: group originations into tree-equivalence classes (see
	// treeKey). Keys are collected in first-appearance order so the
	// representative origination (whose prefix seeds the prefix-sensitive
	// filters) matches what a sequential walk would pick.
	havePolicies := len(cfg.Policies) > 0
	keyIdx := make([]int32, len(origs))
	slot := make(map[treeKey]int32)
	var reps []int32 // index of the representative origination per key
	for i, og := range origs {
		key := makeTreeKey(og.Origin, statuses[i].rpki, statuses[i].irr, havePolicies)
		s, ok := slot[key]
		if !ok {
			s = int32(len(reps))
			slot[key] = s
			reps = append(reps, int32(i))
		}
		keyIdx[i] = s
	}

	// Stage 3: per key — propagate, walk the vantage paths, score
	// hegemony, and reduce to a compact row template. Everything a row
	// needs beyond the (Prefix, Origin, RPKI, IRR) labels depends only on
	// the key, so the route tree itself is worker scratch: each worker
	// owns one Propagator and one hegemony Accumulator and reuses them
	// across its whole index range, keeping per-worker memory bounded by
	// one tree regardless of how many keys the world has. Routes are read
	// only at the vantage points and at the transits on their paths, so
	// each flood is restricted to the vantage points' need-set, computed
	// once and shared read-only.
	type transitTpl struct {
		transit      uint32
		hegemony     float64
		fromCustomer bool
	}
	type keyTemplate struct {
		seen     int32
		transits []transitTpl
	}
	templates := make([]keyTemplate, len(reps))
	csr := cfg.Graph.CSR()
	vpIdx := make([]int32, 0, len(cfg.VantagePoints))
	for _, v := range cfg.VantagePoints {
		if vi, ok := csr.Intern.Index(v); ok {
			vpIdx = append(vpIdx, vi)
		}
	}
	var need *astopo.NeedSet
	if vpOnly {
		need = csr.NeedSet(vpIdx)
	}
	workers := parallel.Workers(cfg.Workers, len(reps))
	chunks := workers * 4
	if chunks > len(reps) {
		chunks = len(reps)
	}
	err = parallel.ForEachCtx(ctx, chunks, workers, func(chunk int) {
		prop := astopo.NewCSRPropagator(csr)
		acc := hegemony.NewAccumulator()
		var pathBuf []uint32
		floods, settled := 0, 0
		defer func() {
			mFloods.Add(int64(floods))
			mFloodNodes.Add(int64(settled))
		}()
		lo := chunk * len(reps) / chunks
		hi := (chunk + 1) * len(reps) / chunks
		for s := lo; s < hi; s++ {
			if ctx.Err() != nil {
				return
			}
			rep := reps[s]
			og := origs[rep]
			st := statuses[rep]
			var filter astopo.ImportFilter
			if makeTreeKey(og.Origin, st.rpki, st.irr, havePolicies).class != classBenign {
				filter = makeFilter(csr, cfg.Policies, st.rpki, st.irr)
			}
			tree := prop.PropagateTo(og.Prefix, og.Origin, filter, need)
			floods++
			settled += prop.Settled()
			acc.Reset()
			seen := int32(0)
			for _, vi := range vpIdx {
				pathBuf = tree.AppendPathAt(pathBuf[:0], vi)
				if len(pathBuf) > 0 {
					seen++
					acc.AddPath(pathBuf)
				}
			}
			tpl := keyTemplate{seen: seen}
			if seen > 0 {
				ranked := acc.Ranked(trim)
				n := 0
				for _, sc := range ranked {
					if sc.ASN != og.Origin {
						n++
					}
				}
				if n > 0 {
					tpl.transits = make([]transitTpl, 0, n)
					for _, sc := range ranked {
						if sc.ASN == og.Origin {
							continue // trivial transit: lives in the prefix-origin dataset
						}
						tpl.transits = append(tpl.transits, transitTpl{
							transit:      sc.ASN,
							hegemony:     sc.Hegemony,
							fromCustomer: fromCustomer(csr, tree, sc.ASN),
						})
					}
				}
			}
			templates[s] = tpl
		}
	})
	if err != nil {
		return nil, fmt.Errorf("ihr: propagate and score route trees: %w", err)
	}

	// Stage 4: replicate each key's template across its originations in
	// input order, then impose total orders so the dataset is
	// byte-identical regardless of worker count. Row counts are known up
	// front, so both tables are allocated exactly once.
	nPO, nTR := 0, 0
	for i := range origs {
		tpl := &templates[keyIdx[i]]
		if tpl.seen == 0 && !cfg.KeepInvisible {
			continue
		}
		nPO++
		nTR += len(tpl.transits)
	}
	ds := &Dataset{
		PrefixOrigins: make([]PrefixOrigin, 0, nPO),
		Transits:      make([]TransitRow, 0, nTR),
		Visibility: Visibility{
			Origs:  make([]astopo.Origination, len(origs)),
			Counts: make([]int32, len(origs)),
		},
	}
	for i, og := range origs {
		tpl := &templates[keyIdx[i]]
		ds.Visibility.Origs[i] = og
		ds.Visibility.Counts[i] = tpl.seen
		if tpl.seen == 0 && !cfg.KeepInvisible {
			continue
		}
		ds.PrefixOrigins = append(ds.PrefixOrigins, PrefixOrigin{
			Prefix: og.Prefix, Origin: og.Origin, RPKI: statuses[i].rpki, IRR: statuses[i].irr,
		})
		for _, tt := range tpl.transits {
			ds.Transits = append(ds.Transits, TransitRow{
				Prefix:       og.Prefix,
				Origin:       og.Origin,
				Transit:      tt.transit,
				Hegemony:     tt.hegemony,
				RPKI:         statuses[i].rpki,
				IRR:          statuses[i].irr,
				FromCustomer: tt.fromCustomer,
			})
		}
	}
	ds.Visibility.Normalize()
	poLess := func(i, j int) bool {
		a, b := ds.PrefixOrigins[i], ds.PrefixOrigins[j]
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Prefix.Compare(b.Prefix) < 0
	}
	// Snapshot views feed originations in (origin, prefix) order, so the
	// tables usually arrive sorted; skip the sort when they do.
	if !sort.SliceIsSorted(ds.PrefixOrigins, poLess) {
		sort.Slice(ds.PrefixOrigins, poLess)
	}
	trLess := func(i, j int) bool {
		a, b := ds.Transits[i], ds.Transits[j]
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c < 0
		}
		if a.Hegemony != b.Hegemony {
			return a.Hegemony > b.Hegemony
		}
		return a.Transit < b.Transit
	}
	if !sort.SliceIsSorted(ds.Transits, trLess) {
		sort.SliceStable(ds.Transits, trLess)
	}
	return ds, nil
}

func fromCustomer(c *astopo.CSR, tree astopo.PartialTree, asn uint32) bool {
	i, ok := c.Intern.Index(asn)
	if !ok {
		return false
	}
	info, ok := tree.InfoAt(i)
	return ok && info.Class == astopo.ClassCustomer
}

// PolicyFilter returns a per-pair import-filter factory for the given
// policies: call it with a (prefix, origin) pair's validation statuses to
// get the astopo.ImportFilter the propagation of that pair should run
// under. Exported so tools that re-propagate (the synthgen MRT writer)
// apply the same policies the dataset builder does. Customer
// relationships are g's as of this call.
func PolicyFilter(g *astopo.Graph, policies map[uint32]Policy, rpkiIx, irrIx *rov.Index) func(prefix netx.Prefix, origin uint32) astopo.ImportFilter {
	csr := g.CSR()
	return func(prefix netx.Prefix, origin uint32) astopo.ImportFilter {
		rpkiS, irrS := rov.NotFound, rov.NotFound
		if rpkiIx != nil {
			rpkiS = rpkiIx.Validate(prefix, origin)
		}
		if irrIx != nil {
			irrS = irrIx.Validate(prefix, origin)
		}
		return makeFilter(csr, policies, rpkiS, irrS)
	}
}

func makeFilter(c *astopo.CSR, policies map[uint32]Policy, rpkiS, irrS rov.Status) astopo.ImportFilter {
	if len(policies) == 0 {
		return nil
	}
	return func(importer, neighbor uint32, prefix netx.Prefix, origin uint32) bool {
		pol, ok := policies[importer]
		if !ok {
			return true
		}
		if pol.DropRPKIInvalid && rpkiS.IsInvalid() {
			return false
		}
		if pol.DropIRRInvalidCustomers && irrS == rov.InvalidASN && isCustomer(c, importer, neighbor) &&
			!filterMisses(importer, prefix, pol.IRRFilterMissRate) {
			return false
		}
		return true
	}
}

func isCustomer(c *astopo.CSR, importer, neighbor uint32) bool {
	i, ok := c.Intern.Index(importer)
	if !ok {
		return false
	}
	j, ok := c.Intern.Index(neighbor)
	return ok && c.HasCustomer(i, j)
}
