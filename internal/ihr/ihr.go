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
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"sync"

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
	mTemplateReuses = obsv.NewCounter("ihr_template_reuses_total",
		"Tree keys a dataset build took from its template table instead of flooding.")
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
	// this to build historical datasets without mutating the graph. The
	// build never writes it, and keeps a strictly (origin, prefix)
	// ascending list as the dataset's Visibility.Origs without a copy,
	// so the caller must not modify it afterwards.
	Originations []astopo.Origination
	// Workers bounds the goroutines used for propagation and row
	// construction; ≤ 0 means one per CPU. The dataset is byte-identical
	// for every worker count.
	Workers int
	// Templates, when it was made for this config's graph, policies,
	// vantage points and trim, supplies the scored route trees earlier
	// builds computed and keeps the ones this build computes. Nil, or a
	// table made for anything else, builds every tree. The dataset is
	// byte-identical either way.
	Templates *Templates
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
	return compareOrigination(a.Origin, a.Prefix, b.Origin, b.Prefix) < 0
}

// compareOrigination orders originations by (origin, prefix): the order
// of Visibility and the leading key of both dataset tables.
func compareOrigination(ao uint32, ap netx.Prefix, bo uint32, bp netx.Prefix) int {
	if c := cmp.Compare(ao, bo); c != 0 {
		return c
	}
	return ap.Compare(bp)
}

// Normalized reports whether Origs is strictly ascending by (origin,
// prefix), as Normalize leaves it.
func (v Visibility) Normalized() bool {
	for i := 1; i < len(v.Origs); i++ {
		if !visLess(v.Origs[i-1], v.Origs[i]) {
			return false
		}
	}
	return true
}

// Normalize sorts the parallel slices by (origin, prefix) and collapses
// duplicate originations (which necessarily carry equal counts), so
// Count's binary search is valid for any input order.
func (v *Visibility) Normalize() {
	if v.Normalized() {
		return
	}
	sort.Sort(visByOrig{v})
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
//   - irr == InvalidASN: prefix-sensitive; one class per (origin, rpki,
//     prefix), each flooded with its own prefix, since the filter misses
//     of one prefix say nothing about another's.
//   - otherwise RPKI-invalid: one class per origin (both invalid kinds
//     and every non-InvalidASN IRR status behave identically).
//   - otherwise (or no policies at all): the benign class — the filter
//     provably accepts every edge, so propagation runs filterless.
type treeKey struct {
	origin uint32
	class  uint8 // 0 benign, 1 rpki-invalid, 2 irr-invalid-asn
	rpki   rov.Status
	irr    rov.Status
	prefix netx.Prefix // zero unless class is classIRRInvAS
}

const (
	classBenign   = 0
	classRPKIInv  = 1
	classIRRInvAS = 2
)

func makeTreeKey(origin uint32, prefix netx.Prefix, rpkiS, irrS rov.Status, havePolicies bool) treeKey {
	if !havePolicies {
		return treeKey{origin: origin, class: classBenign}
	}
	if irrS == rov.InvalidASN {
		return treeKey{origin: origin, class: classIRRInvAS, rpki: rpkiS, irr: irrS, prefix: prefix}
	}
	if rpkiS.IsInvalid() {
		return treeKey{origin: origin, class: classRPKIInv}
	}
	return treeKey{origin: origin, class: classBenign}
}

// templateKey is everything a tree key's flood reads beyond the config:
// the origin, whether an import filter runs at all (the class), the one
// bit of RPKI status the filter reads, and, for the IRR-InvalidASN class
// only, the prefix its filter-miss hash reads. Two tree keys with equal
// template keys, in any build over one config, flood identical trees.
type templateKey struct {
	origin      uint32
	class       uint8
	rpkiInvalid bool
	prefix      netx.Prefix // zero unless class is classIRRInvAS
}

func makeTemplateKey(k treeKey) templateKey {
	return templateKey{origin: k.origin, class: k.class, rpkiInvalid: k.class != classBenign && k.rpki.IsInvalid(), prefix: k.prefix}
}

// keyTemplate is one tree key's scored route tree: how many vantage
// points saw the route and the non-trivial transits in rank order.
type keyTemplate struct {
	seen     int32
	transits []transitTpl
}

type transitTpl struct {
	transit      uint32
	hegemony     float64
	fromCustomer bool
}

// Templates is a table of scored route trees that dataset builds over
// one graph, policy set, vantage-point set and trim share: the builds of
// one world at many dates, and of its forks. Graph, policies and vantage
// points do not change with the date, so a tree key seen at one date
// floods the same tree at every other; keyed exactly by what the flood
// reads (templateKey), a template is reused without a hash or a
// fingerprint. A table serves only builds of the config it was made for
// (compared by content, policies and vantage points as of NewTemplates)
// and only over the topology its first build used, so a graph whose
// relationships change afterwards builds without it.
//
// A table holds at most limit templates. Once full it stops inserting,
// and builds flood what it does not hold, so a long-lived process whose
// forks keep adding originations cannot grow it without bound. Builds
// may share a table concurrently.
type Templates struct {
	graph    *astopo.Graph
	policies map[uint32]Policy
	vps      []uint32
	trim     float64
	limit    int

	mu  sync.RWMutex
	csr *astopo.CSR                 // topology of the held templates; set by the first build
	m   map[templateKey]keyTemplate // made by the first keep
}

// NewTemplates returns an empty table for builds with cfg's Graph,
// Policies, VantagePoints and Trim, holding at most limit templates.
func NewTemplates(cfg Config, limit int) *Templates {
	return &Templates{
		graph:    cfg.Graph,
		policies: maps.Clone(cfg.Policies),
		vps:      slices.Clone(cfg.VantagePoints),
		trim:     trimOf(cfg),
		limit:    limit,
	}
}

// Len returns how many templates the table holds.
func (t *Templates) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// fill copies into templates every key's template the table holds and
// returns the keys it lacks, all of them for a nil table.
func (t *Templates) fill(templates []keyTemplate, key func(s int32) templateKey) (todo []int32) {
	todo = make([]int32, 0, len(templates))
	if t == nil {
		for s := range templates {
			todo = append(todo, int32(s))
		}
		return todo
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for s := range templates {
		if tpl, ok := t.m[key(int32(s))]; ok {
			templates[s] = tpl
		} else {
			todo = append(todo, int32(s))
		}
	}
	mTemplateReuses.Add(int64(len(templates) - len(todo)))
	return todo
}

// keep stores the templates of the todo keys while the table has room.
func (t *Templates) keep(templates []keyTemplate, todo []int32, key func(s int32) templateKey) {
	if t == nil || len(todo) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil { // sized by the first build, which brings most keys
		t.m = make(map[templateKey]keyTemplate, min(len(todo), t.limit))
	}
	for _, s := range todo {
		if len(t.m) >= t.limit {
			return
		}
		t.m[key(s)] = templates[s]
	}
}

// serves reports whether builds of cfg over the topology csr may use t.
func (t *Templates) serves(cfg Config, csr *astopo.CSR) bool {
	if t == nil || cfg.Graph != t.graph || trimOf(cfg) != t.trim ||
		!slices.Equal(cfg.VantagePoints, t.vps) || !maps.Equal(cfg.Policies, t.policies) {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.csr == nil {
		t.csr = csr
	}
	return t.csr == csr
}

// trimOf is cfg's hegemony trim, zero meaning the default.
func trimOf(cfg Config) float64 {
	if cfg.Trim == 0 {
		return hegemony.DefaultTrim
	}
	return cfg.Trim
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
	trim := trimOf(cfg)

	origs := cfg.Originations
	if origs == nil {
		origs = cfg.Graph.Originations()
	}

	// Stage 1: classify every origination (see classify).
	statuses, err := classify(ctx, origs, cfg.RPKI, cfg.IRR, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("ihr: classify originations: %w", err)
	}

	// Stage 2: group originations into tree-equivalence classes (see
	// treeKey). Keys are collected in first-appearance order, each
	// flooded from its first origination, so the build is deterministic.
	havePolicies := len(cfg.Policies) > 0
	keyIdx := make([]int32, len(origs))
	slot := make(map[treeKey]int32)
	var keys []treeKey // per key, in first-appearance order
	var reps []int32   // index of the representative origination per key
	for i, og := range origs {
		key := makeTreeKey(og.Origin, og.Prefix, statuses[i].rpki, statuses[i].irr, havePolicies)
		s, ok := slot[key]
		if !ok {
			s = int32(len(reps))
			slot[key] = s
			keys = append(keys, key)
			reps = append(reps, int32(i))
		}
		keyIdx[i] = s
	}

	// Keys the template table holds need no flood; the rest are todo.
	// The full-flood reference never consults a table.
	csr := cfg.Graph.CSR()
	table := cfg.Templates
	if !vpOnly || !table.serves(cfg, csr) {
		table = nil
	}
	tmplKey := func(s int32) templateKey { return makeTemplateKey(keys[s]) }
	templates := make([]keyTemplate, len(reps))
	todo := table.fill(templates, tmplKey)

	// Stage 3: per todo key — propagate, walk the vantage paths, score
	// hegemony, and reduce to a compact row template. Everything a row
	// needs beyond the (Prefix, Origin, RPKI, IRR) labels depends only on
	// the key, so the route tree itself is worker scratch: each worker
	// owns one Propagator and one hegemony Accumulator and reuses them
	// across its whole index range, keeping per-worker memory bounded by
	// one tree regardless of how many keys the world has. Routes are read
	// only at the vantage points and at the transits on their paths, so
	// each flood is restricted to the vantage points' need-set, computed
	// once and shared read-only.
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
	workers := parallel.Workers(cfg.Workers, len(todo))
	chunks := min(workers*4, len(todo))
	err = parallel.ForEachCtx(ctx, chunks, workers, func(chunk int) {
		prop := astopo.NewCSRPropagator(csr)
		acc := hegemony.NewIndexAccumulator(csr.Intern.ASNs())
		var pathBuf []int32
		floods, settled := 0, 0
		defer func() {
			mFloods.Add(int64(floods))
			mFloodNodes.Add(int64(settled))
		}()
		lo := chunk * len(todo) / chunks
		hi := (chunk + 1) * len(todo) / chunks
		for _, s := range todo[lo:hi] {
			if ctx.Err() != nil {
				return
			}
			rep := reps[s]
			og := origs[rep]
			var filter astopo.ImportFilter
			if keys[s].class != classBenign {
				filter = makeFilter(csr, cfg.Policies, statuses[rep].rpki, statuses[rep].irr)
			}
			tree := prop.PropagateTo(og.Prefix, og.Origin, filter, need)
			floods++
			settled += prop.Settled()
			acc.Reset()
			seen := int32(0)
			for _, vi := range vpIdx {
				pathBuf = tree.AppendIndexPathAt(pathBuf[:0], vi)
				if len(pathBuf) > 0 {
					seen++
					acc.AddIndexPath(pathBuf)
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
					for k, sc := range ranked {
						if sc.ASN == og.Origin {
							continue // trivial transit: lives in the prefix-origin dataset
						}
						info, _ := tree.InfoAt(acc.RankedSlot(k))
						tpl.transits = append(tpl.transits, transitTpl{
							transit:      sc.ASN,
							hegemony:     sc.Hegemony,
							fromCustomer: info.Class == astopo.ClassCustomer,
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
	table.keep(templates, todo, tmplKey)

	// Stage 4: replicate each key's template across its originations in
	// input order, then impose total orders so the dataset is
	// byte-identical regardless of worker count. A counting pass gives
	// each chunk of originations the offsets its rows start at, so both
	// tables are allocated exactly once and the chunks fill them side
	// by side.
	workers = parallel.Workers(cfg.Workers, len(origs))
	chunks = min(workers*4, len(origs))
	type offset struct{ po, tr int }
	starts := make([]offset, chunks)
	var at offset
	for c := range chunks {
		starts[c] = at
		for i := c * len(origs) / chunks; i < (c+1)*len(origs)/chunks; i++ {
			if tpl := &templates[keyIdx[i]]; tpl.seen > 0 || cfg.KeepInvisible {
				at.po++
				at.tr += len(tpl.transits)
			}
		}
	}
	ds := &Dataset{
		PrefixOrigins: make([]PrefixOrigin, at.po),
		Transits:      make([]TransitRow, at.tr),
		Visibility:    Visibility{Origs: origs, Counts: make([]int32, len(origs))},
	}
	ordered := ds.Visibility.Normalized()
	if !ordered {
		ds.Visibility.Origs = slices.Clone(origs) // Normalize below sorts it
	}
	err = parallel.ForEachCtx(ctx, chunks, workers, func(c int) {
		at := starts[c]
		for i := c * len(origs) / chunks; i < (c+1)*len(origs)/chunks; i++ {
			og, st, tpl := origs[i], statuses[i], &templates[keyIdx[i]]
			ds.Visibility.Counts[i] = tpl.seen
			if tpl.seen == 0 && !cfg.KeepInvisible {
				continue
			}
			ds.PrefixOrigins[at.po] = PrefixOrigin{Prefix: og.Prefix, Origin: og.Origin, RPKI: st.rpki, IRR: st.irr}
			at.po++
			for _, tt := range tpl.transits {
				ds.Transits[at.tr] = TransitRow{
					Prefix:       og.Prefix,
					Origin:       og.Origin,
					Transit:      tt.transit,
					Hegemony:     tt.hegemony,
					RPKI:         st.rpki,
					IRR:          st.irr,
					FromCustomer: tt.fromCustomer,
				}
				at.tr++
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("ihr: fill dataset rows: %w", err)
	}
	// Originations strictly ascending by (origin, prefix), which is what
	// snapshot views feed, give both tables in order: rows follow their
	// origination, and a template's transits are already ranked
	// (hegemony desc, transit asc). Any other input is sorted here.
	if !ordered {
		ds.Visibility.Normalize()
		slices.SortFunc(ds.PrefixOrigins, func(a, b PrefixOrigin) int {
			return compareOrigination(a.Origin, a.Prefix, b.Origin, b.Prefix)
		})
		slices.SortStableFunc(ds.Transits, func(a, b TransitRow) int {
			if c := compareOrigination(a.Origin, a.Prefix, b.Origin, b.Prefix); c != 0 {
				return c
			}
			if a.Hegemony != b.Hegemony {
				if a.Hegemony > b.Hegemony {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.Transit, b.Transit)
		})
	}
	return ds, nil
}

// status is one origination's pair of registry verdicts.
type status struct{ rpki, irr rov.Status }

// classify returns the RPKI and IRR status of each origination, as
// rpkiIx.Validate and irrIx.Validate would give them (NotFound for a nil
// index). It walks the originations in prefix order, every family on the
// one path, with a rov.Cursor per registry, so each verdict is a short
// step forward through the registry's table rather than a search of it.
// The walk is cut into one contiguous share per worker, each share with
// its own cursors; validation is a pure lookup against immutable
// indexes, so the shares run side by side. Once ctx is done no further
// share starts, and a running share stops within 1024 originations.
func classify(ctx context.Context, origs []astopo.Origination, rpkiIx, irrIx *rov.Index, workers int) ([]status, error) {
	order := netx.PrefixOrder(len(origs), func(i int) netx.Prefix { return origs[i].Prefix })
	statuses := make([]status, len(origs))
	workers = parallel.Workers(workers, len(origs))
	err := parallel.ForEachCtx(ctx, workers, workers, func(w int) {
		rc, ic := rpkiIx.Cursor(), irrIx.Cursor()
		for n, i := range order[w*len(order)/workers : (w+1)*len(order)/workers] {
			if n%1024 == 0 && ctx.Err() != nil {
				return
			}
			og := origs[i]
			statuses[i] = status{rpki: rc.Validate(og.Prefix, og.Origin), irr: ic.Validate(og.Prefix, og.Origin)}
		}
	})
	if err == nil {
		err = context.Cause(ctx)
	}
	return statuses, err
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
