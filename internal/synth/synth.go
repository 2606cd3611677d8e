// Package synth generates the synthetic Internet the measurement pipeline
// runs on: organizations, ASes, RIR allocations, a hierarchical AS
// topology with customer-provider and peering links, MANRS membership
// with join dates from 2015 to 2022, RPKI registration (real signed ROAs
// through the per-RIR trust anchors), IRR registration (RPSL route
// objects), route filtering policies, and the misconfigurations the paper
// observes in the wild.
//
// All behavioral rates are parameters in Config, with defaults calibrated
// to the paper's May 2022 measurements so that the harness reproduces the
// paper's shapes: the RPKI-validity gap between MANRS and non-MANRS
// cohorts at every size class, the *inverted* IRR gap for large networks
// (Finding 8.2), the filtering differences (Findings 9.1–9.3), and the
// preference-score separation for RPKI-invalid announcements (9.4).
//
// Generation is deterministic for a given Config (seeded math/rand; the
// only nondeterminism, Ed25519 key generation, does not influence any
// measured quantity).
package synth

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/parallel"
	"manrsmeter/internal/peeringdb"
	"manrsmeter/internal/rpki"
)

// Config sets the scale and the behavioral rates of the generated world.
// NewConfig returns the calibrated defaults; tests shrink the counts.
type Config struct {
	Seed int64

	// Scale selects the realization strategy: ScaleSeed (the zero value)
	// materializes every prefix individually; ScaleLarge switches to the
	// arena + aggregate-registration path for internet-scale worlds.
	Scale Scale

	// Topology scale.
	Tier1s     int // transit-free core, full mesh, all large
	LargeISPs  int // customer degree > 180 after wiring
	MediumISPs int
	SmallASes  int
	CDNs       int // content networks, customers of tier-1s, many prefixes

	// MANRS membership counts per cohort (must not exceed the cohort).
	MANRSSmall  int
	MANRSMedium int
	MANRSLarge  int
	MANRSCDNs   int

	// Behavioral rates, MANRS vs non-MANRS. Each is the probability that
	// an AS falls in the "all prefixes RPKI Valid" / "no prefix in RPKI"
	// regime; leftover probability is a mixed regime.
	RPKIAllValid   CohortRates
	RPKINone       CohortRates
	IRRAllValid    CohortRates
	ROVDeploy      CohortRates // DropRPKIInvalid policy
	IRRFilter      CohortRates // DropIRRInvalidCustomers policy
	RPKIMisconfig  CohortRates // prob. an RPKI-registered AS has a bad ROA
	StaleIRR       CohortRates // prob. an IRR-registered AS has stale objects
	QuietMemberISP float64     // fraction of MANRS ISP ASes announcing nothing

	// Years covered by the historical analysis.
	StartYear, EndYear int
}

// CohortRates holds a probability per (size class, membership) cell.
type CohortRates struct {
	Member    [3]float64 // indexed by manrs.SizeClass
	NonMember [3]float64
}

func (c CohortRates) rate(class manrs.SizeClass, member bool) float64 {
	if member {
		return c.Member[class]
	}
	return c.NonMember[class]
}

// NewConfig returns defaults calibrated to the paper's May 2022 numbers,
// scaled down ~15x so the full pipeline runs in seconds.
func NewConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		Tier1s:     6,
		LargeISPs:  10,
		MediumISPs: 300,
		SmallASes:  9000,
		CDNs:       20,

		MANRSSmall:  160,
		MANRSMedium: 90,
		MANRSLarge:  8,
		MANRSCDNs:   10,

		// §8.1: small MANRS 60.1% all-valid / 23.6% none;
		// small non-MANRS 24.7% / 68.1%; medium 41.5%/14.8% vs 23.8%/41.4%;
		// large: less polarized, no all-zero MANRS.
		RPKIAllValid: CohortRates{
			Member:    [3]float64{0.601, 0.415, 0.125},
			NonMember: [3]float64{0.247, 0.238, 0.059},
		},
		RPKINone: CohortRates{
			Member:    [3]float64{0.236, 0.148, 0.0},
			NonMember: [3]float64{0.681, 0.414, 0.118},
		},
		// §8.2: small/medium similar across membership; large MANRS *lower*
		// (63.5% median) than large non-MANRS (84.0% median) because RPKI
		// adopters leave IRR records unmaintained.
		IRRAllValid: CohortRates{
			Member:    [3]float64{0.723, 0.521, 0.30},
			NonMember: [3]float64{0.700, 0.480, 0.65},
		},
		// §9.1/§9.4: ROV concentrated in large networks, more in MANRS.
		ROVDeploy: CohortRates{
			Member:    [3]float64{0.02, 0.20, 0.85},
			NonMember: [3]float64{0.005, 0.05, 0.20},
		},
		IRRFilter: CohortRates{
			Member:    [3]float64{0.05, 0.25, 0.60},
			NonMember: [3]float64{0.02, 0.12, 0.35},
		},
		RPKIMisconfig: CohortRates{
			Member:    [3]float64{0.00, 0.028, 0.208},
			NonMember: [3]float64{0.007, 0.045, 0.329},
		},
		StaleIRR: CohortRates{
			Member:    [3]float64{0.05, 0.10, 0.35},
			NonMember: [3]float64{0.06, 0.12, 0.15},
		},
		QuietMemberISP: 0.11, // 95 of 849 MANRS ISP ASes originated nothing

		StartYear: studyStartYear,
		EndYear:   2022,
	}
}

// studyStartYear is the first year of the paper's study window.
const studyStartYear = 2015

// Preset returns the named world scale for seed, the one vocabulary of
// every command's -scale flag: "small" (~800 ASes, the quick world the
// examples and smoke tests use: 774 configured plus the sibling ASes of
// multi-AS organizations, 797 at seed 1), "full" (NewConfig, ~9.3k
// ASes) or "large" (NewLargeConfig, ~75k ASes).
func Preset(name string, seed int64) (Config, error) {
	switch name {
	case "small":
		cfg := NewConfig(seed)
		cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 3, 60, 700, 8
		cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 70, 20, 3, 4
		return cfg, nil
	case "full":
		return NewConfig(seed), nil
	case "large":
		return NewLargeConfig(seed), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q (want small, full or large)", name)
}

// World is the generated ecosystem plus everything the analysis needs.
type World struct {
	Config Config
	// Graph is the topology only: who announces what is the origination
	// table's (OriginationsAt).
	Graph *astopo.Graph
	MANRS *manrs.Registry
	// Anchors holds the five RIR trust-anchor CAs; Repo the published
	// certificates and ROAs.
	Anchors map[rpki.RIR]*rpki.CA
	Repo    *rpki.Repository
	// IRRRegistry holds the authoritative per-RIR databases plus a RADB
	// mirror.
	IRRRegistry *irr.Registry
	// Policies is each AS's filtering behavior.
	Policies map[uint32]ihr.Policy
	// VantagePoints are the simulated collector peers.
	VantagePoints []uint32
	// OrgASNs is the as2org view: organization → all its ASNs.
	OrgASNs map[string][]uint32
	// PeeringDB holds each network's contact record (MANRS Action 3).
	PeeringDB *peeringdb.Registry

	// asOf, when set, is the measurement date of the last study year:
	// the RIB dump's date in a world LoadFiles read.
	asOf time.Time

	// origTab is the one record of who announces what (see
	// originTable); origAdd holds what AddOrigination added since, sorted,
	// until the next read merges it in. origMu guards both. Forks share
	// the table.
	origMu  sync.Mutex
	origTab *originTable
	origAdd []astopo.Origination

	// viewMu guards the per-date views At hands out. Views are immutable,
	// so cached values are shared across callers.
	viewMu    sync.Mutex
	views     map[int64]*View
	viewDates []int64 // insertion order, for bounded eviction

	// sigMemo remembers the verdict of every RPKI signature a VRPsAt run
	// has checked, so the relying party verifies each signature once per
	// world rather than once per date. Forks share it (a verdict depends
	// only on key, payload and signature bytes); nil verifies every time.
	sigMemo *rpki.VerdictMemo
	// templates remembers the scored route tree of every tree key a
	// dataset build of this world has flooded, so a week floods only the
	// keys no earlier date had. Graph, policies and vantage points are
	// fixed at generation and no mutation touches them, so forks share
	// it; nil floods every key.
	templates *ihr.Templates

	// Scenario state (internal/scenario mutation API, set via Fork and
	// the mutators in mutate.go). A pristine generated world has the
	// zero values; a forked world carries the scenario tag plus every
	// mutation it absorbed, and its Fingerprint diverges accordingly.
	scenarioTag string
	mutations   int
	// fingerprint is Fingerprint's stored answer; viewMu guards it.
	fingerprint string
	// failedRPs marks trust anchors whose relying party has failed: their
	// VRPs vanish from VRPsAt, degrading dependent verdicts toward
	// NotFound.
	failedRPs map[rpki.RIR]bool
	// roaLag delays ROA visibility (rov-timing management-plane delay):
	// a ROA is invisible to the relying party until NotBefore+roaLag.
	roaLag time.Duration
}

// sigMemoObjectFactor caps a world's signature-verdict memo at this many
// verdicts per object the world published at generation. A run checks
// about one signature per object, so the generated world fills a
// quarter; the rest is room for what scenario forks publish and re-sign.
// Past the cap new signatures are verified on every run.
const sigMemoObjectFactor = 4

// asInfo carries generation-time decisions for one AS.
type asInfo struct {
	asn    uint32
	class  manrs.SizeClass
	member bool
	cdn    bool
	rir    rpki.RIR
	cc     string
	orgID  string
	joined time.Time
}

// Generate builds a world from cfg.
func Generate(cfg Config) (*World, error) {
	if cfg.Tier1s < 2 || cfg.SmallASes < 10 {
		return nil, fmt.Errorf("synth: config too small (need ≥2 tier-1s, ≥10 small ASes)")
	}
	if cfg.EndYear < cfg.StartYear {
		return nil, fmt.Errorf("synth: EndYear before StartYear")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		Config:      cfg,
		Graph:       astopo.NewGraph(),
		MANRS:       manrs.NewRegistry(),
		Anchors:     make(map[rpki.RIR]*rpki.CA),
		Repo:        &rpki.Repository{},
		IRRRegistry: irr.NewRegistry(),
		Policies:    make(map[uint32]ihr.Policy),
		OrgASNs:     make(map[string][]uint32),
		PeeringDB:   peeringdb.NewRegistry(),
		origTab:     &originTable{},
	}

	// RPKI trust anchors: RIR r owns the /5 starting at (16 + 8r).0.0.0.
	taFrom := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	taTo := time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, r := range rpki.AllRIRs {
		block, err := rirBlock(r)
		if err != nil {
			return nil, err
		}
		ca, err := rpki.NewTrustAnchor(r, []netx.Prefix{block}, taFrom, taTo)
		if err != nil {
			return nil, err
		}
		w.Anchors[r] = ca
	}

	// Per-RIR authoritative IRR databases plus a RADB-style mirror.
	irrDBs := make(map[rpki.RIR]*irr.Database)
	for _, r := range rpki.AllRIRs {
		db := irr.NewDatabase(r.String())
		irrDBs[r] = db
		w.IRRRegistry.AddDatabase(db)
	}
	radb := irr.NewDatabase("RADB")
	w.IRRRegistry.AddDatabase(radb)

	infos, err := w.buildTopology(rng)
	if err != nil {
		return nil, err
	}
	w.assignMembership(rng, infos)
	if cfg.Scale == ScaleLarge {
		if err := w.populateLarge(rng, infos, irrDBs); err != nil {
			return nil, err
		}
	} else {
		alloc := newAllocator()
		for _, info := range infos {
			if err := w.populateAS(rng, info, alloc, irrDBs, radb); err != nil {
				return nil, err
			}
		}
	}
	// Population published the last ROA, and nothing after it reads a
	// ROA or draws for one: sign while the serial tail runs, and join
	// the signers before the world is handed out.
	signed := make(chan error, 1)
	go func() { signed <- w.signRepository() }()
	w.origTab = newOriginTable(w.origTab.rows, w.addChurn(rng))
	w.assignPolicies(rng, infos)
	w.populateContacts(rng, infos)
	w.pickVantagePoints(rng, infos)
	if err := <-signed; err != nil {
		return nil, err
	}
	// Empty: the first relying-party run verifies everything it trusts.
	w.sigMemo = rpki.NewVerdictMemo(sigMemoObjectFactor * (len(w.Anchors) + w.Repo.NumCerts() + w.Repo.NumROAs()))
	// The template table holds one template per generated origination.
	// A date has at most one tree key per origination and in practice
	// about one per origin (a quarter of the cap on a 1.8k-AS seed-layout
	// world), so every date fits with room for the keys scenario forks
	// add; past the cap new keys flood on every build.
	w.templates = ihr.NewTemplates(ihr.Config{Graph: w.Graph, Policies: w.Policies, VantagePoints: w.VantagePoints}, len(w.origTab.rows))
	w.fingerprint = w.computeFingerprint()
	return w, nil
}

// signRepository signs the ROAs generation published. They were built and
// published unsigned, in rng order; a signature draws nothing from rng
// and is a function of its anchor's key and the ROA's fields alone, so
// signing them here, together, on every core and beside the rest of
// generation, publishes the repository that signing each at its draw
// would have. Each anchor signs its ROAs in batches of signBlock, which
// share one field inversion.
func (w *World) signRepository() error {
	signers := make(map[string]*rpki.CA, len(w.Anchors))
	for _, ca := range w.Anchors {
		signers[ca.Cert.SubjectName] = ca
	}
	bySigner := make(map[string][]*rpki.ROA, len(w.Anchors))
	for i, roa := range w.Repo.ROAs() {
		if signers[roa.SignerName] == nil {
			return fmt.Errorf("synth: generated ROA %d names signer %q, which is not a trust anchor", i, roa.SignerName)
		}
		bySigner[roa.SignerName] = append(bySigner[roa.SignerName], roa)
	}
	var blocks [][]*rpki.ROA // in any order: no signature depends on another
	for _, roas := range bySigner {
		for ; len(roas) > 0; roas = roas[min(signBlock, len(roas)):] {
			blocks = append(blocks, roas[:min(signBlock, len(roas))])
		}
	}
	return parallel.ForEachCtx(context.Background(), len(blocks), 0, func(i int) {
		signers[blocks[i][0].SignerName].Sign(blocks[i]...)
	})
}

// signBlock is how many ROAs one signing batch holds.
const signBlock = 64

// Date returns the canonical May-1 measurement date for a year. A
// world LoadFiles read measures its last year at its RIB dump's date.
func (w *World) Date(year int) time.Time {
	if year == w.Config.EndYear && !w.asOf.IsZero() {
		return w.asOf
	}
	return time.Date(year, 5, 1, 0, 0, 0, 0, time.UTC)
}

// Fingerprint identifies the generated world deterministically:
// two Worlds built from the same Config share a fingerprint, and any
// analysis over them is byte-identical (generation is seeded; the only
// nondeterminism, Ed25519 keys, influences no measured quantity). The
// serving layer uses it as the stable component of snapshot versions,
// so a rebuilt snapshot of the same world and date keeps its ETag.
func (w *World) Fingerprint() string {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.fingerprint
}

// computeFingerprint hashes config and scenario state (viewMu held or w unshared).
func (w *World) computeFingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", w.Config)
	if w.scenarioTag != "" {
		// A scenario fork is a different world: same config, mutated
		// data plane. Tag and mutation count keep forked snapshots from
		// colliding with the baseline in version-keyed caches.
		fmt.Fprintf(h, "|scenario=%s|muts=%d", w.scenarioTag, w.mutations)
	}
	return fmt.Sprintf("w%016x", h.Sum64())
}

// rirWeights skews cohorts geographically per §7: large networks mostly
// ARIN, many small LACNIC (Brazil) ASes, etc.
var (
	ccByRIR = map[rpki.RIR][]string{
		rpki.AFRINIC: {"ZA", "NG", "KE"},
		rpki.APNIC:   {"CN", "JP", "IN", "AU"},
		rpki.ARIN:    {"US", "US", "CA"},
		rpki.LACNIC:  {"BR", "BR", "AR", "CL"},
		rpki.RIPE:    {"DE", "NL", "FR", "GB", "RU"},
	}
)

func pickRIR(rng *rand.Rand, class manrs.SizeClass, cdn bool) rpki.RIR {
	roll := rng.Float64()
	if cdn || class == manrs.Large {
		// Large networks and CDNs are ARIN-heavy (§7).
		switch {
		case roll < 0.55:
			return rpki.ARIN
		case roll < 0.75:
			return rpki.RIPE
		case roll < 0.90:
			return rpki.APNIC
		case roll < 0.97:
			return rpki.LACNIC
		default:
			return rpki.AFRINIC
		}
	}
	switch {
	case roll < 0.30:
		return rpki.RIPE
	case roll < 0.52:
		return rpki.ARIN
	case roll < 0.72:
		return rpki.APNIC
	case roll < 0.92:
		return rpki.LACNIC // Brazil outreach bulge
	default:
		return rpki.AFRINIC
	}
}

// buildTopology creates orgs, ASes and the relationship graph and
// returns per-AS info records, in ASN order. A wiring conflict (a link
// the graph refuses) is a generator bug surfaced as an error, not a
// panic: world generation is a library entry point.
func (w *World) buildTopology(rng *rand.Rand) ([]*asInfo, error) {
	var infos []*asInfo
	nextASN := uint32(100)
	newAS := func(class manrs.SizeClass, cdn bool, orgSize int) *asInfo {
		asn := nextASN
		nextASN++
		rir := pickRIR(rng, class, cdn)
		ccs := ccByRIR[rir]
		info := &asInfo{
			asn:   asn,
			class: class,
			cdn:   cdn,
			rir:   rir,
			cc:    ccs[rng.Intn(len(ccs))],
			orgID: fmt.Sprintf("org-%05d", asn),
		}
		w.Graph.AddAS(asn, info.orgID, fmt.Sprintf("Org %d", asn), info.cc, rir)
		w.OrgASNs[info.orgID] = append(w.OrgASNs[info.orgID], asn)
		infos = append(infos, info)
		// Multi-AS organizations: siblings share the org (Finding 7.0).
		for s := 1; s < orgSize; s++ {
			sib := nextASN
			nextASN++
			w.Graph.AddAS(sib, info.orgID, fmt.Sprintf("Org %d", asn), info.cc, rir)
			w.OrgASNs[info.orgID] = append(w.OrgASNs[info.orgID], sib)
			sibInfo := &asInfo{asn: sib, class: manrs.Small, cdn: cdn, rir: rir, cc: info.cc, orgID: info.orgID}
			infos = append(infos, sibInfo)
		}
		return info
	}

	orgSize := func(class manrs.SizeClass) int {
		// ~30% of medium/large orgs own extra (mostly small, often
		// quiescent) ASes.
		if class == manrs.Small {
			return 1
		}
		r := rng.Float64()
		switch {
		case r < 0.70:
			return 1
		case r < 0.92:
			return 2
		default:
			return 3
		}
	}

	var tier1s, larges, mediums, smalls, cdns []*asInfo
	for i := 0; i < w.Config.Tier1s; i++ {
		tier1s = append(tier1s, newAS(manrs.Large, false, orgSize(manrs.Large)))
	}
	for i := 0; i < w.Config.LargeISPs; i++ {
		larges = append(larges, newAS(manrs.Large, false, orgSize(manrs.Large)))
	}
	for i := 0; i < w.Config.MediumISPs; i++ {
		mediums = append(mediums, newAS(manrs.Medium, false, orgSize(manrs.Medium)))
	}
	for i := 0; i < w.Config.CDNs; i++ {
		cdns = append(cdns, newAS(manrs.Medium, true, orgSize(manrs.Medium)))
	}
	for i := 0; i < w.Config.SmallASes; i++ {
		smalls = append(smalls, newAS(manrs.Small, false, 1))
	}

	// must records the first wiring failure; the remaining wiring still
	// runs (every call is independent) and the error surfaces once at the
	// end, through Generate.
	var wireErr error
	must := func(err error) {
		if err != nil && wireErr == nil {
			wireErr = fmt.Errorf("synth: topology wiring: %w", err)
		}
	}
	// Tier-1 full mesh.
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			must(w.Graph.SetPeer(tier1s[i].asn, tier1s[j].asn))
		}
	}
	// Large ISPs: customers of 2 tier-1s, peer with 2 other larges.
	for i, l := range larges {
		t1 := tier1s[rng.Intn(len(tier1s))]
		t2 := tier1s[rng.Intn(len(tier1s))]
		must(w.Graph.SetProviderCustomer(t1.asn, l.asn))
		if t2 != t1 {
			must(w.Graph.SetProviderCustomer(t2.asn, l.asn))
		}
		if len(larges) > 1 {
			other := larges[(i+1)%len(larges)]
			must(w.Graph.SetPeer(l.asn, other.asn))
		}
	}
	// CDNs: customers of 1-2 tier-1s, peer widely with larges and mediums.
	for _, c := range cdns {
		must(w.Graph.SetProviderCustomer(tier1s[rng.Intn(len(tier1s))].asn, c.asn))
		for p := 0; p < 3 && len(larges) > 0; p++ {
			must(w.Graph.SetPeer(c.asn, larges[rng.Intn(len(larges))].asn))
		}
	}
	// Medium ISPs: customers of 1-2 larger networks (tier1 or large).
	uppers := append(append([]*asInfo(nil), tier1s...), larges...)
	for _, m := range mediums {
		u := uppers[rng.Intn(len(uppers))]
		must(w.Graph.SetProviderCustomer(u.asn, m.asn))
		if rng.Float64() < 0.5 {
			u2 := uppers[rng.Intn(len(uppers))]
			if u2 != u {
				must(w.Graph.SetProviderCustomer(u2.asn, m.asn))
			}
		}
		// Occasional medium-medium peering.
		if rng.Float64() < 0.3 && len(mediums) > 1 {
			o := mediums[rng.Intn(len(mediums))]
			if o != m {
				must(w.Graph.SetPeer(m.asn, o.asn))
			}
		}
	}
	// Small ASes: customers of tier-1s (20%), large ISPs (35%), mediums
	// (37%), or another small AS (8% — the paper's small-transit cohort:
	// 23% of small MANRS ASes provide transit). The split drives medium
	// customer degrees into the 3..180 band and pushes tier-1s and large
	// ISPs beyond the 180-customer threshold at the default scale.
	for i, s := range smalls {
		var prov *asInfo
		switch roll := i % 25; {
		case roll < 5:
			prov = tier1s[rng.Intn(len(tier1s))]
		case roll < 14 && len(larges) > 0:
			prov = larges[rng.Intn(len(larges))]
		case roll < 16 && i > 0:
			prov = smalls[rng.Intn(i)] // earlier small: acyclic by construction
		default:
			prov = mediums[rng.Intn(len(mediums))]
		}
		must(w.Graph.SetProviderCustomer(prov.asn, s.asn))
		if rng.Float64() < 0.35 {
			p2 := mediums[rng.Intn(len(mediums))]
			if p2 != prov {
				must(w.Graph.SetProviderCustomer(p2.asn, s.asn))
			}
		}
	}
	// Sibling ASes (in multi-AS orgs) attach under a random medium so
	// they exist in the routing system when they announce.
	for _, info := range infos {
		if len(w.Graph.AS(info.asn).Providers) == 0 && len(w.Graph.AS(info.asn).Customers) == 0 &&
			len(w.Graph.AS(info.asn).Peers) == 0 {
			must(w.Graph.SetProviderCustomer(mediums[rng.Intn(len(mediums))].asn, info.asn))
		}
	}
	// Recompute classes from the wired topology: the paper classifies by
	// *measured* customer degree, and wiring decides the degree.
	for _, info := range infos {
		info.class = manrs.ClassifySize(w.Graph.CustomerDegree(info.asn))
	}
	if wireErr != nil {
		return nil, wireErr
	}
	return infos, nil
}

// assignMembership picks MANRS participants per cohort and assigns join
// dates replicating the paper's growth anomalies.
func (w *World) assignMembership(rng *rand.Rand, infos []*asInfo) {
	cfg := w.Config
	byClass := map[manrs.SizeClass][]*asInfo{}
	var cdns []*asInfo
	for _, info := range infos {
		if info.cdn {
			cdns = append(cdns, info)
			continue
		}
		byClass[info.class] = append(byClass[info.class], info)
	}
	pickN := func(pool []*asInfo, n int) []*asInfo {
		if n > len(pool) {
			n = len(pool)
		}
		out := make([]*asInfo, n)
		for i, j := range rng.Perm(len(pool))[:n] {
			out[i] = pool[j]
		}
		return out
	}

	ispJoinYear := func(info *asInfo) int {
		// Brazil outreach: LACNIC smalls overwhelmingly joined in 2020.
		if info.rir == rpki.LACNIC && info.class == manrs.Small && rng.Float64() < 0.75 {
			return 2020
		}
		// Otherwise exponential-ish growth toward recent years.
		r := rng.Float64()
		switch {
		case r < 0.04:
			return 2015
		case r < 0.09:
			return 2016
		case r < 0.16:
			return 2017
		case r < 0.26:
			return 2018
		case r < 0.42:
			return 2019
		case r < 0.63:
			return 2020
		case r < 0.85:
			return 2021
		default:
			return 2022
		}
	}

	join := func(info *asInfo, program manrs.Program, year int) {
		info.member = true
		info.joined = time.Date(year, time.Month(1+rng.Intn(4)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		w.MANRS.Add(manrs.Participant{ASN: info.asn, OrgID: info.orgID, Program: program, Joined: info.joined})
	}
	for _, info := range pickN(byClass[manrs.Small], cfg.MANRSSmall) {
		join(info, manrs.ProgramISP, ispJoinYear(info))
	}
	for _, info := range pickN(byClass[manrs.Medium], cfg.MANRSMedium) {
		join(info, manrs.ProgramISP, ispJoinYear(info))
	}
	for _, info := range pickN(byClass[manrs.Large], cfg.MANRSLarge) {
		join(info, manrs.ProgramISP, ispJoinYear(info))
	}
	// CDN program exists only from 2020 (§7: ARIN address-space jump).
	for _, info := range pickN(cdns, cfg.MANRSCDNs) {
		join(info, manrs.ProgramCDN, 2020+rng.Intn(3))
	}
	// Partial registration (Finding 7.0): for ~30% of multi-AS member
	// orgs, sibling ASes stay out of MANRS; for the rest the siblings
	// join too.
	byASN := make(map[uint32]*asInfo, len(infos))
	for _, info := range infos {
		byASN[info.asn] = info
	}
	for _, info := range infos {
		if !info.member {
			continue
		}
		sibs := w.OrgASNs[info.orgID]
		if len(sibs) == 1 {
			continue
		}
		if rng.Float64() < 0.70 {
			for _, sib := range sibs {
				if sib == info.asn {
					continue
				}
				prog := manrs.ProgramISP
				if info.cdn {
					prog = manrs.ProgramCDN
				}
				w.MANRS.Add(manrs.Participant{ASN: sib, OrgID: info.orgID, Program: prog, Joined: info.joined})
				if si := byASN[sib]; si != nil {
					si.member = true
					si.joined = info.joined
				}
			}
		}
	}
}
