package synth

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/peeringdb"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

// mDatasetBuild times each dataset build View.Dataset starts; its
// _count is how many builds ran (a date answered by an earlier build
// adds nothing).
var mDatasetBuild = obsv.NewSummary("synth_dataset_build_seconds",
	"wall time of one dataset build")

// allocator carves per-RIR address space: /13 blocks for large networks
// and CDNs, /18 for medium, /22 for small, all disjoint within the RIR's
// /5.
type allocator struct {
	next13 map[rpki.RIR]uint64
	// medium and small carving state: the current parent block and the
	// next child index within it. lg13/lgIdx is the same state for the
	// /14 blocks the ScaleLarge path hands large networks and CDNs.
	med13  map[rpki.RIR]netx.Prefix
	medIdx map[rpki.RIR]uint64
	sm18   map[rpki.RIR]netx.Prefix
	smIdx  map[rpki.RIR]uint64
	lg13   map[rpki.RIR]netx.Prefix
	lgIdx  map[rpki.RIR]uint64
}

func newAllocator() *allocator {
	return &allocator{
		next13: make(map[rpki.RIR]uint64),
		med13:  make(map[rpki.RIR]netx.Prefix),
		medIdx: make(map[rpki.RIR]uint64),
		sm18:   make(map[rpki.RIR]netx.Prefix),
		smIdx:  make(map[rpki.RIR]uint64),
		lg13:   make(map[rpki.RIR]netx.Prefix),
		lgIdx:  make(map[rpki.RIR]uint64),
	}
}

func rirBlock(r rpki.RIR) (netx.Prefix, error) {
	p, err := netx.ParsePrefix(fmt.Sprintf("%d.0.0.0/5", 16+8*int(r)))
	if err != nil {
		return netx.Prefix{}, fmt.Errorf("synth: RIR %s block: %w", r, err)
	}
	return p, nil
}

func (a *allocator) take13(r rpki.RIR) (netx.Prefix, error) {
	i := a.next13[r]
	if i >= 1<<8 { // /5 → /13 has 8 spare bits
		return netx.Prefix{}, fmt.Errorf("synth: RIR %s out of /13 blocks", r)
	}
	a.next13[r] = i + 1
	block, err := rirBlock(r)
	if err != nil {
		return netx.Prefix{}, err
	}
	return block.NthSubprefix(13, i)
}

func (a *allocator) take18(r rpki.RIR) (netx.Prefix, error) {
	if !a.med13[r].IsValid() || a.medIdx[r] >= 1<<5 {
		blk, err := a.take13(r)
		if err != nil {
			return netx.Prefix{}, err
		}
		a.med13[r], a.medIdx[r] = blk, 0
	}
	i := a.medIdx[r]
	a.medIdx[r] = i + 1
	return a.med13[r].NthSubprefix(18, i)
}

func (a *allocator) take22(r rpki.RIR) (netx.Prefix, error) {
	if !a.sm18[r].IsValid() || a.smIdx[r] >= 1<<4 {
		blk, err := a.take18(r)
		if err != nil {
			return netx.Prefix{}, err
		}
		a.sm18[r], a.smIdx[r] = blk, 0
	}
	i := a.smIdx[r]
	a.smIdx[r] = i + 1
	return a.sm18[r].NthSubprefix(22, i)
}

// prefixPlan is one announced prefix and the registration state the
// generator decided for it.
type prefixPlan struct {
	prefix netx.Prefix
	// rpki: "valid", "none", "invalid-asn", "invalid-length"
	rpki string
	// irr: "valid", "none", "invalid-asn", "invalid-length"
	irr string
}

// populateAS allocates address space, chooses announced prefixes, and
// realizes the AS's RPKI/IRR registration behavior.
func (w *World) populateAS(rng *rand.Rand, info *asInfo, alloc *allocator, irrDBs map[rpki.RIR]*irr.Database, radb *irr.Database) error {
	cfg := w.Config

	// Quiescent ASes: a fraction of MANRS ISP members (§8.3: 95 of 849)
	// and most sibling ASes of multi-AS orgs announce nothing.
	isSibling := len(w.OrgASNs[info.orgID]) > 1 && w.OrgASNs[info.orgID][0] != info.asn
	if isSibling && rng.Float64() < 0.60 {
		return nil
	}
	if info.member && !info.cdn && rng.Float64() < cfg.QuietMemberISP {
		return nil
	}

	// Allocate a block and pick announced prefixes.
	var block netx.Prefix
	var err error
	switch {
	case info.cdn || info.class == manrs.Large:
		block, err = alloc.take13(info.rir)
	case info.class == manrs.Medium:
		block, err = alloc.take18(info.rir)
	default:
		block, err = alloc.take22(info.rir)
	}
	if err != nil {
		return err
	}
	prefixes := w.choosePrefixes(rng, info, block)

	// Decide the RPKI and IRR regimes.
	member := info.member
	rpkiAll := rng.Float64() < cfg.RPKIAllValid.rate(info.class, member)
	rpkiNone := !rpkiAll && rng.Float64() < cfg.RPKINone.rate(info.class, member)/(1-cfg.RPKIAllValid.rate(info.class, member)+1e-9)
	irrAll := rng.Float64() < cfg.IRRAllValid.rate(info.class, member)
	misconfig := rng.Float64() < cfg.RPKIMisconfig.rate(info.class, member)
	stale := rng.Float64() < cfg.StaleIRR.rate(info.class, member)
	if info.cdn {
		// §8.3: 3 of 21 MANRS CDNs missed the 100% bar by a handful of
		// prefixes out of thousands — give CDNs a matching defect rate.
		misconfig = rng.Float64() < 0.18
		stale = rng.Float64() < 0.22
	}

	if info.cdn && info.member {
		// §8.6: the CDN-program giants (Amazon, Cloudflare) signed ROAs
		// for >1,700 prefixes on joining, driving the post-2020 surge in
		// MANRS RPKI saturation (Fig. 6).
		rpkiAll = rng.Float64() < 0.5
		rpkiNone = false
	}
	rpkiFrac := 0.0
	if rpkiAll {
		rpkiFrac = 1.0
	} else if !rpkiNone {
		rpkiFrac = 0.2 + 0.7*rng.Float64()
	}
	if info.cdn && info.member && !rpkiAll {
		rpkiFrac = 0.6 + 0.4*rng.Float64()
	}
	irrFrac := 0.55 + 0.4*rng.Float64()
	if irrAll {
		irrFrac = 1.0
	} else if rng.Float64() < 0.05 {
		irrFrac = 0.0 // the rare fully-unregistered network
	}

	plans := make([]prefixPlan, len(prefixes))
	for i, p := range prefixes {
		plan := prefixPlan{prefix: p, rpki: "none", irr: "none"}
		if rng.Float64() < rpkiFrac {
			plan.rpki = "valid"
		}
		// The covering block gets a ROA only in the all-valid regime
		// (signed with a max length spanning the announced
		// more-specifics, like real aggregate ROAs); a bare exact-length
		// block ROA would turn every unsigned more-specific InvalidLength,
		// which real per-prefix signers avoid.
		if i == 0 && p == block && !rpkiAll {
			plan.rpki = "none"
		}
		if rng.Float64() < irrFrac {
			plan.irr = "valid"
		} else if irrFrac > 0 && rng.Float64() < 0.6 {
			// Unregistered more-specifics under a registered block show up
			// as IRR invalid-length — tolerated by the conformance rule.
			plan.irr = "invalid-length"
		}
		plans[i] = plan
	}
	if misconfig && len(plans) > 0 {
		// One or two bad ROAs: wrong ASN (AS0 or a sibling), or — for
		// small networks only — a too-short max length realized via a
		// block-level ROA. The block variant poisons every uncovered
		// more-specific at once, which matches the handful of prefixes a
		// small network announces but would swamp a large one (Table 1:
		// only ~1% of case-study invalids were RPKI Invalid).
		for k := 0; k < 1+rng.Intn(2) && k < len(plans); k++ {
			i := rng.Intn(len(plans))
			if info.class == manrs.Small && plans[0].rpki != "valid" && rng.Float64() < 0.5 {
				plans[i].rpki = "invalid-length"
			} else {
				plans[i].rpki = "invalid-asn"
			}
		}
	}
	if stale && len(plans) > 0 {
		// Stale route objects scale with portfolio size: the paper's
		// case-study ISPs carried hundreds of IRR-invalid prefix-origins
		// out of thousands announced (Table 1: 272–486). Prefer prefixes
		// without ROAs so the pair lands in the "IRR Invalid & RPKI
		// NotFound" bucket rather than being rescued by RPKI.
		nStale := 1 + rng.Intn(3)
		if info.class == manrs.Large || info.cdn {
			nStale = 1 + int(float64(len(plans))*(0.03+0.07*rng.Float64()))
		}
		var uncovered []int
		for i := range plans {
			if plans[i].rpki == "none" {
				uncovered = append(uncovered, i)
			}
		}
		for k := 0; k < nStale && k < len(plans); k++ {
			var i int
			if len(uncovered) > 0 {
				j := rng.Intn(len(uncovered))
				i = uncovered[j]
				uncovered = append(uncovered[:j], uncovered[j+1:]...)
			} else {
				i = rng.Intn(len(plans))
			}
			plans[i].irr = "invalid-asn"
		}
	}

	// Announce.
	for _, plan := range plans {
		w.origTab.rows = append(w.origTab.rows, astopo.Origination{Prefix: plan.prefix, Origin: info.asn})
	}

	// Realize RPKI state through real signed objects.
	if err := w.realizeRPKI(rng, info, block, plans); err != nil {
		return err
	}
	// Realize IRR state through route objects.
	if err := w.realizeIRR(rng, info, block, plans, stale, irrDBs, radb); err != nil {
		return err
	}

	return nil
}

// addChurn draws the §8.5 conformance-stability churn after every AS
// has announced: a small fraction of networks temporarily mis-originate
// a more-specific of some *other* network's space (a short-lived leak)
// for part of the February–May window of the final study year. The
// leaked pair is RPKI/IRR-invalid against the victim's registrations,
// so the leaker's Action 4 conformance dips in the snapshots the window
// covers. It returns each leak's window; the generated rows, each AS's
// together in AS order, are left as they are.
func (w *World) addChurn(rng *rand.Rand) map[astopo.Origination]window {
	// Each announcing AS's first announcement, in AS order.
	rows := w.origTab.rows
	var firsts []astopo.Origination
	for i, og := range rows {
		if i == 0 || og.Origin != rows[i-1].Origin {
			firsts = append(firsts, og)
		}
	}
	if len(firsts) < 2 {
		return nil
	}
	year := w.Config.EndYear
	churn := make(map[astopo.Origination]window)
	for _, leaker := range firsts {
		if rng.Float64() >= 0.02 {
			continue
		}
		victim := firsts[rng.Intn(len(firsts))]
		if victim.Origin == leaker.Origin {
			continue
		}
		base := victim.Prefix
		if base.Bits()+2 > 28 {
			continue
		}
		extra, err := base.NthSubprefix(base.Bits()+2, 1)
		if err != nil {
			continue
		}
		churn[astopo.Origination{Prefix: extra, Origin: leaker.Origin}] = window{
			from: time.Date(year, 2, 10, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(20)) * 24 * time.Hour),
			to:   time.Date(year, 3, 15, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(30)) * 24 * time.Hour),
		}
	}
	return churn
}

func (w *World) choosePrefixes(rng *rand.Rand, info *asInfo, block netx.Prefix) []netx.Prefix {
	var out []netx.Prefix
	sub := func(bits int, i uint64) {
		p, err := block.NthSubprefix(bits, i)
		if err == nil {
			out = append(out, p)
		}
	}
	switch {
	case info.cdn:
		// CDNs announce large swarms of /24s (§8.3: top CDNs >3,500
		// prefixes; scaled here).
		n := 80 + rng.Intn(220)
		seen := map[uint64]bool{}
		for len(seen) < n {
			i := uint64(rng.Intn(1 << 11)) // /13 → /24 has 11 spare bits
			if !seen[i] {
				seen[i] = true
				sub(24, i)
			}
		}
	case info.class == manrs.Large:
		out = append(out, block)
		// A mix of /20s and /22s; bound each draw pool so the sampler
		// always terminates.
		n20 := 30 + rng.Intn(70) // of 128 possible /20s
		seen := map[uint64]bool{}
		for len(seen) < n20 {
			i := uint64(rng.Intn(1 << 7))
			if !seen[i] {
				seen[i] = true
				sub(20, i)
			}
		}
		n22 := 10 + rng.Intn(60) // of 512 possible /22s
		seen22 := map[uint64]bool{}
		for len(seen22) < n22 {
			i := uint64(rng.Intn(1 << 9))
			if !seen22[i] {
				seen22[i] = true
				sub(22, i)
			}
		}
	case info.class == manrs.Medium:
		out = append(out, block)
		n := 3 + rng.Intn(20)
		seen := map[uint64]bool{}
		for len(seen) < n && len(seen) < 60 {
			i := uint64(rng.Intn(1 << 6)) // /18 → /24
			if !seen[i] {
				seen[i] = true
				sub(24, i)
			}
		}
	default:
		out = append(out, block)
		// 75th percentile of small networks originates ≤5 prefixes (§8.1).
		n := rng.Intn(5)
		seen := map[uint64]bool{}
		for len(seen) < n {
			i := uint64(rng.Intn(1 << 2)) // /22 → /24
			if !seen[i] {
				seen[i] = true
				sub(24, i)
			}
		}
	}
	return out
}

// roaYear picks the registration year for a ROA: members adopt earlier
// and CDN-program members register in bulk from 2020 (Fig. 6).
func (w *World) roaYear(rng *rand.Rand, info *asInfo) int {
	if info.cdn && info.member {
		return 2020 + rng.Intn(2)
	}
	r := rng.Float64()
	if info.member {
		switch {
		case r < 0.06:
			return 2015
		case r < 0.14:
			return 2016
		case r < 0.24:
			return 2017
		case r < 0.38:
			return 2018
		case r < 0.55:
			return 2019
		case r < 0.75:
			return 2020
		case r < 0.92:
			return 2021
		default:
			return 2022
		}
	}
	switch {
	case r < 0.03:
		return 2015
	case r < 0.07:
		return 2016
	case r < 0.13:
		return 2017
	case r < 0.22:
		return 2018
	case r < 0.36:
		return 2019
	case r < 0.58:
		return 2020
	case r < 0.83:
		return 2021
	default:
		return 2022
	}
}

// wrongOrigin picks the ASN a mismatching registry object points at.
// Table 1 finds that more than half of mismatching origins are siblings
// of, or in a customer-provider relationship with, the announcing org, so
// the generator prefers those.
func (w *World) wrongOrigin(rng *rand.Rand, info *asInfo) uint32 {
	roll := rng.Float64()
	if roll < 0.45 {
		for _, sib := range w.OrgASNs[info.orgID] {
			if sib != info.asn {
				return sib
			}
		}
	}
	if roll < 0.82 {
		if a := w.Graph.AS(info.asn); a != nil && len(a.Providers) > 0 {
			return a.Providers[rng.Intn(len(a.Providers))]
		}
	}
	return info.asn + 9 // unrelated
}

func (w *World) realizeRPKI(rng *rand.Rand, info *asInfo, block netx.Prefix, plans []prefixPlan) error {
	ca := w.Anchors[info.rir]
	notAfter := time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC)
	sign := func(asn uint32, p netx.Prefix, maxLen int) error {
		year := w.roaYear(rng, info)
		notBefore := time.Date(year, time.Month(1+rng.Intn(11)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		roa, err := ca.NewROA(asn, []rpki.ROAPrefix{{Prefix: p, MaxLength: maxLen}}, notBefore, notAfter)
		if err != nil {
			return err
		}
		w.Repo.AddROA(roa) // unsigned until signRepository
		return nil
	}
	// deepest announced prefix length within the block: aggregate ROAs
	// are signed with a covering max length, like operators do.
	deepest := block.Bits()
	for _, plan := range plans {
		if plan.prefix.Bits() > deepest {
			deepest = plan.prefix.Bits()
		}
	}
	blockROASigned := false
	for _, plan := range plans {
		switch plan.rpki {
		case "valid":
			maxLen := plan.prefix.Bits()
			if plan.prefix == block {
				maxLen = deepest
			}
			if err := sign(info.asn, plan.prefix, maxLen); err != nil {
				return err
			}
		case "invalid-asn":
			// AS0 (the §8.1 Indonesian-ISP case) or, more often, a sibling
			// or provider ASN holds the ROA (Table 1).
			bad := uint32(0)
			if rng.Float64() < 0.8 {
				bad = w.wrongOrigin(rng, info)
			}
			if err := sign(bad, plan.prefix, plan.prefix.Bits()); err != nil {
				return err
			}
		case "invalid-length":
			// Cover via a block-level ROA whose max length is too short.
			if !blockROASigned {
				if err := sign(info.asn, block, block.Bits()); err != nil {
					return err
				}
				blockROASigned = true
			}
		}
	}
	return nil
}

func (w *World) realizeIRR(rng *rand.Rand, info *asInfo, block netx.Prefix, plans []prefixPlan, stale bool, irrDBs map[rpki.RIR]*irr.Database, radb *irr.Database) error {
	auth := irrDBs[info.rir]
	var addErr error
	add := func(p netx.Prefix, origin uint32) {
		if err := auth.AddRoute(p, origin); err != nil && addErr == nil {
			addErr = err
		}
		if rng.Float64() < 0.5 { // mirrored into RADB
			if err := radb.AddRoute(p, origin); err != nil && addErr == nil {
				addErr = err
			}
		}
	}
	// Stale large networks (Finding 8.2: RPKI adopters leaving IRR
	// unmaintained) have no correct aggregate object either — otherwise
	// the aggregate would rescue every stale exact object into the
	// tolerated invalid-length bucket and Table 1 would be empty.
	skipBlock := stale && (info.class == manrs.Large || info.cdn)
	blockRegistered := false
	for _, plan := range plans {
		switch plan.irr {
		case "valid":
			add(plan.prefix, info.asn)
		case "invalid-length":
			if !blockRegistered && plan.prefix != block && !skipBlock {
				add(block, info.asn)
				blockRegistered = true
			}
		case "invalid-asn":
			// Stale object pointing at a previous holder — usually a
			// sibling or the upstream provider (Table 1).
			add(plan.prefix, w.wrongOrigin(rng, info))
		}
	}
	return addErr
}

// populateContacts fills the PeeringDB-style registry (Action 3):
// members keep contact records fresher than non-members, but neither
// group is perfect — records go stale and some networks never register.
func (w *World) populateContacts(rng *rand.Rand, infos []*asInfo) {
	end := w.Date(w.Config.EndYear)
	for _, info := range infos {
		registerP, freshP := 0.80, 0.80
		if info.member {
			registerP, freshP = 0.98, 0.92
		}
		if rng.Float64() >= registerP {
			continue
		}
		updated := end.AddDate(0, -rng.Intn(20), 0) // within ~1.6 years
		if rng.Float64() >= freshP {
			updated = end.AddDate(-3, -rng.Intn(12), 0) // stale
		}
		n := peeringdb.Network{
			ASN:     info.asn,
			Name:    fmt.Sprintf("Org %d", info.asn),
			Updated: updated,
			Contacts: []peeringdb.Contact{
				{Role: "NOC", Email: fmt.Sprintf("noc@as%d.example", info.asn)},
			},
		}
		// A sliver of records carry no usable contact.
		if rng.Float64() < 0.03 {
			n.Contacts = nil
		}
		w.PeeringDB.Upsert(n)
	}
}

// assignPolicies gives each AS its filtering behavior per the cohort
// rates.
func (w *World) assignPolicies(rng *rand.Rand, infos []*asInfo) {
	cfg := w.Config
	for _, info := range infos {
		var pol ihr.Policy
		if rng.Float64() < cfg.ROVDeploy.rate(info.class, info.member) {
			pol.DropRPKIInvalid = true
		}
		if rng.Float64() < cfg.IRRFilter.rate(info.class, info.member) {
			pol.DropIRRInvalidCustomers = true
			pol.IRRFilterMissRate = 0.10
		}
		if pol.DropRPKIInvalid || pol.DropIRRInvalidCustomers {
			w.Policies[info.asn] = pol
		}
	}
}

// pickVantagePoints selects the collector peers: every tier-1/large AS
// plus a sample of mediums, mirroring where RouteViews/RIS peers sit.
func (w *World) pickVantagePoints(rng *rand.Rand, infos []*asInfo) {
	var mediums []uint32
	for _, info := range infos {
		switch info.class {
		case manrs.Large:
			w.VantagePoints = append(w.VantagePoints, info.asn)
		case manrs.Medium:
			mediums = append(mediums, info.asn)
		}
	}
	for _, i := range rng.Perm(len(mediums)) {
		if len(w.VantagePoints) >= w.Config.Tier1s+w.Config.LargeISPs+16 {
			break
		}
		w.VantagePoints = append(w.VantagePoints, mediums[i])
	}
}

// VRPsAt is VRPsAtCtx without cancellation, at one worker per CPU.
func (w *World) VRPsAt(t time.Time) ([]rpki.VRP, error) {
	return w.VRPsAtCtx(context.Background(), t, 0)
}

// VRPsAtCtx runs the relying party at time t and returns the validated
// ROA payloads — the per-date VRP archive (Fig. 6 input). Every run walks
// the chains and evaluates windows, lag and containment at t; only
// signature verdicts carry over from earlier runs of this world and its
// forks. ROA checks fan out over workers goroutines (≤ 0 means one per
// CPU) with the same result at any count; a context done mid-run yields
// its cause and no VRPs.
func (w *World) VRPsAtCtx(ctx context.Context, t time.Time, workers int) ([]rpki.VRP, error) {
	if w.Repo == nil {
		return nil, fmt.Errorf("synth: no RPKI repository to validate at %s: the world was read from files", t.Format(time.DateOnly))
	}
	rp, err := w.relyingPartyAt(t, w.sigMemo)
	if err != nil {
		return nil, err
	}
	vrps, _, err := rp.Run(ctx, w.Repo, workers)
	return vrps, err
}

// relyingPartyAt returns the world's relying party evaluating at t: the
// trust anchors whose relying party has not failed, and the world's ROA
// visibility lag. Tests pass a nil memo for the oracle VRPsAt must match.
func (w *World) relyingPartyAt(t time.Time, memo *rpki.VerdictMemo) (*rpki.RelyingParty, error) {
	anchors := make([]*rpki.Certificate, 0, len(w.Anchors))
	for _, r := range rpki.AllRIRs {
		if w.failedRPs[r] {
			// The relying party for this trust anchor has failed
			// (scenario injection): its VRPs drop out entirely, and
			// verdicts under it degrade Invalid/Valid → NotFound.
			continue
		}
		anchors = append(anchors, w.Anchors[r].Cert)
	}
	rp, err := rpki.NewRelyingPartyMemo(memo, anchors...)
	if err != nil {
		return nil, err
	}
	rp.Now = t
	rp.ROAVisibilityLag = w.roaLag
	return rp, nil
}

// ViewCacheCap bounds how many dates a world remembers: the headline
// date plus a stability loop's dozen weekly snapshots fit with room to
// spare. The serving layer caps its published snapshots at the same
// number.
const ViewCacheCap = 16

// View is a world's state at one date, computed once by At and shared
// by every consumer of that date: the validated ROA payloads in
// relying-party order, the RPKI index built from them, the IRR index
// (IRR snapshots barely change over the paper's study window, so it is
// the registry's, whatever the date), and — built on first use — the
// IHR dataset. A view is immutable; one taken before a mutation of its
// world describes the world as it was.
type View struct {
	Date      time.Time
	VRPs      []rpki.VRP
	RPKI, IRR *rov.Index

	w  *World
	ds atomic.Pointer[ihr.Dataset]
}

// At returns the world's view at t, running the relying party only if no
// earlier call for t finished first. ctx and workers are VRPsAtCtx's; a
// failed or cancelled run is not remembered, so a later call starts
// over. The cache holds ViewCacheCap dates, oldest out first but the
// headline kept, and is emptied by every mutation.
func (w *World) At(ctx context.Context, t time.Time, workers int) (*View, error) {
	key := t.Unix()
	w.viewMu.Lock()
	v := w.views[key]
	w.viewMu.Unlock()
	if v != nil {
		return v, nil
	}
	vrps, err := w.VRPsAtCtx(ctx, t, workers)
	if err != nil {
		return nil, err
	}
	rpkiIx, err := rpki.BuildIndex(vrps)
	if err != nil {
		return nil, err
	}
	irrIx, err := w.IRRRegistry.Index()
	if err != nil {
		return nil, err
	}
	return w.remember(&View{Date: t, VRPs: vrps, RPKI: rpkiIx, IRR: irrIx, w: w}), nil
}

// Adopt installs state restored from a verified archive of this world
// (its fingerprint matched) as the view at t, so the date is served
// without a relying-party run or a dataset build. If t already has a
// view that one is kept, and receives ds if it has no dataset yet. An
// adopted view lists its VRPs in the archive's order, not the relying
// party's.
func (w *World) Adopt(t time.Time, rpkiAuths, irrAuths []rov.Authorization, ds *ihr.Dataset) (*View, error) {
	v := &View{Date: t, VRPs: make([]rpki.VRP, len(rpkiAuths)), IRR: rov.NewIndex(), w: w}
	v.IRR.Grow(len(irrAuths))
	for i, a := range rpkiAuths {
		v.VRPs[i] = rpki.VRP{Prefix: a.Prefix, ASN: a.ASN, MaxLength: a.MaxLength}
	}
	var err error
	if v.RPKI, err = rpki.BuildIndex(v.VRPs); err != nil {
		return nil, err
	}
	for _, a := range irrAuths {
		if err := v.IRR.Add(a); err != nil {
			return nil, err
		}
	}
	v = w.remember(v)
	v.ds.CompareAndSwap(nil, ds)
	return v, nil
}

// remember caches v under its date unless a concurrent caller got there
// first, and returns the cached view. A full cache drops its oldest
// date other than the headline, whose view the serving layer's pinned
// snapshot and its scenarios read.
func (w *World) remember(v *View) *View {
	key := v.Date.Unix()
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	if cached := w.views[key]; cached != nil {
		return cached
	}
	if w.views == nil {
		w.views = make(map[int64]*View)
	}
	if len(w.viewDates) >= ViewCacheCap {
		i := 0
		if w.viewDates[0] == w.Date(w.Config.EndYear).Unix() {
			i = 1
		}
		delete(w.views, w.viewDates[i])
		w.viewDates = append(w.viewDates[:i], w.viewDates[i+1:]...)
	}
	w.views[key] = v
	w.viewDates = append(w.viewDates, key)
	return v
}

// Dataset returns the IHR view of the world at the view's date: the
// active announcements validated against the view's registries and
// propagated under every AS's filtering policy across workers
// goroutines (≤ 0 means one per CPU). The first build to finish is kept
// and shared; a failed or cancelled build returns its cause and keeps
// nothing. The graph is never mutated, so builds may run concurrently.
func (v *View) Dataset(ctx context.Context, workers int) (*ihr.Dataset, error) {
	if ds := v.ds.Load(); ds != nil {
		return ds, nil
	}
	ctx, span := obsv.StartSpan(ctx, "dataset.build", obsv.KV("date", v.Date.Format("2006-01-02")))
	defer span.End()
	start := time.Now()
	defer func() { mDatasetBuild.Observe(time.Since(start).Seconds()) }()
	ds, err := ihr.BuildCtx(ctx, ihr.Config{
		Graph:         v.w.Graph,
		RPKI:          v.RPKI,
		IRR:           v.IRR,
		Policies:      v.w.Policies,
		VantagePoints: v.w.VantagePoints,
		Originations:  v.w.OriginationsAt(v.Date),
		Workers:       workers,
		Templates:     v.w.templates,
	})
	if err != nil {
		return nil, err
	}
	if !v.ds.CompareAndSwap(nil, ds) {
		ds = v.ds.Load() // a concurrent build finished first; share its result
	}
	return ds, nil
}
