package synth

// Internet-scale generation (ScaleLarge): the seed path realizes every
// prefix individually — per-prefix map entries, per-prefix ROA
// signatures, per-prefix RPSL objects — which is fine at 10k ASes and
// ruinous at 75k ASes / ~1M prefixes (a million Ed25519 signatures to
// create and a million to verify on every relying-party run). The large
// path keeps the same cohort rates but switches the data layout:
//
//   - address space is carved into one flat prefix arena; each AS's
//     announcement list is an index range into it (published as a
//     capacity-clamped subslice, so later appends copy out instead of
//     clobbering a neighbor's range);
//   - RPKI state is realized as one aggregate ROA per AS covering a
//     contiguous run of its /24s (binary range decomposition, a handful
//     of ROAPrefix entries under a single signature), with
//     misconfigurations as wrong-origin ROAs on the uncovered tail;
//   - IRR route objects go into the authoritative per-RIR database in
//     compact form (no RPSL object per route, no RADB mirror).
//
// Carving each AS's span as block-then-ascending-/24s keeps every per-AS
// prefix list already in Origination order, so the sorted-input fast
// paths in OriginationsAt and Graph.Originations skip their sorts.

import (
	"fmt"
	"math/rand"
	"time"

	"manrsmeter/internal/irr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// Scale selects the generator's realization strategy. The zero value is
// the seed path, so existing Configs are unaffected.
type Scale int

const (
	// ScaleSeed realizes every prefix individually (per-prefix ROAs and
	// RPSL objects) — right for worlds up to a few thousand ASes.
	ScaleSeed Scale = iota
	// ScaleLarge uses the arena + aggregate-registration path above —
	// right for internet-scale worlds (~75k ASes, ~1M prefixes).
	ScaleLarge
)

// NewLargeConfig returns the internet-scale preset: ~75k ASes announcing
// ~1M prefixes (12 tier-1s in full mesh, 120 large ISPs, 12k medium
// ISPs, 60k stub ASes, 300 CDNs), with the same behavioral rates as
// NewConfig so the paper's cohort shapes survive the scale-up.
func NewLargeConfig(seed int64) Config {
	cfg := NewConfig(seed)
	cfg.Scale = ScaleLarge
	cfg.Tier1s = 12
	cfg.LargeISPs = 120
	cfg.MediumISPs = 12000
	cfg.SmallASes = 60000
	cfg.CDNs = 300
	cfg.MANRSSmall = 1300
	cfg.MANRSMedium = 700
	cfg.MANRSLarge = 60
	cfg.MANRSCDNs = 80
	return cfg
}

// take14 carves /14 blocks for large networks and CDNs at ScaleLarge.
// (The seed path hands them whole /13s; at 75k ASes that would exhaust
// ARIN's /5, which holds only 256 of them.)
func (a *allocator) take14(r rpki.RIR) (netx.Prefix, error) {
	if !a.lg13[r].IsValid() || a.lgIdx[r] >= 2 {
		blk, err := a.take13(r)
		if err != nil {
			return netx.Prefix{}, err
		}
		a.lg13[r], a.lgIdx[r] = blk, 0
	}
	i := a.lgIdx[r]
	a.lgIdx[r] = i + 1
	return a.lg13[r].NthSubprefix(14, i)
}

// coverRange returns the minimal set of aligned prefixes exactly
// covering subprefix indexes [lo, hi) of block at depth bits — the
// binary decomposition an aggregate ROA uses to authorize a contiguous
// run of more-specifics with a handful of entries.
func coverRange(block netx.Prefix, bits, lo, hi int) ([]netx.Prefix, error) {
	total := 1 << uint(bits-block.Bits())
	if lo < 0 || hi > total || lo > hi {
		return nil, fmt.Errorf("synth: coverRange [%d,%d) out of range for %s at /%d", lo, hi, block, bits)
	}
	if lo == 0 && hi == total {
		return []netx.Prefix{block}, nil
	}
	var out []netx.Prefix
	for lo < hi {
		size := 1
		for lo%(size*2) == 0 && lo+size*2 <= hi {
			size *= 2
		}
		level := bits
		for s := size; s > 1; s >>= 1 {
			level--
		}
		p, err := block.NthSubprefix(level, uint64(lo/size))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		lo += size
	}
	return out, nil
}

// populateLarge is the ScaleLarge counterpart of the per-AS populateAS
// loop: one pass over all ASes carving the arena and realizing
// aggregate RPKI/IRR state.
func (w *World) populateLarge(rng *rand.Rand, infos []*asInfo, irrDBs map[rpki.RIR]*irr.Database) error {
	cfg := w.Config
	alloc := newAllocator()
	type span struct {
		asn    uint32
		lo, hi int32
	}
	spans := make([]span, 0, len(infos))
	capHint := cfg.CDNs*860 + (cfg.Tier1s+cfg.LargeISPs)*260 + cfg.MediumISPs*46 + cfg.SmallASes*4
	w.arena = make([]netx.Prefix, 0, capHint)
	// IRR rows are drawn here in registration order and registered after
	// the loop, each database grown once to its share. An AS registers
	// at most one row per /24 plus its block, so the arena's size plus
	// one per CDN (whose block is not in it) bounds them.
	type irrRow struct {
		rir   rpki.RIR
		route irr.Route
	}
	irrRows := make([]irrRow, 0, capHint+cfg.CDNs)
	var perRIR [rpki.RIPE + 1]int
	notAfter := time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC)

	for _, info := range infos {
		// Quiescence mirrors the seed path: most sibling ASes and a §8.3
		// fraction of MANRS ISP members announce nothing.
		isSibling := len(w.OrgASNs[info.orgID]) > 1 && w.OrgASNs[info.orgID][0] != info.asn
		if isSibling && rng.Float64() < 0.60 {
			continue
		}
		if info.member && !info.cdn && rng.Float64() < cfg.QuietMemberISP {
			continue
		}

		var block netx.Prefix
		var err error
		n := 0
		announceBlock := true
		const carveBits = 24
		switch {
		case info.cdn:
			block, err = alloc.take14(info.rir)
			n = 700 + rng.Intn(300) // /24 swarms (§8.3), block unannounced
			announceBlock = false
		case info.class == manrs.Large:
			block, err = alloc.take14(info.rir)
			n = 150 + rng.Intn(100)
		case info.class == manrs.Medium:
			block, err = alloc.take18(info.rir)
			n = 24 + rng.Intn(40)
		default:
			block, err = alloc.take22(info.rir)
			n = rng.Intn(5)
			if n > 4 {
				n = 4 // a /22 holds four /24s
			}
		}
		if err != nil {
			return err
		}

		// Per-AS regimes, drawn with the seed path's formulas so the
		// cohort rates carry over.
		member := info.member
		rpkiAll := rng.Float64() < cfg.RPKIAllValid.rate(info.class, member)
		rpkiNone := !rpkiAll && rng.Float64() < cfg.RPKINone.rate(info.class, member)/(1-cfg.RPKIAllValid.rate(info.class, member)+1e-9)
		misconfig := rng.Float64() < cfg.RPKIMisconfig.rate(info.class, member)
		stale := rng.Float64() < cfg.StaleIRR.rate(info.class, member)
		irrAll := rng.Float64() < cfg.IRRAllValid.rate(info.class, member)
		if info.cdn {
			misconfig = rng.Float64() < 0.18
			stale = rng.Float64() < 0.22
		}
		if info.cdn && info.member {
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

		// Carve this AS's span out of the arena: the covering block (ISPs
		// announce it, CDNs do not) then an ascending run of /24s.
		lo := int32(len(w.arena))
		if announceBlock {
			w.arena = append(w.arena, block)
		}
		for i := 0; i < n; i++ {
			p, err := block.NthSubprefix(carveBits, uint64(i))
			if err != nil {
				return err
			}
			w.arena = append(w.arena, p)
		}
		hi := int32(len(w.arena))
		spans = append(spans, span{info.asn, lo, hi})
		subs := w.arena[lo:hi]
		if announceBlock {
			subs = subs[1:]
		}

		// RPKI: one aggregate ROA per AS. The leading nValid /24s are
		// covered; misconfigured ASes leave a short tail uncovered and
		// signed by the wrong origin (Table 1's sibling/provider
		// mismatches), or — small networks in the no-RPKI regime — a
		// block-level ROA whose max length is too short, poisoning every
		// announced more-specific at once.
		nValid := int(rpkiFrac*float64(n) + 0.5)
		nBad := 0
		if misconfig && n >= 2 {
			nBad = 1 + rng.Intn(2)
			if nValid > n-nBad {
				nValid = n - nBad
			}
		}
		shortBlockROA := false
		if misconfig && rpkiNone && info.class == manrs.Small && rng.Float64() < 0.5 {
			shortBlockROA = true
			nBad = 0
		}
		sign := func(asn uint32, ps []rpki.ROAPrefix) error {
			year := w.roaYear(rng, info)
			notBefore := time.Date(year, time.Month(1+rng.Intn(11)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
			roa, err := w.Anchors[info.rir].NewROA(asn, ps, notBefore, notAfter)
			if err != nil {
				return err
			}
			w.Repo.AddROA(roa) // unsigned until signRepository
			return nil
		}
		switch {
		case shortBlockROA:
			if err := sign(info.asn, []rpki.ROAPrefix{{Prefix: block, MaxLength: block.Bits()}}); err != nil {
				return err
			}
		case rpkiAll && nBad == 0:
			// Whole block with a max length spanning the announced /24s —
			// the aggregate ROA real operators sign.
			if err := sign(info.asn, []rpki.ROAPrefix{{Prefix: block, MaxLength: carveBits}}); err != nil {
				return err
			}
		case nValid > 0:
			cover, err := coverRange(block, carveBits, 0, nValid)
			if err != nil {
				return err
			}
			ps := make([]rpki.ROAPrefix, len(cover))
			for i, p := range cover {
				ps[i] = rpki.ROAPrefix{Prefix: p, MaxLength: carveBits}
			}
			if err := sign(info.asn, ps); err != nil {
				return err
			}
		}
		for k := 0; k < nBad; k++ {
			bad := uint32(0) // AS0, the §8.1 Indonesian-ISP case
			if rng.Float64() < 0.8 {
				bad = w.wrongOrigin(rng, info)
			}
			p := subs[n-1-k]
			if err := sign(bad, []rpki.ROAPrefix{{Prefix: p, MaxLength: p.Bits()}}); err != nil {
				return err
			}
		}

		// IRR: exact objects for the leading irrFrac share, a covering
		// block object when unregistered more-specifics remain (they
		// classify as the tolerated invalid-length), and stale
		// wrong-origin objects on the tail — all compact, all into the
		// authoritative per-RIR database only.
		addIRR := func(p netx.Prefix, origin uint32) {
			irrRows = append(irrRows, irrRow{info.rir, irr.Route{Prefix: p, Origin: origin}})
			perRIR[info.rir]++
		}
		nIRR := int(irrFrac*float64(n) + 0.5)
		nStale := 0
		if stale {
			nStale = 1 + rng.Intn(3)
			if info.class == manrs.Large || info.cdn {
				nStale = 1 + int(float64(n)*(0.03+0.07*rng.Float64()))
			}
			if nStale > n-nIRR {
				nStale = n - nIRR
			}
		}
		// Stale large networks have no correct covering object either
		// (Finding 8.2) — otherwise the block would rescue every stale
		// exact object into the tolerated invalid-length bucket.
		skipBlock := stale && (info.class == manrs.Large || info.cdn)
		if irrFrac > 0 && !skipBlock && (announceBlock || nIRR < n) {
			addIRR(block, info.asn)
		}
		for i := 0; i < nIRR; i++ {
			addIRR(subs[i], info.asn)
		}
		for k := 0; k < nStale; k++ {
			addIRR(subs[n-1-k], w.wrongOrigin(rng, info))
		}
	}

	var dbs [rpki.RIPE + 1]*irr.Database
	for rir, n := range perRIR {
		if n > 0 {
			dbs[rir] = irrDBs[rpki.RIR(rir)]
			dbs[rir].Grow(n)
		}
	}
	for _, r := range irrRows {
		if err := dbs[r.rir].AddRoute(r.route.Prefix, r.route.Origin); err != nil {
			return err
		}
	}

	// Publish the arena views: allPrefixes and the graph share one
	// backing array. Capacity is clamped to each span's end so a later
	// append (the §8.5 churn prefixes) copies the slice out rather than
	// overwriting the next AS's range.
	for _, s := range spans {
		view := w.arena[s.lo:s.hi:s.hi]
		w.allPrefixes[s.asn] = view
		if a := w.Graph.AS(s.asn); a != nil {
			a.Prefixes = view
		}
	}
	return nil
}
