package scenario

import (
	"context"
	"fmt"
	"time"

	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/synth"
)

// Builtin scenario names, in presentation order.
const (
	NameAS0Hijack    = "as0-hijack"
	NameExpiredCerts = "expired-certs"
	NameRPFailure    = "rp-failure"
	NameAnchorPairs  = "anchor-pairs"
	NameROADelay     = "roa-delay"
)

// Names lists the builtin scenarios in presentation order.
func Names() []string {
	return []string{NameAS0Hijack, NameExpiredCerts, NameRPFailure, NameAnchorPairs, NameROADelay}
}

// wrongOriginASN is the adversary ASN wrong-origin hijack ROAs point
// at. It needs no AS in the graph: a ROA's ASN is just an authorization
// target, and aiming it at a stranger turns the victim's own
// announcement RPKI-invalid.
const wrongOriginASN = 65551

// Builtin derives the named builtin scenario from the world as of
// date. Each builtin's events are a pure function of the world (no
// RNG): the same world and date always yield the same list, so runs
// are byte-stable across processes and worker counts. Unknown names
// return an error listing the known ones.
func Builtin(ctx context.Context, name string, w *synth.World, date time.Time) (*Scenario, error) {
	switch name {
	case NameAS0Hijack:
		return buildAS0Hijack(ctx, w, date)
	case NameExpiredCerts:
		// Half of the two biggest RIRs' ROAs re-homed onto CAs that
		// expired 30 days before evaluation: the stale-manifest /
		// expired-chain scenario.
		return &Scenario{Name: NameExpiredCerts, Events: []Event{
			{Op: OpExpire, RIR: rpki.RIPE, Frac: 0.5, Skew: 720 * time.Hour},
			{Op: OpExpire, RIR: rpki.ARIN, Frac: 0.5, Skew: 720 * time.Hour},
		}}, nil
	case NameRPFailure:
		// One RIR's relying party fails outright; every VRP it anchored
		// disappears and dependent verdicts degrade toward NotFound.
		return &Scenario{Name: NameRPFailure, Events: []Event{
			{Op: OpRPFail, RIR: rpki.RIPE},
		}}, nil
	case NameAnchorPairs:
		return buildAnchorPairs(w, date)
	case NameROADelay:
		// 90-day lag between ROA creation and relying-party visibility
		// (rov-timing): recently created ROAs vanish from the VRP set.
		return &Scenario{Name: NameROADelay, Events: []Event{
			{Op: OpROADelay, Lag: 2160 * time.Hour},
		}}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown builtin %q (have %v)", name, Names())
	}
}

// buildAS0Hijack targets up to ten RPKI-NotFound originations with
// distinct victim ASes — the unprotected announcements an adversarial
// ROA can actually damage — alternating AS0 and wrong-origin hijack
// ROAs over each victim's exact prefix. Verdicts flip NotFound→Invalid
// and conformance drops.
func buildAS0Hijack(ctx context.Context, w *synth.World, date time.Time) (*Scenario, error) {
	view, err := w.At(ctx, date, 0)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", NameAS0Hijack, err)
	}
	rpkiIx, irrIx := view.RPKI, view.IRR
	sc := &Scenario{Name: NameAS0Hijack}
	seen := map[uint32]bool{}
	for _, og := range w.OriginationsAt(date) {
		if len(sc.Events) >= 10 {
			break
		}
		if seen[og.Origin] || rpkiIx.Validate(og.Prefix, og.Origin) != rov.NotFound {
			continue
		}
		// Skip victims a protective IRR object keeps conformant — the
		// interesting targets are fully unregistered announcements,
		// where the hijack ROA flips conformance, not just the verdict.
		if irrS := irrIx.Validate(og.Prefix, og.Origin); irrS == rov.Valid || irrS == rov.InvalidLength {
			continue
		}
		seen[og.Origin] = true
		ev := Event{Op: OpHijackROA, Prefix: og.Prefix, MaxLen: og.Prefix.Bits()}
		if len(sc.Events)%2 == 1 {
			ev.ASN = wrongOriginASN
		}
		sc.Events = append(sc.Events, ev)
	}
	if len(sc.Events) == 0 {
		return nil, fmt.Errorf("scenario: %s: no RPKI-NotFound originations to target", NameAS0Hijack)
	}
	return sc, nil
}

// buildAnchorPairs picks up to eight originating ASes spread evenly
// across the (sorted) AS space and gives each a Reuter-style
// experiment: two fresh sub-prefixes of space the AS already announces,
// one with a matching ROA (valid anchor) and one with an AS0 ROA
// (invalid anchor). The engine then infers the RPKI-filtering AS set
// from which anchors propagate where, and scores it against the
// generator's ground-truth policies.
func buildAnchorPairs(w *synth.World, date time.Time) (*Scenario, error) {
	type cand struct {
		asn    uint32
		prefix int // index into ogs
	}
	ogs := w.OriginationsAt(date)
	var cands []cand
	lastASN := uint32(0)
	for i, og := range ogs {
		if og.Origin == lastASN || og.Prefix.Is6() || og.Prefix.Bits() > 24 {
			continue
		}
		lastASN = og.Origin
		cands = append(cands, cand{asn: og.Origin, prefix: i})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("scenario: %s: no candidate originations", NameAnchorPairs)
	}
	const pairs = 8
	step := len(cands) / pairs
	if step == 0 {
		step = 1
	}
	sc := &Scenario{Name: NameAnchorPairs}
	for i := 0; i < len(cands) && len(sc.Events) < pairs; i += step {
		c := cands[i]
		parent := ogs[c.prefix].Prefix
		sub := parent.Bits() + 4
		valid, err := parent.NthSubprefix(sub, 1)
		if err != nil {
			continue
		}
		invalid, err := parent.NthSubprefix(sub, 2)
		if err != nil {
			continue
		}
		sc.Events = append(sc.Events, Event{Op: OpAnchorPair, ASN: c.asn, Prefix: valid, Invalid: invalid})
	}
	if len(sc.Events) == 0 {
		return nil, fmt.Errorf("scenario: %s: no viable anchor pairs", NameAnchorPairs)
	}
	return sc, nil
}
