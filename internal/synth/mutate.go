// Scenario mutation API: copy-on-write forks of a generated World plus
// the typed mutations the adversarial scenario engine
// (internal/scenario) applies. A fork shares every immutable structure
// with its base — the graph, registries, policies and the origination
// table — so forking an internet-scale world copies no announcement.
// Mutators write only what the fork owns (its cloned repository, its
// own origination table, its counters), so the base world stays
// byte-identical and may keep serving queries concurrently.
package synth

import (
	"fmt"
	"slices"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// Fork returns a mutable copy-on-write view of the world for scenario
// injection, tagged so its Fingerprint (and every snapshot version
// derived from it) diverges from the base. The fork shares the graph,
// registries, policies, vantage points and the origination table with
// the base; the RPKI repository is shallow-cloned so ROAs can be
// replaced, and the view cache starts empty. The base world is never
// mutated through the fork, WriteFiles included; the two things a fork
// writes that its base reads are the signature-verdict memo, whose
// entries are pure functions of the signed bytes, and the route-tree
// template table, whose entries are pure functions of the graph,
// policies and vantage points both worlds share and of the template
// key. The graph is topology only and no mutator touches it, so it is
// never copied; AddOrigination gives the fork a table of its own.
func (w *World) Fork(tag string) *World {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	nw := &World{
		Config:        w.Config,
		Graph:         w.Graph,
		MANRS:         w.MANRS,
		Anchors:       w.Anchors,
		Repo:          w.Repo.Clone(),
		IRRRegistry:   w.IRRRegistry,
		Policies:      w.Policies,
		VantagePoints: w.VantagePoints,
		OrgASNs:       w.OrgASNs,
		PeeringDB:     w.PeeringDB,
		origTab:       w.originations(),
		sigMemo:       w.sigMemo,
		templates:     w.templates,
		scenarioTag:   tag,
		mutations:     w.mutations,
		roaLag:        w.roaLag,
	}
	if len(w.failedRPs) > 0 {
		nw.failedRPs = make(map[rpki.RIR]bool, len(w.failedRPs))
		for r, v := range w.failedRPs {
			nw.failedRPs[r] = v
		}
	}
	nw.fingerprint = nw.computeFingerprint()
	return nw
}

// Scenario returns the scenario tag this world was forked under, or ""
// for a pristine world.
func (w *World) Scenario() string { return w.scenarioTag }

// Mutations returns how many scenario mutations this world absorbed.
func (w *World) Mutations() int { return w.mutations }

// FailedRPs returns the RIRs whose relying party has been failed, in
// RIR order.
func (w *World) FailedRPs() []rpki.RIR {
	var out []rpki.RIR
	for _, r := range rpki.AllRIRs {
		if w.failedRPs[r] {
			out = append(out, r)
		}
	}
	return out
}

// ROAVisibilityLag returns the configured ROA propagation delay.
func (w *World) ROAVisibilityLag() time.Duration { return w.roaLag }

// mutated records one absorbed mutation and invalidates every cached
// view: the next At sees the mutated world.
func (w *World) mutated() {
	w.viewMu.Lock()
	w.mutations++
	w.fingerprint = w.computeFingerprint()
	w.views = nil
	w.viewDates = nil
	w.viewMu.Unlock()
}

// AddOrigination makes asn additionally announce p (a scenario
// announcement: a hijack, or a Reuter-style anchor prefix). The
// announcement is active from the beginning of time — no churn window —
// and appears in OriginationsAt and datasets built afterwards. The AS
// must exist in the graph. The world's table is shared with its base
// or forks, so the next read copies it once, with every origination
// added since, into a table of this world's own.
func (w *World) AddOrigination(asn uint32, p netx.Prefix) error {
	if w.Graph.AS(asn) == nil {
		return fmt.Errorf("synth: AddOrigination AS%d: no such AS", asn)
	}
	if !p.IsValid() {
		return fmt.Errorf("synth: AddOrigination AS%d: invalid prefix", asn)
	}
	og := astopo.Origination{Prefix: p, Origin: asn}
	w.origMu.Lock()
	at, added := slices.BinarySearchFunc(w.origAdd, og, compareOriginations)
	if added || w.origTab.has(og) {
		w.origMu.Unlock()
		return nil // already announced; idempotent
	}
	w.origAdd = slices.Insert(w.origAdd, at, og)
	w.origMu.Unlock()
	w.mutated()
	return nil
}

// PublishROA signs and publishes a new ROA under the RIR's trust
// anchor (a scenario injection: an AS0 or wrong-origin hijack ROA, or a
// Reuter anchor authorization). The validity window is the caller's —
// backdating NotBefore makes the ROA visible immediately even under a
// visibility lag.
func (w *World) PublishROA(r rpki.RIR, asn uint32, prefixes []rpki.ROAPrefix, notBefore, notAfter time.Time) error {
	ca, ok := w.Anchors[r]
	if !ok {
		return fmt.Errorf("synth: PublishROA: no anchor for RIR %s", r)
	}
	roa, err := ca.SignROA(asn, prefixes, notBefore, notAfter)
	if err != nil {
		return fmt.Errorf("synth: PublishROA: %w", err)
	}
	w.Repo.AddROA(roa)
	w.mutated()
	return nil
}

// FailRelyingParty marks the RIR's relying party as failed: its trust
// anchor is dropped from VRPsAt runs, so every VRP it anchored
// disappears and dependent verdicts degrade toward NotFound (never
// toward Valid — see the rov downgrade tests).
func (w *World) FailRelyingParty(r rpki.RIR) {
	if w.failedRPs == nil {
		w.failedRPs = make(map[rpki.RIR]bool, 1)
	}
	if w.failedRPs[r] {
		return
	}
	w.failedRPs[r] = true
	w.mutated()
}

// SetROAVisibilityLag configures the ROA propagation delay: every ROA
// is invisible to the relying party until NotBefore+d.
func (w *World) SetROAVisibilityLag(d time.Duration) {
	if w.roaLag == d {
		return
	}
	w.roaLag = d
	w.mutated()
}

// RIRForPrefix returns the RIR whose /5 block contains p.
func RIRForPrefix(p netx.Prefix) (rpki.RIR, error) {
	for _, r := range rpki.AllRIRs {
		block, err := rirBlock(r)
		if err != nil {
			return 0, err
		}
		if block.Covers(p) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("synth: prefix %s outside every RIR block", p)
}

// RehomeROAs re-parents a deterministic fraction of the RIR's ROAs onto
// a freshly issued delegated CA with the given expiry, leaving payloads
// (ASN, prefixes, windows) unchanged. With certNotAfter in the past at
// evaluation time this is the stale/expired-certificate scenario: the
// re-homed ROAs' chains break and their VRPs drop. It returns how many
// ROAs moved.
func (w *World) RehomeROAs(r rpki.RIR, frac float64, certNotBefore, certNotAfter time.Time) (int, error) {
	ca, ok := w.Anchors[r]
	if !ok {
		return 0, fmt.Errorf("synth: RehomeROAs: no anchor for RIR %s", r)
	}
	block, err := rirBlock(r)
	if err != nil {
		return 0, err
	}
	sub, err := ca.IssueCA(fmt.Sprintf("scenario:%s", r), []netx.Prefix{block}, certNotBefore, certNotAfter)
	if err != nil {
		return 0, fmt.Errorf("synth: RehomeROAs: issue CA: %w", err)
	}
	w.Repo.AddCert(sub.Cert)

	signer := ca.Cert.SubjectName
	moved := 0
	acc := 0.0
	for i, roa := range w.Repo.ROAs() {
		if roa.SignerName != signer {
			continue
		}
		// Deterministic fractional selection: an error-diffusion
		// accumulator picks ⌈frac·n⌉-ish ROAs evenly, with no RNG.
		acc += frac
		if acc < 1 {
			continue
		}
		acc--
		moved2, err := sub.SignROA(roa.ASN, roa.Prefixes, roa.NotBefore, roa.NotAfter)
		if err != nil {
			return moved, fmt.Errorf("synth: RehomeROAs: re-sign: %w", err)
		}
		w.Repo.ReplaceROA(i, moved2)
		moved++
	}
	if moved > 0 {
		w.mutated()
	}
	return moved, nil
}
