package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/synth"
)

// Apply forks the world and plays the scenario's events into the fork,
// evaluated against date (the expire skew and ROA windows are relative
// to it). The base world is never mutated.
func Apply(base *synth.World, sc *Scenario, date time.Time) (*synth.World, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w := base.Fork(sc.Name)
	for i := range sc.Events {
		if err := applyEvent(w, &sc.Events[i], date); err != nil {
			return nil, fmt.Errorf("scenario %s: event %d: %w", sc.Name, i, err)
		}
	}
	return w, nil
}

func applyEvent(w *synth.World, e *Event, date time.Time) error {
	year := func(y, def int) time.Time {
		if y == 0 {
			y = def
		}
		return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	switch e.Op {
	case OpAnnounce:
		return w.AddOrigination(e.ASN, e.Prefix)
	case OpHijackROA:
		r, err := synth.RIRForPrefix(e.Prefix)
		if err != nil {
			return err
		}
		maxLen := e.MaxLen
		if maxLen == 0 {
			maxLen = e.Prefix.Bits()
		}
		return w.PublishROA(r, e.ASN, []rpki.ROAPrefix{{Prefix: e.Prefix, MaxLength: maxLen}},
			year(e.FromYear, 2011), year(e.ToYear, 2040))
	case OpExpire:
		_, err := w.RehomeROAs(e.RIR, e.Frac, year(0, 2011), date.Add(-e.Skew))
		return err
	case OpRPFail:
		w.FailRelyingParty(e.RIR)
		return nil
	case OpROADelay:
		w.SetROAVisibilityLag(e.Lag)
		return nil
	case OpAnchorPair:
		if err := w.AddOrigination(e.ASN, e.Prefix); err != nil {
			return err
		}
		if err := w.AddOrigination(e.ASN, e.Invalid); err != nil {
			return err
		}
		rv, err := synth.RIRForPrefix(e.Prefix)
		if err != nil {
			return err
		}
		if err := w.PublishROA(rv, e.ASN, []rpki.ROAPrefix{{Prefix: e.Prefix, MaxLength: e.Prefix.Bits()}},
			year(0, 2011), year(0, 2040)); err != nil {
			return err
		}
		ri, err := synth.RIRForPrefix(e.Invalid)
		if err != nil {
			return err
		}
		return w.PublishROA(ri, 0, []rpki.ROAPrefix{{Prefix: e.Invalid, MaxLength: e.Invalid.Bits()}},
			year(0, 2011), year(0, 2040))
	default:
		return fmt.Errorf("unknown op %q", e.Op)
	}
}

// Summary condenses one dataset build into the counts the degradation
// report compares.
type Summary struct {
	VRPs         int    `json:"vrps"`
	Originations int    `json:"originations"`
	RPKI         [4]int `json:"rpki"` // indexed by rov.Status
	IRR          [4]int `json:"irr"`
	Conformant   int    `json:"conformant"`
	Unconformant int    `json:"unconformant"`
	Sightings    int64  `json:"sightings"` // total vantage-point sightings
}

// Transitions counts per-origination RPKI verdict movements between the
// baseline and the scenario (verdicts collapsed to NotFound / Valid /
// Invalid). InvalidToValid is the engine's core invariant: removal-only
// scenarios (RP failure, expiry) must keep it at zero.
type Transitions struct {
	InvalidToValid    int `json:"invalid_to_valid"`
	InvalidToNotFound int `json:"invalid_to_notfound"`
	ValidToNotFound   int `json:"valid_to_notfound"`
	ValidToInvalid    int `json:"valid_to_invalid"`
	NotFoundToInvalid int `json:"notfound_to_invalid"`
	NotFoundToValid   int `json:"notfound_to_valid"`
	Added             int `json:"added"`   // originations only in the scenario
	Removed           int `json:"removed"` // originations only in the baseline
}

// AnchorReport is the Reuter-style inference outcome: the AS set
// inferred to filter RPKI-invalid announcements, compared against the
// generator's ground-truth policies.
type AnchorReport struct {
	Pairs     int     `json:"pairs"`
	Measured  int     `json:"measured"` // ASes reached by at least one valid anchor
	Inferred  int     `json:"inferred"` // of those, inferred filtering
	Truth     int     `json:"truth"`    // of measured, ground-truth filtering
	TruePos   int     `json:"true_pos"`
	FalsePos  int     `json:"false_pos"`
	FalseNeg  int     `json:"false_neg"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// Health is the degraded-mode trailer every run ends with.
type Health struct {
	Scenario            string   `json:"scenario"`
	Degraded            bool     `json:"degraded"`
	FailedRPs           []string `json:"failed_rps,omitempty"`
	VRPsDropped         int      `json:"vrps_dropped"`
	ROALag              string   `json:"roa_lag,omitempty"`
	InvalidToValidFlips int      `json:"invalid_to_valid_flips"`
}

// Result is one scenario run: baseline vs degraded summaries plus the
// verdict transition matrix and health trailer.
type Result struct {
	Name     string        `json:"name"`
	Date     string        `json:"date"`
	Events   int           `json:"events"`
	Baseline Summary       `json:"baseline"`
	Scenario Summary       `json:"scenario"`
	Trans    Transitions   `json:"transitions"`
	Anchor   *AnchorReport `json:"anchor,omitempty"`
	Health   Health        `json:"health"`
}

// Options parameterize Run.
type Options struct {
	// Date is the evaluation instant; zero means the world's EndYear
	// headline date.
	Date time.Time
	// Workers bounds the dataset builds' parallelism (≤ 0: one per CPU).
	Workers int
}

// Run applies the scenario to a fork of base and measures the
// degradation against the baseline dataset at the same date. Each side
// is its world's view of the date, so the baseline a pipeline or
// snapshot already holds is not rebuilt and the fork runs the relying
// party once. The result is byte-stable for a fixed world and scenario
// across worker counts.
func Run(ctx context.Context, base *synth.World, sc *Scenario, opts Options) (*Result, error) {
	date := opts.Date
	if date.IsZero() {
		date = base.Date(base.Config.EndYear)
	}
	baseDS, baseVRPs, err := measure(ctx, base, date, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: baseline build: %w", sc.Name, err)
	}
	fork, err := Apply(base, sc, date)
	if err != nil {
		return nil, err
	}
	forkDS, forkVRPs, err := measure(ctx, fork, date, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: degraded build: %w", sc.Name, err)
	}

	res := &Result{
		Name:     sc.Name,
		Date:     date.Format("2006-01-02"),
		Events:   len(sc.Events),
		Baseline: summarize(baseDS, baseVRPs),
		Scenario: summarize(forkDS, forkVRPs),
		Trans:    transitions(baseDS, forkDS),
	}
	if hasOp(sc, OpAnchorPair) {
		res.Anchor, err = inferAnchorPairs(ctx, fork, sc, date, opts.Workers)
		if err != nil {
			return nil, err
		}
	}
	dropped := 0
	if d := baseVRPs - forkVRPs; d > 0 {
		dropped = d
	}
	var failed []string
	for _, r := range fork.FailedRPs() {
		failed = append(failed, r.String())
	}
	lag := fork.ROAVisibilityLag()
	h := Health{
		Scenario:            sc.Name,
		FailedRPs:           failed,
		VRPsDropped:         dropped,
		InvalidToValidFlips: res.Trans.InvalidToValid,
	}
	if lag > 0 {
		h.ROALag = lag.String()
	}
	h.Degraded = len(failed) > 0 || dropped > 0 || lag > 0
	res.Health = h
	return res, nil
}

// measure returns w's dataset and VRP count at date.
func measure(ctx context.Context, w *synth.World, date time.Time, workers int) (*ihr.Dataset, int, error) {
	view, err := w.At(ctx, date, workers)
	if err != nil {
		return nil, 0, err
	}
	ds, err := view.Dataset(ctx, workers)
	return ds, len(view.VRPs), err
}

func hasOp(sc *Scenario, op Op) bool {
	for i := range sc.Events {
		if sc.Events[i].Op == op {
			return true
		}
	}
	return false
}

func summarize(ds *ihr.Dataset, vrps int) Summary {
	s := Summary{VRPs: vrps, Originations: len(ds.PrefixOrigins)}
	for _, po := range ds.PrefixOrigins {
		s.RPKI[po.RPKI]++
		s.IRR[po.IRR]++
		if manrs.Conformant(po.RPKI, po.IRR) {
			s.Conformant++
		}
		if manrs.Unconformant(po.RPKI, po.IRR) {
			s.Unconformant++
		}
	}
	for _, c := range ds.Visibility.Counts {
		s.Sightings += int64(c)
	}
	return s
}

// class collapses the four-way status to the three-way degradation
// lattice: NotFound < {Valid, Invalid}.
func class(s rov.Status) int {
	switch {
	case s == rov.Valid:
		return 1
	case s.IsInvalid():
		return 2
	default:
		return 0
	}
}

func transitions(base, fork *ihr.Dataset) Transitions {
	key := func(po ihr.PrefixOrigin) astopoKey { return astopoKey{po.Origin, po.Prefix} }
	order := func(ds *ihr.Dataset) []int {
		ix := make([]int, len(ds.PrefixOrigins))
		for i := range ix {
			ix[i] = i
		}
		sort.Slice(ix, func(a, b int) bool {
			ka, kb := key(ds.PrefixOrigins[ix[a]]), key(ds.PrefixOrigins[ix[b]])
			if ka.origin != kb.origin {
				return ka.origin < kb.origin
			}
			return ka.prefix.Compare(kb.prefix) < 0
		})
		return ix
	}
	bi, fi := order(base), order(fork)
	var tr Transitions
	i, j := 0, 0
	for i < len(bi) && j < len(fi) {
		b, f := base.PrefixOrigins[bi[i]], fork.PrefixOrigins[fi[j]]
		kb, kf := key(b), key(f)
		var c int
		if kb.origin != kf.origin {
			c = int(int64(kb.origin) - int64(kf.origin))
		} else {
			c = kb.prefix.Compare(kf.prefix)
		}
		switch {
		case c < 0:
			tr.Removed++
			i++
		case c > 0:
			tr.Added++
			j++
		default:
			from, to := class(b.RPKI), class(f.RPKI)
			switch {
			case from == 2 && to == 1:
				tr.InvalidToValid++
			case from == 2 && to == 0:
				tr.InvalidToNotFound++
			case from == 1 && to == 0:
				tr.ValidToNotFound++
			case from == 1 && to == 2:
				tr.ValidToInvalid++
			case from == 0 && to == 2:
				tr.NotFoundToInvalid++
			case from == 0 && to == 1:
				tr.NotFoundToValid++
			}
			i++
			j++
		}
	}
	tr.Removed += len(bi) - i
	tr.Added += len(fi) - j
	return tr
}

type astopoKey struct {
	origin uint32
	prefix netx.Prefix
}

// inferAnchorPairs replays Reuter et al.'s measurement on the mutated
// world: propagate each pair's valid and invalid anchor prefixes under
// the real policies, infer the filtering AS set (sees valid anchors,
// never an invalid one), and score it against the generator's
// ground-truth DropRPKIInvalid policies.
func inferAnchorPairs(ctx context.Context, w *synth.World, sc *Scenario, date time.Time, workers int) (*AnchorReport, error) {
	view, err := w.At(ctx, date, workers)
	if err != nil {
		return nil, err
	}
	filter := ihr.PolicyFilter(w.Graph, w.Policies, view.RPKI, view.IRR)
	validSeen := map[uint32]int{}
	invalidSeen := map[uint32]int{}
	rep := &AnchorReport{}
	for i := range sc.Events {
		e := &sc.Events[i]
		if e.Op != OpAnchorPair {
			continue
		}
		rep.Pairs++
		vt := w.Graph.Propagate(e.Prefix, e.ASN, filter(e.Prefix, e.ASN))
		it := w.Graph.Propagate(e.Invalid, e.ASN, filter(e.Invalid, e.ASN))
		for _, asn := range vt.Reached() {
			if asn != e.ASN {
				validSeen[asn]++
			}
		}
		for _, asn := range it.Reached() {
			if asn != e.ASN {
				invalidSeen[asn]++
			}
		}
	}
	for asn, n := range validSeen {
		if n == 0 {
			continue
		}
		rep.Measured++
		inferred := invalidSeen[asn] == 0
		truth := w.Policies[asn].DropRPKIInvalid
		if inferred {
			rep.Inferred++
		}
		if truth {
			rep.Truth++
		}
		switch {
		case inferred && truth:
			rep.TruePos++
		case inferred && !truth:
			rep.FalsePos++
		case !inferred && truth:
			rep.FalseNeg++
		}
	}
	if rep.Inferred > 0 {
		rep.Precision = float64(rep.TruePos) / float64(rep.Inferred)
	}
	if rep.Truth > 0 {
		rep.Recall = float64(rep.TruePos) / float64(rep.Truth)
	}
	return rep, nil
}

// Render formats the result as the deterministic text report the CLI
// and the report section print, ending in the health trailer.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d events applied at %s\n", r.Name, r.Events, r.Date)
	fmt.Fprintf(&b, "  %-22s %12s %12s %9s\n", "", "baseline", "scenario", "delta")
	row := func(name string, base, scen int) {
		fmt.Fprintf(&b, "  %-22s %12d %12d %+9d\n", name, base, scen, scen-base)
	}
	row("vrps", r.Baseline.VRPs, r.Scenario.VRPs)
	row("originations", r.Baseline.Originations, r.Scenario.Originations)
	for _, st := range []rov.Status{rov.Valid, rov.NotFound, rov.InvalidASN, rov.InvalidLength} {
		row("rpki "+st.String(), r.Baseline.RPKI[st], r.Scenario.RPKI[st])
	}
	row("conformant", r.Baseline.Conformant, r.Scenario.Conformant)
	row("unconformant", r.Baseline.Unconformant, r.Scenario.Unconformant)
	fmt.Fprintf(&b, "  %-22s %12d %12d %+9d\n", "sightings",
		r.Baseline.Sightings, r.Scenario.Sightings, r.Scenario.Sightings-r.Baseline.Sightings)
	t := r.Trans
	fmt.Fprintf(&b, "  transitions: invalid->valid=%d invalid->notfound=%d valid->notfound=%d valid->invalid=%d notfound->invalid=%d notfound->valid=%d added=%d removed=%d\n",
		t.InvalidToValid, t.InvalidToNotFound, t.ValidToNotFound, t.ValidToInvalid,
		t.NotFoundToInvalid, t.NotFoundToValid, t.Added, t.Removed)
	if a := r.Anchor; a != nil {
		fmt.Fprintf(&b, "  anchor-pairs: pairs=%d measured=%d inferred=%d truth=%d tp=%d fp=%d fn=%d precision=%.3f recall=%.3f\n",
			a.Pairs, a.Measured, a.Inferred, a.Truth, a.TruePos, a.FalsePos, a.FalseNeg, a.Precision, a.Recall)
	}
	h := r.Health
	status := "ok"
	if h.Degraded {
		status = "degraded"
	}
	fmt.Fprintf(&b, "health: scenario=%s status=%s failed-rps=%s vrps-dropped=%d roa-lag=%s invalid-to-valid=%d\n",
		h.Scenario, status, joinOr(h.FailedRPs, "none"), h.VRPsDropped, orStr(h.ROALag, "0s"), h.InvalidToValidFlips)
	return b.String()
}

func joinOr(ss []string, empty string) string {
	if len(ss) == 0 {
		return empty
	}
	return strings.Join(ss, ",")
}

func orStr(s, empty string) string {
	if s == "" {
		return empty
	}
	return s
}
