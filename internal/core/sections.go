package core

import (
	"context"
	"sort"
)

// QuerySection is one independently renderable unit of the paper's
// evaluation that a serving layer can answer on demand: a pure function
// of an already-built Pipeline, cheap enough to render inside a request
// deadline. The expensive multi-snapshot analyses (stability, hijack
// impact, route leaks) and the parameterized tables (case studies) stay
// in the batch report runner.
type QuerySection struct {
	// Name is the stable lookup key (lowercase, dash-separated).
	Name string
	// Title is the human-readable section heading.
	Title string
	// Render computes the section text. The context is the request
	// context: long sections should honor cancellation.
	Render func(ctx context.Context, p *Pipeline) (string, error)
}

// QuerySections lists the on-demand sections in paper order. The slice
// is freshly allocated per call; callers may reorder it freely.
func QuerySections() []QuerySection {
	plain := func(f func(p *Pipeline) string) func(context.Context, *Pipeline) (string, error) {
		return func(_ context.Context, p *Pipeline) (string, error) { return f(p), nil }
	}
	return []QuerySection{
		{"fig2-growth", "Figure 2 — MANRS participation growth",
			plain(func(p *Pipeline) string { return p.Fig2Growth().Render() })},
		{"fig4-by-rir", "Figure 4 — participation by RIR",
			plain(func(p *Pipeline) string { return p.Fig4ByRIR().Render() })},
		{"finding-70", "Finding 7.0 — partial organization registration",
			plain(func(p *Pipeline) string { return p.Finding70().Render() })},
		{"fig5a-rpki-origination", "Figure 5a — RPKI-valid origination",
			plain(func(p *Pipeline) string { return p.Fig5aRPKIOrigination().Render() })},
		{"fig5b-irr-origination", "Figure 5b — IRR-valid origination",
			plain(func(p *Pipeline) string { return p.Fig5bIRROrigination().Render() })},
		{"action4", "Findings 8.3/8.4 — Action 4 conformance",
			plain(func(p *Pipeline) string { return RenderAction4(p.Action4()) })},
		{"fig6-saturation", "Figure 6 — RPKI saturation",
			func(ctx context.Context, p *Pipeline) (string, error) {
				res, err := p.Fig6Saturation(ctx)
				if err != nil {
					return "", err
				}
				return res.Render(), nil
			}},
		{"fig7a-rpki-propagation", "Figure 7a — RPKI-invalid propagation",
			plain(func(p *Pipeline) string { return p.Fig7aRPKIPropagation().Render() })},
		{"fig7b-irr-propagation", "Figure 7b — IRR-invalid propagation",
			plain(func(p *Pipeline) string { return p.Fig7bIRRPropagation().Render() })},
		{"fig8-unconformant", "Figure 8 — unconformant propagation",
			plain(func(p *Pipeline) string { return p.Fig8Unconformant().Render() })},
		{"table2-action1", "Table 2 — Action 1 conformance",
			plain(func(p *Pipeline) string { return RenderTable2(p.Table2Action1()) })},
		{"fig9-preference", "Figure 9 — preference scores",
			plain(func(p *Pipeline) string { return p.Fig9Preference().Render() })},
		{"action3", "Extension — Action 3 coordination",
			plain(func(p *Pipeline) string { return p.Action3().Render() })},
		{"scenarios", "Adversarial scenarios — measured degradation",
			func(ctx context.Context, p *Pipeline) (string, error) { return p.RenderScenarios(ctx) }},
	}
}

// SectionNames returns the sorted lookup keys of QuerySections.
func SectionNames() []string {
	secs := QuerySections()
	names := make([]string, len(secs))
	for i, s := range secs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// FindSection returns the section registered under name.
func FindSection(name string) (QuerySection, bool) {
	for _, s := range QuerySections() {
		if s.Name == name {
			return s, true
		}
	}
	return QuerySection{}, false
}
