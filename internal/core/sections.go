package core

import "context"

// Offer says where a section is offered.
type Offer uint8

const (
	// InReport sections make up the batch report (RunReport).
	InReport Offer = 1 << iota
	// Served sections answer on demand at /v1/report/{name}: cheap
	// enough to render inside a request deadline.
	Served
	// FromFiles sections also render over a world read from its on-disk
	// archives (synth.LoadFiles), exactly as over the generated world:
	// they read only the headline date's dataset and registries, the
	// graph, the participant list and the contact records.
	FromFiles
	// Everywhere is both InReport and Served.
	Everywhere = InReport | Served
)

// Section is one independently renderable unit of the paper's
// evaluation: a pure function of an already-built Pipeline.
type Section struct {
	// Name is the stable key (lowercase, dash-separated): the
	// /v1/report path segment and the report's span and health name.
	Name string
	// Title is the human-readable section heading.
	Title string
	// Offer says where the section is offered.
	Offer Offer
	// Extension, when set, marks a beyond-the-paper experiment that the
	// report's SkipExtensions omits; it names it in the skip placeholder.
	Extension string
	// Render computes the section text. weeks is the stability
	// analysis's snapshot count (≤ 0: the paper's 12); the other
	// sections ignore it. Long sections honor ctx's cancellation.
	Render func(ctx context.Context, p *Pipeline, weeks int) (string, error)
}

// The report's fixed sizes: Table 1 profiles three CDNs and three ISPs,
// the hijack-containment extension samples 200 incidents and the
// route-leak extension 100.
const (
	caseStudyCDNs, caseStudyISPs = 3, 3
	hijackIncidents              = 200
	leakIncidents                = 100
)

// Sections is the paper's evaluation in report order, then the
// scenarios section only the query routes serve. It is read-only.
var Sections = []Section{
	{"fig2-growth", "Figure 2 — MANRS participation growth", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig2Growth().Render() })},
	{"fig4-by-rir", "Figure 4 — participation by RIR", Everywhere, "",
		plain(func(p *Pipeline) string { return p.Fig4ByRIR().Render() })},
	{"finding-70", "Finding 7.0 — partial organization registration", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Finding70().Render() })},
	{"fig5a-rpki-origination", "Figure 5a — RPKI-valid origination", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig5aRPKIOrigination().Render() })},
	{"fig5b-irr-origination", "Figure 5b — IRR-valid origination", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig5bIRROrigination().Render() })},
	{"action4", "Findings 8.3/8.4 — Action 4 conformance", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return RenderAction4(p.Action4()) })},
	{"table1-case-studies", "Table 1 — case studies", InReport | FromFiles, "",
		func(ctx context.Context, p *Pipeline, _ int) (string, error) {
			rows, err := p.Table1CaseStudies(ctx, caseStudyCDNs, caseStudyISPs)
			if err != nil {
				return "", err
			}
			return RenderTable1(rows), nil
		}},
	{"stability", "Finding 8.7 — stability", InReport, "",
		func(ctx context.Context, p *Pipeline, weeks int) (string, error) {
			return rendered(p.Stability(ctx, weeks))
		}},
	{"fig6-saturation", "Figure 6 — RPKI saturation", Everywhere, "",
		func(ctx context.Context, p *Pipeline, _ int) (string, error) {
			return rendered(p.Fig6Saturation(ctx))
		}},
	{"fig7a-rpki-propagation", "Figure 7a — RPKI-invalid propagation", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig7aRPKIPropagation().Render() })},
	{"fig7b-irr-propagation", "Figure 7b — IRR-invalid propagation", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig7bIRRPropagation().Render() })},
	{"fig8-unconformant", "Figure 8 — unconformant propagation", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig8Unconformant().Render() })},
	{"table2-action1", "Table 2 — Action 1 conformance", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return RenderTable2(p.Table2Action1()) })},
	{"fig9-preference", "Figure 9 — preference scores", Everywhere | FromFiles, "",
		plain(func(p *Pipeline) string { return p.Fig9Preference().Render() })},
	{"hijack-impact", "Extension — hijack containment", InReport, "hijack containment",
		func(ctx context.Context, p *Pipeline, _ int) (string, error) {
			return rendered(p.HijackImpact(ctx, hijackIncidents, 1))
		}},
	{"action3", "Extension — Action 3 coordination", Everywhere | FromFiles, "Action 3",
		plain(func(p *Pipeline) string { return p.Action3().Render() })},
	{"route-leaks", "Extension — route leaks", InReport, "route leaks",
		func(_ context.Context, p *Pipeline, _ int) (string, error) {
			return rendered(p.RouteLeaks(leakIncidents, 1))
		}},
	{"scenarios", "Adversarial scenarios — measured degradation", Served, "",
		func(ctx context.Context, p *Pipeline, _ int) (string, error) { return p.RenderScenarios(ctx) }},
}

// plain adapts an infallible, context-free renderer.
func plain(f func(p *Pipeline) string) func(context.Context, *Pipeline, int) (string, error) {
	return func(_ context.Context, p *Pipeline, _ int) (string, error) { return f(p), nil }
}

// rendered renders an experiment's result, or passes its error on.
func rendered[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
