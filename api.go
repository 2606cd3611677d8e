// Package manrsmeter reproduces the measurement pipeline of "Mind Your
// MANRS: Measuring the MANRS Ecosystem" (Du et al., IMC 2022) on a
// simulated Internet, and exposes the building blocks — RFC 6811 route
// origin validation, IRR/RPSL parsing and validation, an RPKI model with
// real signatures, BGP-4 wire codec and speaker, MRT archives, AS-level
// topology with valley-free propagation, AS hegemony, and the MANRS
// conformance engine — as a reusable library.
//
// Quick start:
//
//	cfg, err := manrsmeter.Preset("full", 42)
//	world, err := manrsmeter.GenerateWorld(cfg)
//	pipe, err := manrsmeter.NewPipeline(world)
//	fmt.Print(pipe.Fig5aRPKIOrigination().Render())
//
// or run every experiment at once:
//
//	manrsmeter.RunReport(ctx, os.Stdout, world, manrsmeter.ReportOptions{Workers: 4})
//
// RunReport honors ctx's cancellation and deadline, and the report
// supports a degraded mode (ReportOptions.ContinueOnError) that renders
// diagnostics for failed sections instead of aborting — see DESIGN.md,
// "Failure semantics".
package manrsmeter

import (
	"context"
	"time"

	"manrsmeter/internal/core"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/scenario"
	"manrsmeter/internal/synth"
)

// Prefix is a validated IP prefix (IPv4 or IPv6).
type Prefix = netx.Prefix

// ParsePrefix parses CIDR notation into a Prefix.
func ParsePrefix(s string) (Prefix, error) { return netx.ParsePrefix(s) }

// MustParsePrefix is ParsePrefix that panics on error; use it only for
// statically known inputs (tests, examples, table literals).
func MustParsePrefix(s string) Prefix { return netx.MustParsePrefix(s) }

// Route origin validation vocabulary (RFC 6811 extended with the paper's
// invalid-ASN / invalid-length split).
type (
	// Status is a validation outcome.
	Status = rov.Status
	// Authorization is a (prefix, origin, max length) authorization: a
	// VRP or an IRR route object.
	Authorization = rov.Authorization
	// ROVIndex answers origin-validation queries.
	ROVIndex = rov.Index
)

// Validation statuses.
const (
	StatusNotFound      = rov.NotFound
	StatusValid         = rov.Valid
	StatusInvalidASN    = rov.InvalidASN
	StatusInvalidLength = rov.InvalidLength
)

// NewROVIndex returns an empty origin-validation index.
func NewROVIndex() *ROVIndex { return rov.NewIndex() }

// RPKI substrate.
type (
	// VRP is a validated ROA payload.
	VRP = rpki.VRP
	// RIR identifies a Regional Internet Registry.
	RIR = rpki.RIR
)

// MANRS conformance engine.
type (
	// Program is a MANRS program (ISP or CDN).
	Program = manrs.Program
	// Participant is a registered MANRS AS.
	Participant = manrs.Participant
	// MANRSRegistry is the participant list with join dates.
	MANRSRegistry = manrs.Registry
	// ASMetrics aggregates one AS's origination and propagation behavior.
	ASMetrics = manrs.ASMetrics
	// SizeClass buckets ASes by customer degree.
	SizeClass = manrs.SizeClass
)

// Programs and size classes.
const (
	ProgramISP = manrs.ProgramISP
	ProgramCDN = manrs.ProgramCDN

	Small  = manrs.Small
	Medium = manrs.Medium
	Large  = manrs.Large
)

// ClassifySize maps a customer degree to its size class.
func ClassifySize(customerDegree int) SizeClass { return manrs.ClassifySize(customerDegree) }

// Conformant reports whether a prefix-origin with the given RPKI and IRR
// statuses satisfies MANRS Actions 1/4 (§6.4).
func Conformant(rpkiStatus, irrStatus Status) bool { return manrs.Conformant(rpkiStatus, irrStatus) }

// Action4Threshold returns the program's Action 4 conformance
// threshold, in percent of originated prefixes (§8.3): 90 for ISPs,
// 100 for CDNs.
func Action4Threshold(program Program) float64 { return manrs.Action4Threshold(program) }

// Unconformant reports whether a prefix-origin is MANRS-unconformant.
func Unconformant(rpkiStatus, irrStatus Status) bool {
	return manrs.Unconformant(rpkiStatus, irrStatus)
}

// Simulation and pipeline.
type (
	// Config parameterizes the synthetic Internet generator.
	Config = synth.Config
	// World is a generated ecosystem.
	World = synth.World
	// Pipeline runs the paper's experiments over a World.
	Pipeline = core.Pipeline
	// Cohort is one of the six comparison groups (size class × membership).
	Cohort = core.Cohort
	// Dataset is the IHR-style view: prefix-origin and transit datasets.
	Dataset = ihr.Dataset
)

// Preset returns the named world scale: "small" (774 ASes), "full"
// (the generator defaults calibrated to the paper's May 2022
// measurements) or "large" (~75k ASes announcing ~1M prefixes,
// generated through the compact arena layout). Cohort behavioral rates
// are the same at every scale, so the paper's findings reproduce at
// each. Any other name is an error listing the three.
func Preset(name string, seed int64) (Config, error) { return synth.Preset(name, seed) }

// GenerateWorld builds a synthetic Internet from cfg.
func GenerateWorld(cfg Config) (*World, error) { return synth.Generate(cfg) }

// LoadWorld reads a directory of the paper's input archives, as synthgen
// writes them, into a world whose one date is its RIB dump's. RunReport
// over it renders the sections those files support and a skip
// placeholder for the rest.
func LoadWorld(dir string) (*World, error) { return synth.LoadFiles(dir) }

// NewPipeline prepares the experiment pipeline (builds the headline
// dataset and per-AS metrics).
func NewPipeline(w *World) (*Pipeline, error) {
	return core.NewPipeline(context.Background(), w, w.Date(w.Config.EndYear), core.Options{})
}

// Adversarial scenario engine: deterministic data-plane fault
// injection with measured graceful degradation — see DESIGN.md,
// "Adversarial scenarios".
type (
	// Scenario is an ordered adversarial event list (hijack ROAs,
	// expired chains, relying-party failure, anchor pairs, ROA delay).
	Scenario = scenario.Scenario
	// ScenarioResult compares a degraded fork against its baseline.
	ScenarioResult = scenario.Result
	// ScenarioOptions parameterize RunScenario.
	ScenarioOptions = scenario.Options
)

// ScenarioNames lists the builtin adversarial scenarios.
func ScenarioNames() []string { return scenario.Names() }

// BuiltinScenario derives the named builtin scenario from w as of
// date (zero date: the world's headline date).
func BuiltinScenario(ctx context.Context, name string, w *World, date time.Time) (*Scenario, error) {
	if date.IsZero() {
		date = w.Date(w.Config.EndYear)
	}
	return scenario.Builtin(ctx, name, w, date)
}

// DecodeScenario parses a scenario from its text encoding.
func DecodeScenario(data []byte) (*Scenario, error) { return scenario.Decode(data) }

// RunScenario applies sc to a copy-on-write fork of w and measures the
// degradation against the untouched baseline. The base world is never
// mutated and may keep serving queries concurrently.
func RunScenario(ctx context.Context, w *World, sc *Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return scenario.Run(ctx, w, sc, opts)
}

// ApplyScenario forks w and applies sc without measuring, returning
// the mutated fork (what synthgen -scenario writes archives from).
func ApplyScenario(w *World, sc *Scenario, date time.Time) (*World, error) {
	if date.IsZero() {
		date = w.Date(w.Config.EndYear)
	}
	return scenario.Apply(w, sc, date)
}
