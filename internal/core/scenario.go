package core

import (
	"context"
	"strings"

	"manrsmeter/internal/scenario"
)

// RunScenario derives the named builtin scenario from the pipeline's
// world and measures its degradation against the pipeline's own
// snapshot date. The baseline side is the world's view of that date
// (already built or restored), so only the degraded fork builds fresh.
// Results are memoized per pipeline: a scenario is a pure function of
// the world and the date, so every later call (a scenario route, the
// "scenarios" section) shares the first successful run.
func (p *Pipeline) RunScenario(ctx context.Context, name string) (*scenario.Result, error) {
	p.scenarioMu.Lock()
	res, ok := p.scenarioRuns[name]
	p.scenarioMu.Unlock()
	if ok {
		return res, nil
	}

	// Run outside the lock: scenario builds take seconds, and holding
	// scenarioMu across them would serialize unrelated scenarios. A
	// concurrent duplicate run is wasted work, not a correctness
	// problem — both produce the identical result.
	sc, err := scenario.Builtin(ctx, name, p.World, p.AsOf)
	if err != nil {
		return nil, err
	}
	res, err = scenario.Run(ctx, p.World, sc, scenario.Options{Date: p.AsOf, Workers: p.Workers})
	if err != nil {
		return nil, err
	}
	p.scenarioMu.Lock()
	defer p.scenarioMu.Unlock()
	if prev, ok := p.scenarioRuns[name]; ok {
		return prev, nil
	}
	if p.scenarioRuns == nil {
		p.scenarioRuns = make(map[string]*scenario.Result)
	}
	p.scenarioRuns[name] = res
	return res, nil
}

// RenderScenarios runs every builtin scenario and concatenates the
// degradation reports — the "scenarios" section. Deterministic for a
// fixed world across worker counts.
func (p *Pipeline) RenderScenarios(ctx context.Context) (string, error) {
	var b strings.Builder
	for _, name := range scenario.Names() {
		res, err := p.RunScenario(ctx, name)
		if err != nil {
			return "", err
		}
		b.WriteString(res.Render())
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}
