package core

import (
	"context"
	"strings"

	"manrsmeter/internal/scenario"
)

// ScenarioNames lists the builtin adversarial scenarios the pipeline
// can evaluate.
func ScenarioNames() []string { return scenario.Names() }

// RunScenario derives the named builtin scenario from the pipeline's
// world and measures its degradation against the pipeline's own
// snapshot date. The baseline side is the world's view of that date
// (already built or restored), so only the degraded fork builds fresh.
func (p *Pipeline) RunScenario(ctx context.Context, name string) (*scenario.Result, error) {
	sc, err := scenario.Builtin(ctx, name, p.World, p.AsOf)
	if err != nil {
		return nil, err
	}
	return scenario.Run(ctx, p.World, sc, scenario.Options{Date: p.AsOf, Workers: p.Workers})
}

// RenderScenarios runs every builtin scenario and concatenates the
// degradation reports — the "scenarios" query section. Deterministic
// for a fixed world across worker counts.
func (p *Pipeline) RenderScenarios(ctx context.Context) (string, error) {
	var b strings.Builder
	for _, name := range ScenarioNames() {
		res, err := p.RunScenario(ctx, name)
		if err != nil {
			return "", err
		}
		b.WriteString(res.Render())
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}
