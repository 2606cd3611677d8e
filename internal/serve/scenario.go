// Scenario routes: GET /v1/scenario lists the builtin adversarial
// scenarios; GET /v1/scenario/{name} runs one against the resolved
// snapshot and serves the degradation comparison. A degraded ecosystem
// is a successful answer here — relying-party failure returns 200 with
// health.degraded=true, never a 5xx — which is the contract the
// check.sh smoke asserts.
package serve

import (
	"context"
	"net/http"
	"slices"

	"manrsmeter/internal/scenario"
)

// ScenarioIndex is the GET /v1/scenario response.
type ScenarioIndex struct {
	AsOf      string   `json:"as_of"`
	Snapshot  string   `json:"snapshot"`
	Scenarios []string `json:"scenarios"`
}

// ScenarioResponse is the GET /v1/scenario/{name} response: the full
// engine result (baseline/scenario summaries, transition matrix,
// optional anchor-pair inference, health trailer) plus the rendered
// text report.
type ScenarioResponse struct {
	AsOf     string           `json:"as_of"`
	Snapshot string           `json:"snapshot"`
	Result   *scenario.Result `json:"result"`
	Rendered string           `json:"rendered"`
}

func scenarioIndex(snap *Snapshot) *ScenarioIndex {
	return &ScenarioIndex{
		AsOf:      snap.Date.Format("2006-01-02"),
		Snapshot:  snap.Version,
		Scenarios: scenario.Names(),
	}
}

// scenarioRun runs the named builtin scenario against snap. The run is
// memoized by snap's pipeline, which the "scenarios" report section
// shares. Unknown names are a 404, not a server error.
func scenarioRun(ctx context.Context, snap *Snapshot, name string) (*ScenarioResponse, error) {
	if !slices.Contains(scenario.Names(), name) {
		return nil, errf(http.StatusNotFound, "unknown scenario %q (GET /v1/scenario lists them)", name)
	}
	res, err := snap.Pipeline.RunScenario(ctx, name)
	if err != nil {
		return nil, err
	}
	return &ScenarioResponse{
		AsOf:     snap.Date.Format("2006-01-02"),
		Snapshot: snap.Version,
		Result:   res,
		Rendered: res.Render(),
	}, nil
}
