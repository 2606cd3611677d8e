package core

import (
	"context"
	"sync"
	"testing"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/scenario"
)

// A pipeline runs each scenario once: concurrent callers get the same
// answer, and the "scenarios" section afterwards reuses every run
// instead of building the forks again.
func TestRunScenarioMemoized(t *testing.T) {
	p := testWorld(t, 3)
	ctx := context.Background()
	names := scenario.Names()
	rendered := make([][]string, 3)
	var wg sync.WaitGroup
	for g := range rendered {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				res, err := p.RunScenario(ctx, name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				rendered[g] = append(rendered[g], res.Render())
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < len(rendered); g++ {
		for i, name := range names {
			if rendered[g][i] != rendered[0][i] {
				t.Errorf("%s: concurrent callers got different results", name)
			}
		}
	}

	builds := obsv.Default().Value("synth_dataset_build_seconds")
	if _, err := p.RenderScenarios(ctx); err != nil {
		t.Fatal(err)
	}
	if n := obsv.Default().Value("synth_dataset_build_seconds") - builds; n != 0 {
		t.Errorf("the scenarios section built %d datasets after every scenario had run, want 0", n)
	}
}
