package core

import (
	"context"
	"testing"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/synth"
)

// isolationFixture is the small preset world at seed 1, its headline
// pipeline, and a fork in which a MANRS member also announces a /16 no
// one else does: enough space to move the member's RIR in Figure 4b.
func isolationFixture(t *testing.T) (*Pipeline, *synth.World) {
	t.Helper()
	cfg, err := synth.Preset("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(context.Background(), w, w.Date(cfg.EndYear), Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := w.Fork("isolation")
	member := w.MANRS.Members(p.AsOf)[0].ASN
	if err := f.AddOrigination(member, netx.MustParsePrefix("198.18.0.0/16")); err != nil {
		t.Fatal(err)
	}
	return p, f
}

// A fork and WriteFiles only read what a world shares with them. The
// base's Figure 4 renders byte for byte alike before and after its
// fork, announcing a member's fresh prefix, writes its files at the
// headline, and after the base writes its own at 1 March of the last
// year, inside the §8.5 churn windows.
func TestFig4IsolatedFromForksAndWriteFiles(t *testing.T) {
	p, f := isolationFixture(t)
	ctx := context.Background()
	want := p.Fig4ByRIR().Render()
	if err := f.WriteFiles(ctx, t.TempDir(), p.AsOf, nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Fig4ByRIR().Render(); got != want {
		t.Errorf("Figure 4 after a fork's WriteFiles:\n%s\nbefore:\n%s", got, want)
	}
	march := time.Date(p.World.Config.EndYear, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := p.World.WriteFiles(ctx, t.TempDir(), march, nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Fig4ByRIR().Render(); got != want {
		t.Errorf("Figure 4 after WriteFiles at %s:\n%s\nbefore:\n%s", march.Format(time.DateOnly), got, want)
	}
}

// A fork writes its files at 1 March while its base renders Figure 4
// over and over: every render is the first one. Run under -race.
func TestFig4ConcurrentWithForkWriteFiles(t *testing.T) {
	p, f := isolationFixture(t)
	want := p.Fig4ByRIR().Render()
	march := time.Date(p.World.Config.EndYear, 3, 1, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() { done <- f.WriteFiles(context.Background(), dir, march, nil) }()
	var moved string
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		if got := p.Fig4ByRIR().Render(); got != want && moved == "" {
			moved = got
		}
	}
	if moved != "" {
		t.Errorf("Figure 4 while a fork writes its files:\n%s\nbefore:\n%s", moved, want)
	}
}
