// persist.go bridges the snapshot store to the durable archive layer:
// extracting the compact durable.SnapshotData that goes to disk,
// restoring a loaded archive back into a fully usable Snapshot
// (recomputing the metrics, aggregates, and indexes that are
// deterministic functions of the dataset), archiving every build in the
// background, and warm-starting a freshly booted store from the archive
// so the first query is a 200 instead of a cold build.

package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/synth"
)

// snapshotData extracts the durable subset of the snapshot at date: the
// expensive dataset state and the validation registries it was built
// against. Everything else is recomputed at restore time.
func (s *Store) snapshotData(date time.Time, ds *ihr.Dataset, rpki, irr *rov.Index) *durable.SnapshotData {
	return &durable.SnapshotData{
		Fingerprint:   s.world.Fingerprint(),
		Version:       s.Version(date),
		Date:          date,
		PrefixOrigins: ds.PrefixOrigins,
		Transits:      ds.Transits,
		Visibility:    ds.Visibility,
		RPKI:          rpki.All(),
		IRR:           irr.All(),
	}
}

// restoreSnapshot rebuilds a servable Snapshot from archived data: the
// world adopts the archive's dataset and registries as its view of the
// date, so the snapshot, its report sections and the baseline side of
// its scenarios all read what the archive holds; metrics, the prefix
// index, and the /v1/stats aggregates are recomputed (deterministic
// functions of the dataset, cheaper to rebuild than to verify).
func (s *Store) restoreSnapshot(ctx context.Context, d *durable.SnapshotData) (*Snapshot, error) {
	if d.Fingerprint != s.world.Fingerprint() {
		return nil, fmt.Errorf("serve: archive is for world %s, store runs %s",
			d.Fingerprint, s.world.Fingerprint())
	}
	if want := s.Version(d.Date); d.Version != want {
		return nil, fmt.Errorf("serve: archive version %q, want %q", d.Version, want)
	}
	view, err := s.world.Adopt(d.Date, d.RPKI, d.IRR, &ihr.Dataset{
		PrefixOrigins: d.PrefixOrigins,
		Transits:      d.Transits,
		Visibility:    d.Visibility,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: restore registries: %w", err)
	}
	ds, err := view.Dataset(ctx, s.workers)
	if err != nil {
		return nil, fmt.Errorf("serve: build dataset: %w", err)
	}
	return s.assemble(view, ds)
}

// persistBuild archives a freshly built view of date in the background,
// beside the rest of its snapshot's assembly: the archive reads only the
// dataset and the registries, which are final once built. The persist is
// registered before it starts, and so before the snapshot can publish,
// so a caller that saw the snapshot and calls WaitPersist observes it.
// It runs detached from the build timeout — a slow disk must not be cut
// off by a deadline meant for the build — and its failures are logged,
// never propagated: persistence is an availability investment for the
// next boot, not a serving dependency.
func (s *Store) persistBuild(ctx context.Context, view *synth.View, ds *ihr.Dataset) {
	s.persistWG.Add(1)
	pctx := obsv.ContextWithTracer(context.Background(), obsv.TracerFrom(ctx))
	go func() {
		defer s.persistWG.Done()
		if err := s.durable.Save(pctx, s.snapshotData(view.Date, ds, view.RPKI, view.IRR)); err != nil {
			s.logp("serve: persist snapshot %s: %v", s.Version(view.Date), err)
		}
	}()
}

// WaitPersist blocks until every in-flight background persist has
// finished — the drain path of a stopping daemon (and of tests that
// assert on archive contents).
func (s *Store) WaitPersist() { s.persistWG.Wait() }

// fromArchive restores the snapshot at date from the durable archive.
func (s *Store) fromArchive(ctx context.Context, date time.Time) (*Snapshot, error) {
	d, err := s.durable.Load(ctx, durable.Key{Fingerprint: s.world.Fingerprint(), Date: date})
	if err != nil {
		return nil, err
	}
	return s.restoreSnapshot(ctx, d)
}

// WarmStart resolves the archived dates of this store's world, newest
// first and at most synth.ViewCacheCap of them, so they are published
// before the first query asks. It returns how many came from the
// archive, and an error only when none did and some date failed.
func (s *Store) WarmStart(ctx context.Context) (int, error) {
	if s.durable == nil {
		return 0, nil
	}
	restored, tried := 0, 0
	var errs []error
	for _, key := range s.durable.Keys() {
		if tried == synth.ViewCacheCap {
			break
		}
		if key.Fingerprint != s.world.Fingerprint() {
			continue
		}
		tried++
		snap, err := s.Get(ctx, key.Date)
		if err != nil {
			errs = append(errs, err)
		} else if snap.Source == "archive" {
			restored++
		}
	}
	if restored > 0 {
		return restored, nil
	}
	return 0, errors.Join(errs...)
}
