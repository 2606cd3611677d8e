// persist.go bridges the snapshot store to the durable archive layer:
// converting a built Snapshot to the compact durable.SnapshotData that
// goes to disk, restoring a loaded archive back into a fully usable
// Snapshot (recomputing the metrics, aggregates, and indexes that are
// deterministic functions of the dataset), persisting asynchronously
// after every build, and warm-starting a freshly booted store from the
// archive so the first query is a 200 instead of a cold build.

package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/synth"
)

// snapshotData extracts the durable subset of snap: the expensive
// dataset state and the validation registries. Everything else is
// recomputed at restore time.
func snapshotData(snap *Snapshot) *durable.SnapshotData {
	ds := snap.Dataset()
	return &durable.SnapshotData{
		Fingerprint:   snap.World.Fingerprint(),
		Version:       snap.Version,
		Date:          snap.Date,
		PrefixOrigins: ds.PrefixOrigins,
		Transits:      ds.Transits,
		Visibility:    ds.Visibility,
		RPKI:          snap.RPKI.All(),
		IRR:           snap.IRR.All(),
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
	return s.assemble(ctx, view)
}

// persistSnapshot archives snap in the durable store. Failures are
// logged, never propagated: persistence is an availability investment
// for the next boot, not a serving dependency.
func (s *Store) persistSnapshot(ctx context.Context, snap *Snapshot) {
	if err := s.durable.Save(ctx, snapshotData(snap)); err != nil {
		s.logp("serve: persist snapshot %s: %v", snap.Version, err)
	}
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
