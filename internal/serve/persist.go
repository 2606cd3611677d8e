// persist.go bridges the snapshot store to the durable archive layer:
// converting a built Snapshot to the compact durable.SnapshotData that
// goes to disk, restoring a loaded archive back into a fully usable
// Snapshot (recomputing the metrics, aggregates, and indexes that are
// deterministic functions of the dataset), persisting asynchronously
// after every successful build, and warm-starting a freshly booted
// store from the last known-good archives so the first query is a 200
// instead of a multi-second cold build.

package serve

import (
	"context"
	"fmt"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/ihr"
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

// WarmStart publishes snapshots restored from the durable archive for
// every date the archive holds under this store's world, skipping
// dates that already have a published snapshot. It returns how many
// snapshots it published. Queries for those dates, their report
// sections and scenarios included, are served from the restored state;
// nothing is rebuilt.
func (s *Store) WarmStart(ctx context.Context) (int, error) {
	if s.durable == nil {
		return 0, nil
	}
	fp := s.world.Fingerprint()
	published := 0
	var firstErr error
	for _, key := range s.durable.Keys() {
		if key.Fingerprint != fp {
			continue
		}
		e := s.entry(key.Date)
		if e.snap.Load() != nil {
			continue
		}
		d, err := s.durable.Load(ctx, key)
		if err != nil {
			s.logp("serve: warm start %s: %v", key, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		snap, err := s.restoreSnapshot(ctx, d)
		if err != nil {
			s.logp("serve: warm start %s: %v", key, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.mu.Lock()
		if e.snap.Load() == nil {
			s.publishLocked(e, snap)
			published++
			s.met.warmStarts.Inc()
			s.logp("serve: warm start: restored snapshot %s from archive", snap.Version)
		}
		e.mu.Unlock()
	}
	if published > 0 {
		return published, nil
	}
	return 0, firstErr
}
