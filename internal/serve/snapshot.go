// Package serve is the production query layer over MANRS datasets: a
// versioned snapshot store (date-keyed pipeline builds published with
// atomic pointer swaps, singleflight-coalesced so N concurrent cold
// queries trigger exactly one build) and a stdlib-only HTTP/JSON server
// answering per-AS conformance, per-prefix origination/ROA, ecosystem
// aggregate, and rendered-report-section queries, hardened with
// bounded-concurrency admission control, a snapshot-version-keyed
// response cache with ETags, request timeouts, and graceful drain.
// See DESIGN.md, "Serving layer".
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"manrsmeter/internal/core"
	"manrsmeter/internal/durable"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/synth"
)

// Snapshot is one immutable, versioned view of the world at a date:
// the built pipeline (dataset + per-AS metrics), the validation
// indexes for arbitrary (prefix, origin) queries, a prefix → dataset
// row index for point lookups, and precomputed ecosystem aggregates.
// Snapshots are shared across requests and must never be mutated.
type Snapshot struct {
	// Version identifies the snapshot's content, not its build: it is
	// derived from the world fingerprint and the date, so a rebuild, a
	// warm start and a peer sync of the same world and date all carry
	// the same version and answer byte-identically (same ETags).
	Version string
	// Date is the measurement date the snapshot answers for.
	Date time.Time
	// World and Pipeline are the analysis substrate at Date.
	World    *synth.World
	Pipeline *core.Pipeline
	// RPKI and IRR answer origin-validation queries for prefixes and
	// origins beyond those in the dataset. They are the indexes of the
	// world's view at Date, the ones the dataset was validated against.
	RPKI, IRR *rov.Index
	// Stats are the precomputed /v1/stats aggregates.
	Stats *EcosystemStats
	// Source is how the snapshot came to exist: "archive", "peer" (a
	// peer's archive, over the wire) or "build". No answer depends on it.
	Source string

	// byPrefix is the point-lookup index: PrefixOrigins row numbers
	// ordered by (prefix, row), searched by prefix range. A permutation
	// slice costs 4 bytes/row where the map it replaced cost ~100 —
	// material at a million originations.
	byPrefix []int32
}

// rowsFor returns the PrefixOrigins row indexes announcing p, ascending.
func (s *Snapshot) rowsFor(p netx.Prefix) []int32 {
	pos := s.Dataset().PrefixOrigins
	lo := sort.Search(len(s.byPrefix), func(i int) bool {
		return pos[s.byPrefix[i]].Prefix.Compare(p) >= 0
	})
	hi := lo
	for hi < len(s.byPrefix) && pos[s.byPrefix[hi]].Prefix == p {
		hi++
	}
	return s.byPrefix[lo:hi]
}

// buildByPrefix builds the rowsFor permutation over the dataset rows.
func buildByPrefix(pos []ihr.PrefixOrigin) []int32 {
	idx := make([]int32, len(pos))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if c := pos[idx[a]].Prefix.Compare(pos[idx[b]].Prefix); c != 0 {
			return c < 0
		}
		return idx[a] < idx[b]
	})
	return idx
}

// Dataset is shorthand for the snapshot's IHR dataset.
func (s *Snapshot) Dataset() *ihr.Dataset { return s.Pipeline.Dataset() }

// Store resolves, versions, and publishes snapshots per date key.
//
// The hot path — Get on a date whose snapshot is published — is one
// mutex-free atomic pointer load after the entry lookup. Cold queries
// coalesce: the first request starts one background resolve (archive,
// then peers, then a build) and every concurrent request for the same
// date waits on it (serve_snapshot_coalesced_total counts the joiners).
// A resolve runs detached from the requesting context, so a canceled
// request never aborts one other requests are waiting on. A published
// snapshot is final: the world is immutable and the version names its
// content, so there is nothing to refresh.
type Store struct {
	world   *synth.World
	workers int
	// headline is DefaultDate, headlineVer its Version: publish-time facts.
	headline    time.Time
	headlineVer string
	// buildTimeout bounds one background resolve; 0 means none.
	buildTimeout time.Duration
	// buildFn builds the snapshot for a date. Tests swap it to inject
	// slow or failing builds; the default is buildSnapshot.
	buildFn func(ctx context.Context, date time.Time) (*Snapshot, error)
	// nowFn is the clock; tests swap it to drive the backoff schedule.
	nowFn func() time.Time

	// durable, when non-nil, is the first source of a cold date and
	// receives every built snapshot (asynchronously).
	durable   *durable.Store
	persistWG sync.WaitGroup
	// peers are tried in order after the archive, before a build.
	peers []string

	logf func(format string, args ...any)

	mu      sync.Mutex
	entries map[int64]*storeEntry
	// order lists the published date keys, longest-published first.
	order []int64

	met storeMetrics
}

// storeEntry is the per-date-key publication slot.
type storeEntry struct {
	date time.Time
	snap atomic.Pointer[Snapshot]

	mu       sync.Mutex
	building *buildCall
	// failures counts consecutive build failures; retryAt is when the
	// next build attempt is allowed (exponential backoff with jitter).
	failures int
	retryAt  time.Time
	lastErr  error
}

// buildCall is one in-flight build that any number of requests await.
type buildCall struct {
	done chan struct{}
	snap *Snapshot
	err  error
}

type storeMetrics struct {
	builds       *obsv.Counter
	buildErrors  *obsv.Counter
	coalesced    *obsv.Counter
	hits         *obsv.Counter
	backoffs     *obsv.Counter
	warmStarts   *obsv.Counter
	buildSeconds *obsv.QuantileHistogram
	// Cluster replication: peer pulls, failed pulls, archives served.
	wireSyncs      *obsv.Counter
	wireSyncErrors *obsv.Counter
	peerServes     *obsv.Counter
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	// Workers bounds the goroutines a snapshot build fans out on; ≤ 0
	// means one per CPU.
	Workers int
	// BuildTimeout bounds the whole resolve of a cold date; 0 means none.
	BuildTimeout time.Duration
	// Registry receives the store's metrics; nil means obsv.Default().
	Registry *obsv.Registry
	// Durable, when non-nil, is a cold date's first source and archives
	// every build.
	Durable *durable.Store
	// Peers are base URLs (replicas, or a manrs-gw gateway) whose
	// /peer/snapshot a cold date is pulled from before it is built.
	Peers []string
	// Logf, when set, receives operational events (persist failures,
	// warm starts, build backoff).
	Logf func(format string, args ...any)
}

// The retry schedule after failed builds: the first failure blocks new
// attempts for about a second; repeated failures double the wait up to
// two minutes.
const (
	backoffBase = time.Second
	backoffMax  = 2 * time.Minute
)

// NewStore returns a Store over w. The world is shared and read-only:
// builds use the immutable snapshot views, so any number of stores (or
// pipelines) may run over one world.
func NewStore(w *synth.World, opts StoreOptions) *Store {
	reg := opts.Registry
	if reg == nil {
		reg = obsv.Default()
	}
	headline := w.Date(w.Config.EndYear)
	s := &Store{
		world:        w,
		workers:      opts.Workers,
		headline:     headline,
		headlineVer:  versionAt(w, headline),
		buildTimeout: opts.BuildTimeout,
		nowFn:        time.Now,
		durable:      opts.Durable,
		peers:        opts.Peers,
		logf:         opts.Logf,
		entries:      make(map[int64]*storeEntry),
		met: storeMetrics{
			builds:       reg.Counter("serve_snapshot_builds_total", "snapshot builds started"),
			buildErrors:  reg.Counter("serve_snapshot_build_errors_total", "snapshot builds that failed"),
			coalesced:    reg.Counter("serve_snapshot_coalesced_total", "requests that joined an in-flight snapshot build"),
			hits:         reg.Counter("serve_snapshot_hits_total", "requests answered from a published snapshot"),
			backoffs:     reg.Counter("serve_snapshot_backoff_total", "requests refused because the date key is in build backoff"),
			warmStarts:   reg.Counter("serve_snapshot_warm_starts_total", "snapshots restored from the durable archive instead of a build"),
			buildSeconds: reg.Summary("serve_snapshot_build_seconds", "snapshot build latency"),
			wireSyncs: reg.Counter("serve_snapshot_wire_syncs_total",
				"snapshots restored from a peer's wire archive instead of a build"),
			wireSyncErrors: reg.Counter("serve_snapshot_wire_sync_errors_total",
				"failed attempts to sync a snapshot from a peer"),
			peerServes: reg.Counter("serve_peer_snapshot_serves_total",
				"snapshot archives served to peers over /peer/snapshot"),
		},
	}
	s.buildFn = s.buildSnapshot
	return s
}

func (s *Store) logp(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// DefaultDate is the headline measurement date (May 1 of the world's
// final study year) — the date queries without ?date= resolve to.
func (s *Store) DefaultDate() time.Time { return s.headline }

// Version returns the version a snapshot at date carries, without
// building anything (the headline's is stored, not formatted).
func (s *Store) Version(date time.Time) string {
	if date.Equal(s.headline) {
		return s.headlineVer
	}
	return versionAt(s.world, date)
}

func versionAt(w *synth.World, date time.Time) string {
	return w.Fingerprint() + "@" + date.Format("2006-01-02")
}

func (s *Store) entry(date time.Time) *storeEntry {
	key := date.Unix()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		e = &storeEntry{date: date}
		s.entries[key] = e
	}
	return e
}

// Get returns the snapshot at date, resolving it if none is published.
// Concurrent cold calls for one date coalesce onto a single resolve;
// ctx cancels only this caller's wait, never the resolve.
func (s *Store) Get(ctx context.Context, date time.Time) (*Snapshot, error) {
	ctx, span := obsv.StartSpan(ctx, "serve.snapshot", obsv.KV("date", date.Format("2006-01-02")))
	defer span.End()
	e := s.entry(date)
	if snap := e.snap.Load(); snap != nil {
		s.met.hits.Inc()
		span.SetAttr("source", "published")
		return snap, nil
	}

	e.mu.Lock()
	call := e.building
	if call == nil {
		// Re-check under the lock: a build may have published between
		// the lock-free read and here.
		if snap := e.snap.Load(); snap != nil {
			e.mu.Unlock()
			s.met.hits.Inc()
			span.SetAttr("source", "published")
			return snap, nil
		}
		if err := s.backoffLocked(e); err != nil {
			e.mu.Unlock()
			span.SetAttr("source", "backoff")
			return nil, err
		}
		call = &buildCall{done: make(chan struct{})}
		e.building = call
		s.startBuild(ctx, e, call)
		span.SetAttr("source", "resolve")
	} else {
		s.met.coalesced.Inc()
		span.SetAttr("source", "coalesced")
	}
	e.mu.Unlock()

	select {
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-call.done:
		return call.snap, call.err
	}
}

// BackoffError reports that builds for a date key are suspended after
// consecutive failures. The serving layer maps it to 503 with a
// Retry-After derived from Until.
type BackoffError struct {
	// Until is when the next build attempt is allowed.
	Until time.Time
	// Failures is the consecutive-failure count that produced the wait.
	Failures int
	// Err is the last build failure.
	Err error
}

func (e *BackoffError) Error() string {
	return fmt.Sprintf("snapshot build suspended until %s after %d failed builds: %v",
		e.Until.Format(time.RFC3339), e.Failures, e.Err)
}

func (e *BackoffError) Unwrap() error { return e.Err }

// backoffLocked (e.mu held) refuses to start a build while the entry's
// retry window is open, returning the BackoffError callers surface.
func (s *Store) backoffLocked(e *storeEntry) error {
	if e.failures == 0 || !s.nowFn().Before(e.retryAt) {
		return nil
	}
	s.met.backoffs.Inc()
	return &BackoffError{Until: e.retryAt, Failures: e.failures, Err: e.lastErr}
}

// backoffDelay is the wait after the nth consecutive failure (n ≥ 1):
// base·2^(n-1) capped at max, with equal jitter — half the window is
// fixed, half uniform random — so a fleet of clients whose builds all
// broke at once does not retry in lockstep.
func (s *Store) backoffDelay(n int) time.Duration {
	d := backoffBase
	for i := 1; i < n && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// startBuild launches the resolve goroutine for call. It runs on a
// context detached from the requester (inheriting only its tracer) so
// request cancellation cannot abort a resolve other waiters share. A
// resolved snapshot is published atomically, and a built one archived
// in the background; a failure arms the entry's retry backoff.
func (s *Store) startBuild(ctx context.Context, e *storeEntry, call *buildCall) {
	bctx := obsv.ContextWithTracer(context.Background(), obsv.TracerFrom(ctx))
	go func() {
		var cancel context.CancelFunc = func() {}
		if s.buildTimeout > 0 {
			bctx, cancel = context.WithTimeout(bctx, s.buildTimeout)
		}
		defer cancel()
		snap, err := s.resolve(bctx, e.date)
		call.snap, call.err = snap, err
		persist := err == nil && snap.Source == "build" && s.durable != nil
		e.mu.Lock()
		if err == nil {
			if persist {
				// Registered before the publish is visible, so a caller
				// that saw the snapshot and calls WaitPersist observes
				// this persist.
				s.persistWG.Add(1)
			}
			s.publishLocked(e, snap)
		} else {
			e.failures++
			delay := s.backoffDelay(e.failures)
			e.retryAt = s.nowFn().Add(delay)
			e.lastErr = err
			s.logp("serve: snapshot %s failed (%d consecutive): %v; next attempt in %s",
				e.date.Format("2006-01-02"), e.failures, err, delay.Round(time.Millisecond))
		}
		e.building = nil // a later request may retry a failed resolve
		e.mu.Unlock()
		if persist {
			// Detached from the build timeout: a slow disk must not be
			// cut off by a deadline meant for the build.
			pctx := obsv.ContextWithTracer(context.Background(), obsv.TracerFrom(bctx))
			go func() {
				defer s.persistWG.Done()
				s.persistSnapshot(pctx, snap)
			}()
		}
		close(call.done)
	}()
}

// resolve is the one way a date's snapshot comes to exist. It tries the
// durable archive, then each peer in order, then a build, and returns
// the first snapshot it gets, its Source set. A miss or failure is
// logged and counted and the next source tried; if the build fails
// too, the error joins every cause.
func (s *Store) resolve(ctx context.Context, date time.Time) (*Snapshot, error) {
	day := date.Format("2006-01-02")
	var errs []error
	if s.durable != nil {
		snap, err := s.fromArchive(ctx, date)
		if err == nil {
			snap.Source = "archive"
			s.met.warmStarts.Inc()
			s.logp("serve: restored snapshot %s from archive", snap.Version)
			return snap, nil
		}
		errs = append(errs, fmt.Errorf("serve: archive %s: %w", day, err))
		s.logp("%v", errs[len(errs)-1])
	}
	for _, peer := range s.peers {
		snap, err := s.fromPeer(ctx, peer, date)
		if err == nil {
			snap.Source = "peer"
			s.met.wireSyncs.Inc()
			s.logp("serve: synced snapshot %s from peer %s via wire replication (no local rebuild)", snap.Version, peer)
			return snap, nil
		}
		s.met.wireSyncErrors.Inc()
		errs = append(errs, fmt.Errorf("serve: sync %s from %s: %w", day, peer, err))
		s.logp("%v", errs[len(errs)-1])
	}
	s.met.builds.Inc()
	start := time.Now()
	snap, err := s.buildFn(ctx, date)
	s.met.buildSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.met.buildErrors.Inc()
		return nil, errors.Join(append(errs, err)...)
	}
	snap.Source = "build"
	return snap, nil
}

// publishLocked (e.mu held) makes snap the entry's answer; readers never
// block on it. Past synth.ViewCacheCap published dates the
// longest-published one other than the headline is dropped, to be
// resolved again if it is asked for again. A published entry has no
// resolve in flight, so none is ever dropped under its waiters.
func (s *Store) publishLocked(e *storeEntry, snap *Snapshot) {
	e.snap.Store(snap)
	e.failures, e.retryAt, e.lastErr = 0, time.Time{}, nil
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append(s.order, e.date.Unix())
	if len(s.order) > synth.ViewCacheCap {
		i := 0
		if s.order[0] == s.headline.Unix() {
			i = 1
		}
		delete(s.entries, s.order[i])
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

// buildSnapshot is the production build: the world's view of the date
// (one relying-party run) and its dataset, then the shared tail.
func (s *Store) buildSnapshot(ctx context.Context, date time.Time) (*Snapshot, error) {
	ctx, span := obsv.StartSpan(ctx, "serve.snapshot.build", obsv.KV("date", date.Format("2006-01-02")))
	defer span.End()
	view, err := s.world.At(ctx, date, s.workers)
	if err != nil {
		return nil, fmt.Errorf("serve: relying party: %w", err)
	}
	return s.assemble(ctx, view)
}

// assemble is the tail a built and a restored snapshot share: the
// view's dataset (built here, or the archive's), per-AS metrics, the
// prefix row index and the precomputed aggregates.
func (s *Store) assemble(ctx context.Context, view *synth.View) (*Snapshot, error) {
	ds, err := view.Dataset(ctx, s.workers)
	if err != nil {
		return nil, fmt.Errorf("serve: build dataset: %w", err)
	}
	snap := &Snapshot{
		Version:  s.Version(view.Date),
		Date:     view.Date,
		World:    s.world,
		Pipeline: core.RestorePipeline(s.world, view.Date, s.workers, ds),
		RPKI:     view.RPKI,
		IRR:      view.IRR,
		byPrefix: buildByPrefix(ds.PrefixOrigins),
	}
	snap.Stats = computeStats(snap)
	return snap, nil
}

// Status summarizes the store for an admin /healthz probe: one
// "snapshot.<date>" detail per known date key, "published" or
// "building".
func (s *Store) Status() map[string]string {
	s.mu.Lock()
	entries := make([]*storeEntry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].date.Before(entries[j].date) })
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		state := "building"
		if snap := e.snap.Load(); snap != nil {
			state = snap.Version
		}
		key := "snapshot." + e.date.Format("2006-01-02")
		out[key] = state
		e.mu.Lock()
		if e.failures > 0 {
			out[key+".backoff"] = fmt.Sprintf("%d consecutive build failures, next attempt %s",
				e.failures, e.retryAt.UTC().Format(time.RFC3339))
		}
		e.mu.Unlock()
	}
	if s.durable != nil {
		for k, v := range s.durable.Status() {
			out[k] = v
		}
	}
	return out
}

// Ready reports whether the headline snapshot is published.
func (s *Store) Ready() bool {
	return s.entry(s.DefaultDate()).snap.Load() != nil
}
