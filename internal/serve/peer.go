// peer.go is the replica side of the cluster replication protocol: a
// published snapshot is exportable over the wire as the same compact,
// checksummed archive the durable store writes to disk (durable.Encode
// / durable.Decode), and a booting or lagging replica pulls that
// archive from a peer — or from the gateway's coordinator relay — and
// publishes it through the identical restore path a disk warm-start
// uses, instead of paying a multi-second (small world) to multi-minute
// (large world) local rebuild. The World.Fingerprint version scheme
// makes this safe end to end: restoreSnapshot refuses an archive whose
// fingerprint or version disagrees with the receiving store's world,
// so a peer can never inject a snapshot the replica would not have
// built itself.
//
// Endpoints (mounted on the serving mux, fleet-internal):
//
//	GET /peer/version              JSON: world fingerprint + published snapshot versions
//	GET /peer/snapshot[?date=...]  the encoded archive for the date (default: headline)

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/obsv"
)

// maxWireArchive bounds how many bytes SyncFrom will read from a peer:
// large-world archives run ~100 MB; 1 GiB is far above any plausible
// archive and far below a memory-exhaustion attack surface.
const maxWireArchive = 1 << 30

// peerEncodedCap bounds the per-server cache of encoded archives
// (FIFO); each entry is one date's archive, reused across peer fetches
// of the same published snapshot.
const peerEncodedCap = 4

// PeerVersion is the /peer/version response.
type PeerVersion struct {
	Fingerprint string `json:"fingerprint"`
	// Published maps date (YYYY-MM-DD) → snapshot version for every
	// date key with a published snapshot.
	Published map[string]string `json:"published"`
}

// peerVersion answers the fleet-internal version probe.
func (s *Server) peerVersion(w http.ResponseWriter, r *http.Request) {
	out := PeerVersion{
		Fingerprint: s.store.world.Fingerprint(),
		Published:   map[string]string{},
	}
	for date, snap := range s.store.published() {
		out.Published[date.Format("2006-01-02")] = snap.Version
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		obsv.WriteError(w, http.StatusInternalServerError, "encode failed")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(body, '\n'))
}

// peerSnapshot streams the encoded archive of the published snapshot
// at ?date (default: headline). 404 until a snapshot is published —
// the peer should try another replica or fall back to a local build,
// not wait on this one.
func (s *Server) peerSnapshot(w http.ResponseWriter, r *http.Request) {
	date, err := s.resolveDate(r)
	if err != nil {
		obsv.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := s.store.publishedAt(date)
	if snap == nil {
		obsv.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("no published snapshot for %s", date.Format("2006-01-02")))
		return
	}
	buf := s.encodedArchive(snap)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-MANRS-Snapshot", snap.Version)
	w.Header().Set("Content-Length", fmt.Sprint(len(buf)))
	_, _ = w.Write(buf)
	s.store.met.peerServes.Inc()
}

// encodedArchive returns the durable encoding of snap, memoized per
// version so a fleet of booting peers costs one encode, not N.
func (s *Server) encodedArchive(snap *Snapshot) []byte {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if buf, ok := s.peerEncoded[snap.Version]; ok {
		return buf
	}
	buf := durable.Encode(snapshotData(snap))
	if len(s.peerOrder) >= peerEncodedCap {
		delete(s.peerEncoded, s.peerOrder[0])
		s.peerOrder = s.peerOrder[1:]
	}
	s.peerEncoded[snap.Version] = buf
	s.peerOrder = append(s.peerOrder, snap.Version)
	return buf
}

// published returns every date key with a published snapshot.
func (s *Store) published() map[time.Time]*Snapshot {
	s.mu.Lock()
	entries := make([]*storeEntry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	out := make(map[time.Time]*Snapshot, len(entries))
	for _, e := range entries {
		if snap := e.snap.Load(); snap != nil {
			out[e.date] = snap
		}
	}
	return out
}

// publishedAt returns the published snapshot at date, or nil. Unlike
// Get it never triggers a build — the peer protocol only shares what
// already exists.
func (s *Store) publishedAt(date time.Time) *Snapshot {
	s.mu.Lock()
	e := s.entries[date.Unix()]
	s.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.snap.Load()
}

// SyncFrom pulls the archive for date from a peer (a replica base URL,
// or a gateway base URL via its /cluster/snapshot relay — both paths
// accept the same query) and publishes the restored snapshot, skipping
// the local pipeline build entirely. The restore path validates the
// archive checksum, the world fingerprint, and the snapshot version,
// so a wrong or torn archive is an error, never a wrong answer. When a
// snapshot for the date is already published, SyncFrom is a no-op
// returning it.
func (s *Store) SyncFrom(ctx context.Context, client *http.Client, base string, date time.Time) (*Snapshot, error) {
	e := s.entry(date)
	if snap := e.snap.Load(); snap != nil {
		return snap, nil
	}
	if client == nil {
		client = http.DefaultClient
	}
	// Both a replica and the gateway answer /peer/snapshot (the gateway
	// aliases its coordinator relay there), so one URL shape covers
	// "catch up from a sibling" and "catch up through the coordinator".
	url := base + "/peer/snapshot?date=" + date.Format("2006-01-02")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: sync from %s: %w", base, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		s.met.wireSyncErrors.Inc()
		return nil, fmt.Errorf("serve: sync from %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.met.wireSyncErrors.Inc()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("serve: sync from %s: status %d: %s", base, resp.StatusCode, body)
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxWireArchive))
	if err != nil {
		s.met.wireSyncErrors.Inc()
		return nil, fmt.Errorf("serve: sync from %s: read archive: %w", base, err)
	}
	d, err := durable.Decode(buf)
	if err != nil {
		s.met.wireSyncErrors.Inc()
		return nil, fmt.Errorf("serve: sync from %s: decode archive: %w", base, err)
	}
	snap, err := s.restoreSnapshot(ctx, d)
	if err != nil {
		s.met.wireSyncErrors.Inc()
		return nil, fmt.Errorf("serve: sync from %s: %w", base, err)
	}
	e.mu.Lock()
	if published := e.snap.Load(); published != nil {
		// A concurrent build won the race; its snapshot has the same
		// version by construction, so keep it.
		e.mu.Unlock()
		return published, nil
	}
	s.publishLocked(e, snap)
	e.mu.Unlock()
	s.met.wireSyncs.Inc()
	s.logp("serve: synced snapshot %s from peer %s via wire replication (no local rebuild)", snap.Version, base)
	return snap, nil
}

// SyncPeers tries each peer base URL in order until one sync succeeds,
// returning the published snapshot. Errors accumulate: a fleet where
// no peer has published yet reports every attempt, each cause still
// reachable through errors.Is and errors.As.
func (s *Store) SyncPeers(ctx context.Context, client *http.Client, peers []string, date time.Time) (*Snapshot, string, error) {
	if len(peers) == 0 {
		return nil, "", errors.New("serve: no peers configured")
	}
	var errs []error
	for _, p := range peers {
		snap, err := s.SyncFrom(ctx, client, p, date)
		if err == nil {
			return snap, p, nil
		}
		errs = append(errs, err)
		if ctx.Err() != nil {
			break
		}
	}
	return nil, "", fmt.Errorf("serve: no peer could provide %s: %w",
		date.Format("2006-01-02"), errors.Join(errs...))
}
