// peer.go is the cluster replication protocol, replica to replica: a
// published snapshot is exportable over the wire as the same compact,
// checksummed archive the durable store writes to disk, and a store
// with Peers pulls a cold date's archive from a sibling replica instead
// of paying a multi-second (small world) to multi-minute (large world)
// local build. restoreSnapshot refuses an archive whose fingerprint or
// version disagrees with the receiving store's world, so a peer can
// never inject a snapshot the replica would not have built itself.
//
// Endpoint (mounted on the serving mux, fleet-internal):
//
//	GET /peer/snapshot[?date=...]  the encoded archive for the date (default: headline)

package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/obsv"
)

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
	buf := durable.Encode(s.store.snapshotData(snap.Date, snap.Dataset(), snap.RPKI, snap.IRR))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-MANRS-Snapshot", snap.Version)
	w.Header().Set("Content-Length", fmt.Sprint(len(buf)))
	_, _ = w.Write(buf)
	s.store.met.peerServes.Inc()
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

// fromPeer pulls the archive for date from a peer replica's base URL
// and restores it. The restore checks the archive checksum, the world
// fingerprint and the snapshot version, so a wrong or torn archive is
// an error, never a wrong answer.
func (s *Store) fromPeer(ctx context.Context, base string, date time.Time) (*Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/peer/snapshot?date="+date.Format("2006-01-02"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	buf, err := readArchive(resp, s.durable.ReadLimit())
	if err != nil {
		return nil, fmt.Errorf("read archive: %w", err)
	}
	d, err := durable.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("decode archive: %w", err)
	}
	return s.restoreSnapshot(ctx, d)
}

// readArchive reads a peer's archive body whole, refusing one over limit
// bytes before allocating for it: one read into a buffer sized from
// Content-Length or, for a body of unknown length, a read that stops
// one byte past the limit.
func readArchive(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("%d bytes, over the %d-byte bound", resp.ContentLength, limit)
	}
	if resp.ContentLength >= 0 {
		buf := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) > limit {
		return nil, fmt.Errorf("over the %d-byte bound", limit)
	}
	return buf, nil
}
