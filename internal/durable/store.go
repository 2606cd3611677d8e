// store.go is the on-disk archive store: content-addressed snapshot
// archives written with the classic durability protocol (write to a
// temp file, fsync, atomically rename into place, fsync the
// directory), a JSON manifest whose first entry always names the last
// known-good archive, corruption quarantine on load, and a retention
// janitor that keeps the directory under a size budget without ever
// deleting the newest good archive.
//
// Crash recovery invariants, in order of what a reboot can find:
//
//   - a leftover *.tmp file (crash mid-write): removed at Open; the
//     manifest never referenced it.
//   - an archive whose rename landed but whose data is torn: the
//     fnv64a footer fails at Load; the file is quarantined and the
//     previous manifest entry is tried.
//   - a missing or corrupt manifest: the directory is rescanned and
//     the manifest rebuilt from the archive files themselves (their
//     names carry key + checksum), newest first.
//
// The store never serves bytes that fail the checksum: Load either
// returns a fully decoded, verified snapshot or ErrNotFound.

package durable

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"manrsmeter/internal/obsv"
)

const (
	// DefaultMaxBytes is the default retention budget for an archive
	// directory.
	DefaultMaxBytes = 256 << 20
	// DefaultKeepPerKey is how many archives of one (world, date) key
	// the janitor retains.
	DefaultKeepPerKey = 3

	manifestName     = "MANIFEST.json"
	archiveSuffix    = ".mds"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantined"
)

// ErrNotFound reports that no intact archive exists for a key.
var ErrNotFound = errors.New("durable: no archive for key")

// Options tunes a Store.
type Options struct {
	// FS is the filesystem; nil means the real one (OSFS).
	FS FS
	// MaxBytes is the retention budget; ≤ 0 means DefaultMaxBytes.
	MaxBytes int64
	// KeepPerKey caps archives retained per key; ≤ 0 means
	// DefaultKeepPerKey.
	KeepPerKey int
	// Registry receives the store's metrics; nil means obsv.Default().
	Registry *obsv.Registry
	// Logf, when set, receives operational events (recoveries,
	// quarantines, GC).
	Logf func(format string, args ...any)
}

// manifest is the on-disk index: entries newest-first, so Entries[0]
// is the last known-good archive overall.
type manifest struct {
	Version int             `json:"version"`
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Key      string `json:"key"`
	File     string `json:"file"`
	Size     int64  `json:"size"`
	Checksum string `json:"checksum"`
	SavedAt  string `json:"saved_at"`
}

type storeMetrics struct {
	persists       *obsv.Counter
	persistErrors  *obsv.Counter
	persistSkipped *obsv.Counter
	loads          *obsv.Counter
	loadErrors     *obsv.Counter
	quarantines    *obsv.Counter
	quarFiles      *obsv.Gauge
	gcRemoved      *obsv.Counter
	bytes          *obsv.Gauge
	persistSeconds *obsv.Histogram
	loadSeconds    *obsv.Histogram
}

// Store is one archive directory. All methods are safe for concurrent
// use; mutations are serialized on one mutex (archives are written in
// the background of a serving daemon — latency here is off the query
// path by construction).
type Store struct {
	dir        string
	fs         FS
	maxBytes   int64
	keepPerKey int
	logf       func(format string, args ...any)
	met        storeMetrics

	mu  sync.Mutex
	man manifest
}

// Open opens (creating if needed) the archive directory at dir,
// recovers the manifest — rebuilding it from the archive files when
// missing or corrupt — and sweeps temp-file leftovers from crashed
// writes.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	reg := opts.Registry
	if reg == nil {
		reg = obsv.Default()
	}
	s := &Store{
		dir:        dir,
		fs:         fsys,
		maxBytes:   opts.MaxBytes,
		keepPerKey: opts.KeepPerKey,
		logf:       opts.Logf,
		met: storeMetrics{
			persists:       reg.Counter("durable_persist_total", "snapshot archives persisted"),
			persistErrors:  reg.Counter("durable_persist_errors_total", "snapshot persist attempts that failed"),
			persistSkipped: reg.Counter("durable_persist_skipped_total", "persists skipped because the newest archive already has this content"),
			loads:          reg.Counter("durable_load_total", "snapshot archives loaded and verified"),
			loadErrors:     reg.Counter("durable_load_errors_total", "archive loads that failed verification or I/O"),
			quarantines:    reg.Counter("durable_quarantine_total", "damaged archives quarantined"),
			quarFiles:      reg.Gauge("durable_quarantined_files", "quarantined archive files currently on disk"),
			gcRemoved:      reg.Counter("durable_gc_removed_total", "archives removed by the retention janitor"),
			bytes:          reg.Gauge("durable_archive_bytes", "bytes of archives referenced by the manifest"),
			persistSeconds: reg.Histogram("durable_persist_seconds", "snapshot persist latency", nil),
			loadSeconds:    reg.Histogram("durable_load_seconds", "snapshot load+verify latency (warm-start recovery time)", nil),
		},
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if s.keepPerKey <= 0 {
		s.keepPerKey = DefaultKeepPerKey
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: create %s: %w", dir, err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.refreshGauges()
	return s, nil
}

// Dir returns the archive directory.
func (s *Store) Dir() string { return s.dir }

// recover loads the manifest, falling back to a directory rescan, and
// sweeps *.tmp leftovers.
func (s *Store) recover() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("durable: read %s: %w", s.dir, err)
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), tmpSuffix) {
			// A crash mid-write left this; it was never referenced.
			_ = s.fs.Remove(filepath.Join(s.dir, de.Name()))
			s.logp("durable: swept crashed temp file %s", de.Name())
		}
	}
	if err := s.readManifest(); err != nil {
		s.logp("durable: manifest unusable (%v); rebuilding from archive files", err)
		s.rebuildManifest(entries)
	}
	// Drop manifest entries whose files vanished.
	kept := s.man.Entries[:0]
	for _, e := range s.man.Entries {
		if _, err := s.fs.Stat(filepath.Join(s.dir, e.File)); err == nil {
			kept = append(kept, e)
		}
	}
	s.man.Entries = kept
	return nil
}

func (s *Store) readManifest() error {
	f, err := s.fs.Open(filepath.Join(s.dir, manifestName))
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m.Version != 1 {
		return fmt.Errorf("manifest version %d", m.Version)
	}
	for _, e := range m.Entries {
		if e.Key == "" || e.File == "" || strings.Contains(e.File, "/") {
			return fmt.Errorf("manifest entry malformed")
		}
	}
	s.man = m
	return nil
}

// rebuildManifest reconstructs the index from archive filenames
// (which embed key and checksum), newest mtime first. Integrity is
// still verified lazily at Load.
func (s *Store) rebuildManifest(entries []fs.DirEntry) {
	s.man = manifest{Version: 1}
	type cand struct {
		e  manifestEntry
		at time.Time
	}
	var cands []cand
	for _, de := range entries {
		name := de.Name()
		key, _, ok := parseArchiveName(name)
		if !ok {
			continue
		}
		fi, err := s.fs.Stat(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		cands = append(cands, cand{
			e: manifestEntry{
				Key:      key.String(),
				File:     name,
				Size:     fi.Size(),
				Checksum: checksumFromName(name),
				SavedAt:  fi.ModTime().UTC().Format(time.RFC3339),
			},
			at: fi.ModTime(),
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].at.After(cands[j].at) })
	for _, c := range cands {
		s.man.Entries = append(s.man.Entries, c.e)
	}
	if len(cands) > 0 {
		s.logp("durable: rebuilt manifest with %d archives", len(cands))
	}
}

// archiveName is the content address: key plus checksum.
func archiveName(key Key, sum uint64) string {
	return fmt.Sprintf("snap-%s-%s-%016x%s",
		key.Date.Format("2006-01-02"), key.Fingerprint, sum, archiveSuffix)
}

// parseArchiveName inverts archiveName:
// "snap-2022-05-01-w0123456789abcdef-<sum16>.mds".
func parseArchiveName(name string) (Key, uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, archiveSuffix) {
		return Key{}, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), archiveSuffix)
	if len(body) < 10+1+1+1+16 {
		return Key{}, 0, false
	}
	dateText := body[:10]
	date, err := time.Parse("2006-01-02", dateText)
	if err != nil || body[10] != '-' {
		return Key{}, 0, false
	}
	rest := body[11:]
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 || len(rest)-i-1 != 16 {
		return Key{}, 0, false
	}
	sum, err := strconv.ParseUint(rest[i+1:], 16, 64)
	if err != nil {
		return Key{}, 0, false
	}
	return Key{Fingerprint: rest[:i], Date: date}, sum, true
}

func checksumFromName(name string) string {
	_, sum, ok := parseArchiveName(name)
	if !ok {
		return ""
	}
	return fmt.Sprintf("%016x", sum)
}

// Save encodes d and commits it to the archive directory with the
// temp + fsync + rename protocol, then updates the manifest and runs
// the retention janitor. Saving content identical to the newest
// archive of the same key is a no-op.
func (s *Store) Save(ctx context.Context, d *SnapshotData) error {
	start := time.Now()
	_, span := obsv.StartSpan(ctx, "durable.save", obsv.KV("key", d.Key().String()))
	defer span.End()

	_, espan := obsv.StartSpan(ctx, "durable.encode")
	buf := Encode(d)
	espan.SetAttr("bytes", len(buf))
	espan.End()
	sum := binary.LittleEndian.Uint64(buf[len(buf)-8:]) // the footer Encode just computed
	key := d.Key()
	name := archiveName(key, sum)
	span.SetAttr("file", name)

	s.mu.Lock()
	defer s.mu.Unlock()

	if e, ok := s.newestLocked(key); ok && e.File == name {
		if _, err := s.fs.Stat(filepath.Join(s.dir, e.File)); err == nil {
			s.met.persistSkipped.Inc()
			span.SetAttr("skipped", true)
			return nil
		}
	}

	if err := s.commitLocked(name, buf); err != nil {
		s.met.persistErrors.Inc()
		span.SetAttr("error", err.Error())
		return err
	}
	s.man.Entries = append([]manifestEntry{{
		Key:      key.String(),
		File:     name,
		Size:     int64(len(buf)),
		Checksum: fmt.Sprintf("%016x", sum),
		SavedAt:  time.Now().UTC().Format(time.RFC3339),
	}}, s.man.Entries...)
	if err := s.writeManifestLocked(); err != nil {
		// The archive itself is durable; a rescan at next Open will
		// find it even though the manifest points one save behind.
		s.met.persistErrors.Inc()
		return fmt.Errorf("durable: update manifest: %w", err)
	}
	s.gcLocked()
	s.met.persists.Inc()
	s.met.persistSeconds.Observe(time.Since(start).Seconds())
	s.refreshGauges()
	s.logp("durable: archived snapshot %s (%d bytes) as %s", key, len(buf), name)
	return nil
}

// commitLocked writes buf to name via temp file + fsync + rename +
// directory fsync. On any failure the temp file is removed and the
// destination is untouched (or, after a torn rename, fails its
// checksum at load).
func (s *Store) commitLocked(name string, buf []byte) error {
	tmp := filepath.Join(s.dir, name+tmpSuffix)
	final := filepath.Join(s.dir, name)
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create temp: %w", err)
	}
	n, err := f.Write(buf)
	if err == nil && n != len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("durable: write archive: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("durable: commit archive: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}

func (s *Store) writeManifestLocked() error {
	data, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	return s.commitLocked(manifestName, append(data, '\n'))
}

// newestLocked returns the newest manifest entry for key.
func (s *Store) newestLocked(key Key) (manifestEntry, bool) {
	want := key.String()
	for _, e := range s.man.Entries {
		if e.Key == want {
			return e, true
		}
	}
	return manifestEntry{}, false
}

// Load returns the newest intact archive for key, verifying the
// checksum and fully decoding before anything is served. Damaged
// archives (bad checksum, truncation, version skew, wrong key) are
// quarantined and the next-older archive is tried; ErrNotFound means
// no intact archive survives.
func (s *Store) Load(ctx context.Context, key Key) (*SnapshotData, error) {
	start := time.Now()
	_, span := obsv.StartSpan(ctx, "durable.load", obsv.KV("key", key.String()))
	defer span.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	want := key.String()
	changed := false
	kept := s.man.Entries[:0]
	var found *SnapshotData
	for _, e := range s.man.Entries {
		if found != nil || e.Key != want {
			kept = append(kept, e)
			continue
		}
		d, err := s.loadEntryLocked(ctx, e, key)
		if err != nil {
			s.met.loadErrors.Inc()
			s.quarantineLocked(e.File, err)
			changed = true
			continue // entry dropped
		}
		found = d
		kept = append(kept, e)
	}
	s.man.Entries = kept
	if changed {
		if err := s.writeManifestLocked(); err != nil {
			s.logp("durable: rewrite manifest after quarantine: %v", err)
		}
		s.refreshGauges()
	}
	if found == nil {
		span.SetAttr("found", false)
		return nil, fmt.Errorf("%w %s", ErrNotFound, want)
	}
	s.met.loads.Inc()
	s.met.loadSeconds.Observe(time.Since(start).Seconds())
	span.SetAttr("found", true)
	return found, nil
}

func (s *Store) loadEntryLocked(ctx context.Context, e manifestEntry, key Key) (*SnapshotData, error) {
	f, err := s.fs.Open(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	_, dspan := obsv.StartSpan(ctx, "durable.decode", obsv.KV("bytes", len(data)))
	d, err := Decode(data)
	dspan.End()
	if err != nil {
		return nil, err
	}
	if d.Key().String() != key.String() {
		return nil, fmt.Errorf("archive is for %s, manifest says %s", d.Key(), key)
	}
	return d, nil
}

// quarantineLocked moves a damaged archive aside (never deletes it —
// it is forensic evidence) and counts it.
func (s *Store) quarantineLocked(file string, cause error) {
	s.met.quarantines.Inc()
	from := filepath.Join(s.dir, file)
	to := from + quarantineSuffix
	if err := s.fs.Rename(from, to); err != nil {
		s.logp("durable: quarantine %s (%v): rename failed: %v", file, cause, err)
		return
	}
	s.logp("durable: quarantined damaged archive %s: %v", file, cause)
}

// GC runs the retention janitor: per-key history caps, then the size
// budget, oldest first, never touching the newest entry overall (the
// last known-good snapshot survives any budget).
func (s *Store) GC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	s.refreshGauges()
}

func (s *Store) gcLocked() {
	changed := false
	// Per-key cap.
	perKey := map[string]int{}
	kept := s.man.Entries[:0]
	for _, e := range s.man.Entries {
		perKey[e.Key]++
		if perKey[e.Key] > s.keepPerKey {
			s.removeArchiveLocked(e.File)
			changed = true
			continue
		}
		kept = append(kept, e)
	}
	s.man.Entries = kept

	// Size budget: quarantined files go first, then the oldest
	// archives, never index 0.
	total := s.bytesLocked()
	if total > s.maxBytes {
		for _, q := range s.quarantinedLocked() {
			if total <= s.maxBytes {
				break
			}
			total -= q.size
			s.removeArchiveLocked(q.name)
		}
	}
	for total > s.maxBytes && len(s.man.Entries) > 1 {
		last := s.man.Entries[len(s.man.Entries)-1]
		s.man.Entries = s.man.Entries[:len(s.man.Entries)-1]
		total -= last.Size
		s.removeArchiveLocked(last.File)
		changed = true
	}

	// Sweep orphans: *.mds files no manifest entry references (a
	// crash between archive commit and manifest update, later
	// superseded).
	referenced := map[string]bool{}
	for _, e := range s.man.Entries {
		referenced[e.File] = true
	}
	if des, err := s.fs.ReadDir(s.dir); err == nil {
		for _, de := range des {
			name := de.Name()
			if strings.HasSuffix(name, archiveSuffix) && !referenced[name] {
				s.removeArchiveLocked(name)
			}
		}
	}

	if changed {
		if err := s.writeManifestLocked(); err != nil {
			s.logp("durable: rewrite manifest after gc: %v", err)
		}
	}
}

type quarFile struct {
	name string
	size int64
	at   time.Time
}

func (s *Store) quarantinedLocked() []quarFile {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []quarFile
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), quarantineSuffix) {
			continue
		}
		fi, err := s.fs.Stat(filepath.Join(s.dir, de.Name()))
		if err != nil {
			continue
		}
		out = append(out, quarFile{de.Name(), fi.Size(), fi.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out
}

func (s *Store) removeArchiveLocked(file string) {
	if err := s.fs.Remove(filepath.Join(s.dir, file)); err == nil {
		s.met.gcRemoved.Inc()
	}
}

func (s *Store) bytesLocked() int64 {
	var total int64
	for _, e := range s.man.Entries {
		total += e.Size
	}
	for _, q := range s.quarantinedLocked() {
		total += q.size
	}
	return total
}

func (s *Store) refreshGauges() {
	s.met.bytes.Set(float64(s.bytesLocked()))
	s.met.quarFiles.Set(float64(len(s.quarantinedLocked())))
}

// Keys lists the distinct keys with at least one archive, newest
// first.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	var out []Key
	for _, e := range s.man.Entries {
		if seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		if key, _, ok := parseArchiveName(e.File); ok {
			out = append(out, key)
		}
	}
	return out
}

// Status summarizes the store for an admin /healthz probe.
func (s *Store) Status() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]string{
		"durable.dir":         s.dir,
		"durable.archives":    strconv.Itoa(len(s.man.Entries)),
		"durable.bytes":       strconv.FormatInt(s.bytesLocked(), 10),
		"durable.quarantined": strconv.Itoa(len(s.quarantinedLocked())),
	}
	if len(s.man.Entries) > 0 {
		out["durable.newest"] = s.man.Entries[0].Key
	}
	return out
}

func (s *Store) logp(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}
