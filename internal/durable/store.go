// store.go is the on-disk archive store: one snapshot archive per
// (world fingerprint, date) key, named after the key alone and written
// with the classic durability protocol (write to a temp file, fsync,
// atomically rename over the key's file, fsync the directory),
// corruption quarantine on load, and a retention janitor that keeps the
// directory under a size budget without ever deleting the newest
// archive. The directory listing is the index; there is no other.
//
// Crash recovery invariants, in order of what a reboot can find:
//
//   - a leftover *.tmp file (crash mid-write): removed at Open; the
//     key's file still holds the previous archive, if any.
//   - an archive whose rename landed but whose data is torn: the
//     CRC-32C footer fails at Load; the file is quarantined and Load
//     reports ErrNotFound, so the caller peer-syncs or builds cold.
//
// The store never serves bytes that fail the checksum: Load either
// returns a fully decoded, verified snapshot or an error.

package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
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

	// MaxArchiveBytes bounds one archive, read from disk or from a peer:
	// large-world archives run ~100 MB; 1 GiB is far above any plausible
	// archive and far below a memory-exhaustion attack surface.
	MaxArchiveBytes = 1 << 30

	archiveSuffix    = ".mds"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantined"
)

// ErrNotFound reports that no intact archive exists for a key.
var ErrNotFound = errors.New("durable: no archive for key")

// errDamaged marks an archive file readLocked refuses by its size alone.
var errDamaged = errors.New("bad size")

// Options tunes a Store.
type Options struct {
	// FS is the filesystem; nil means the real one (OSFS).
	FS FS
	// MaxBytes is the retention budget; ≤ 0 means DefaultMaxBytes. It
	// also bounds one archive read (ReadLimit): a file over it is
	// quarantined unread, so a budget smaller than one archive keeps
	// nothing a restart can load.
	MaxBytes int64
	// Registry receives the store's metrics; nil means obsv.Default().
	Registry *obsv.Registry
	// Logf, when set, receives operational events (recoveries,
	// quarantines).
	Logf func(format string, args ...any)
}

type storeMetrics struct {
	persists       *obsv.Counter
	persistErrors  *obsv.Counter
	persistSkipped *obsv.Counter
	loads          *obsv.Counter
	loadErrors     *obsv.Counter
	quarantines    *obsv.Counter
	gcRemoved      *obsv.Counter
}

// Store is one archive directory. All methods are safe for concurrent
// use; mutations are serialized on one mutex (archives are written in
// the background of a serving daemon — latency here is off the query
// path by construction).
type Store struct {
	dir      string
	fs       FS
	maxBytes int64
	logf     func(format string, args ...any)
	met      storeMetrics

	mu sync.Mutex
	// sums maps an archive file name to the checksum of its content,
	// for the keys this Store has saved or loaded.
	sums map[string]uint64
}

// Open opens (creating if needed) the archive directory at dir and
// sweeps temp-file leftovers from crashed writes.
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
		dir:      dir,
		fs:       fsys,
		maxBytes: opts.MaxBytes,
		logf:     opts.Logf,
		sums:     map[string]uint64{},
		met: storeMetrics{
			persists:       reg.Counter("durable_persist_total", "snapshot archives persisted"),
			persistErrors:  reg.Counter("durable_persist_errors_total", "snapshot persist attempts that failed"),
			persistSkipped: reg.Counter("durable_persist_skipped_total", "persists skipped because the key's archive already has this content"),
			loads:          reg.Counter("durable_load_total", "snapshot archives loaded and verified"),
			loadErrors:     reg.Counter("durable_load_errors_total", "archive loads that failed on I/O (damaged archives count under durable_quarantine_total)"),
			quarantines:    reg.Counter("durable_quarantine_total", "damaged archives quarantined"),
			gcRemoved:      reg.Counter("durable_gc_removed_total", "archives removed by the retention janitor"),
		},
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: create %s: %w", dir, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: read %s: %w", dir, err)
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), tmpSuffix) {
			// A crash mid-write left this; it was never renamed into place.
			_ = fsys.Remove(filepath.Join(dir, de.Name()))
			s.logp("durable: swept crashed temp file %s", de.Name())
		}
	}
	return s, nil
}

// Dir returns the archive directory.
func (s *Store) Dir() string { return s.dir }

// archiveName is the one file name a key's archive has.
func archiveName(key Key) string {
	return "snap-" + key.Date.Format("2006-01-02") + "-" + key.Fingerprint + archiveSuffix
}

// parseArchiveName inverts archiveName:
// "snap-2022-05-01-w0123456789abcdef.mds". A fingerprint holds no '-',
// so names of any other layout do not parse.
func parseArchiveName(name string) (Key, bool) {
	body, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return Key{}, false
	}
	body, ok = strings.CutSuffix(body, archiveSuffix)
	if !ok || len(body) < 12 || body[10] != '-' || strings.ContainsAny(body[11:], "-/") {
		return Key{}, false
	}
	date, err := time.Parse("2006-01-02", body[:10])
	if err != nil {
		return Key{}, false
	}
	return Key{Fingerprint: body[11:], Date: date}, true
}

// Save encodes d and commits it over its key's archive with the temp +
// fsync + rename protocol, then runs the retention janitor. Saving the
// content the key's archive already holds is a no-op. An archive over
// ReadLimit is refused before anything is written, as a failed persist:
// Load would quarantine it unread.
func (s *Store) Save(ctx context.Context, d *SnapshotData) error {
	_, span := obsv.StartSpan(ctx, "durable.save", obsv.KV("key", d.Key().String()))
	defer span.End()

	// The archive is encoded into a pooled buffer, reused from save to
	// save, and written from it.
	_, espan := obsv.StartSpan(ctx, "durable.encode")
	pooled := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(pooled)
	*pooled = appendArchive((*pooled)[:0], d)
	buf := *pooled
	espan.SetAttr("bytes", len(buf))
	espan.End()
	sum := binary.LittleEndian.Uint64(buf[len(buf)-8:]) // the footer just computed
	key := d.Key()
	name := archiveName(key)
	span.SetAttr("file", name)
	if limit := s.ReadLimit(); int64(len(buf)) > limit {
		err := fmt.Errorf("durable: archive %s is %d bytes, over the %d-byte read limit", name, len(buf), limit)
		s.met.persistErrors.Inc()
		span.SetAttr("error", err.Error())
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	if prev, ok := s.sums[name]; ok && prev == sum {
		if _, err := s.fs.Stat(filepath.Join(s.dir, name)); err == nil {
			s.met.persistSkipped.Inc()
			span.SetAttr("skipped", true)
			return nil
		}
	}

	delete(s.sums, name)
	if err := s.commitLocked(name, buf); err != nil {
		s.met.persistErrors.Inc()
		span.SetAttr("error", err.Error())
		return err
	}
	s.sums[name] = sum
	s.gcLocked()
	s.met.persists.Inc()
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

// Load returns the archive for key, verifying the checksum and fully
// decoding before anything is served. A damaged archive (bad checksum,
// truncation, version skew, wrong key) is quarantined. ErrNotFound
// means the key has no intact archive; any other error is an I/O
// failure that left the file where it is.
func (s *Store) Load(ctx context.Context, key Key) (*SnapshotData, error) {
	_, span := obsv.StartSpan(ctx, "durable.load", obsv.KV("key", key.String()))
	defer span.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	name := archiveName(key)
	data, err := s.readLocked(name)
	if errors.Is(err, fs.ErrNotExist) {
		span.SetAttr("found", false)
		return nil, fmt.Errorf("%w %s", ErrNotFound, key)
	}
	if err != nil && !errors.Is(err, errDamaged) {
		s.met.loadErrors.Inc()
		span.SetAttr("error", err.Error())
		return nil, fmt.Errorf("durable: load %s: %w", key, err)
	}
	var d *SnapshotData
	if err == nil {
		_, dspan := obsv.StartSpan(ctx, "durable.decode", obsv.KV("bytes", len(data)))
		d, err = Decode(data)
		dspan.End()
	}
	if err == nil && d.Key().String() != key.String() {
		err = fmt.Errorf("archive holds %s", d.Key())
	}
	if err != nil {
		s.quarantineLocked(name, err)
		span.SetAttr("found", false)
		return nil, fmt.Errorf("%w %s", ErrNotFound, key)
	}
	s.sums[name] = binary.LittleEndian.Uint64(data[len(data)-8:]) // verified by Decode
	s.met.loads.Inc()
	span.SetAttr("found", true)
	return d, nil
}

// ReadLimit is the largest archive the store reads, from its directory
// or from a peer: its byte budget, capped at MaxArchiveBytes. A nil
// store reads up to MaxArchiveBytes.
func (s *Store) ReadLimit() int64 {
	if s == nil {
		return MaxArchiveBytes
	}
	return min(s.maxBytes, MaxArchiveBytes)
}

// readLocked reads archive name whole: its size from Stat, then one read
// into a buffer of exactly that size. A file over ReadLimit is damage,
// refused before anything is allocated for it; so is a file shorter
// than Stat said.
func (s *Store) readLocked(name string) ([]byte, error) {
	path := filepath.Join(s.dir, name)
	fi, err := s.fs.Stat(path)
	if err != nil {
		return nil, err
	}
	if limit := s.ReadLimit(); fi.Size() > limit {
		return nil, fmt.Errorf("%w: %d bytes, over the %d-byte bound", errDamaged, fi.Size(), limit)
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: fewer bytes than the %d Stat reported", errDamaged, fi.Size())
	} else if err != nil {
		return nil, err
	}
	return data, nil
}

// quarantineLocked moves a damaged archive aside (never deletes it —
// it is forensic evidence until the janitor needs the space) and
// counts it.
func (s *Store) quarantineLocked(name string, cause error) {
	s.met.quarantines.Inc()
	delete(s.sums, name)
	from := filepath.Join(s.dir, name)
	if err := s.fs.Rename(from, from+quarantineSuffix); err != nil {
		s.logp("durable: quarantine %s (%v): rename failed: %v", name, cause, err)
		return
	}
	s.logp("durable: quarantined damaged archive %s: %v", name, cause)
}

// gcLocked is the retention janitor, run after every save: while the
// directory is over budget it removes quarantined files, then
// archives, oldest first, and never the newest archive.
func (s *Store) gcLocked() {
	archives, quarantined := s.listLocked()
	total := size(archives) + size(quarantined)
	evict := func(files []archiveFile, keep int) {
		for total > s.maxBytes && len(files) > keep {
			oldest := files[len(files)-1]
			files = files[:len(files)-1]
			total -= oldest.size
			if err := s.fs.Remove(filepath.Join(s.dir, oldest.name)); err == nil {
				s.met.gcRemoved.Inc()
			}
			delete(s.sums, oldest.name)
		}
	}
	evict(quarantined, 0)
	evict(archives, 1)
}

// archiveFile is one entry of the directory listing.
type archiveFile struct {
	name string
	key  Key
	size int64
	at   time.Time
}

// listLocked reads the index, the directory listing, as archives and
// quarantined archives, each newest mtime first with ties broken by
// name, later name first. Files whose names parse as neither are
// ignored.
func (s *Store) listLocked() (archives, quarantined []archiveFile) {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		s.logp("durable: list %s: %v", s.dir, err)
		return nil, nil
	}
	for _, de := range des {
		stem, isQuarantined := strings.CutSuffix(de.Name(), quarantineSuffix)
		key, ok := parseArchiveName(stem)
		if !ok {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		f := archiveFile{name: de.Name(), key: key, size: fi.Size(), at: fi.ModTime()}
		if isQuarantined {
			quarantined = append(quarantined, f)
		} else {
			archives = append(archives, f)
		}
	}
	newestFirst := func(a, b archiveFile) int {
		if c := b.at.Compare(a.at); c != 0 {
			return c
		}
		return strings.Compare(b.name, a.name)
	}
	slices.SortFunc(archives, newestFirst)
	slices.SortFunc(quarantined, newestFirst)
	return archives, quarantined
}

func size(files []archiveFile) int64 {
	var total int64
	for _, f := range files {
		total += f.size
	}
	return total
}

// Keys lists the keys with an archive, newest first.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	archives, _ := s.listLocked()
	keys := make([]Key, len(archives))
	for i, a := range archives {
		keys[i] = a.key
	}
	return keys
}

// Status summarizes the store for an admin /healthz probe.
func (s *Store) Status() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	archives, quarantined := s.listLocked()
	out := map[string]string{
		"durable.dir":         s.dir,
		"durable.archives":    strconv.Itoa(len(archives)),
		"durable.bytes":       strconv.FormatInt(size(archives)+size(quarantined), 10),
		"durable.quarantined": strconv.Itoa(len(quarantined)),
	}
	if len(archives) > 0 {
		out["durable.newest"] = archives[0].key.String()
	}
	return out
}

func (s *Store) logp(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}
