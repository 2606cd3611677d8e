package durable

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/obsv"
)

func openTest(t *testing.T, dir string, opts Options) (*Store, *obsv.Registry) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obsv.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s, opts.Registry
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, reg := openTest(t, dir, Options{})
	ctx := context.Background()
	want := testSnapshotData(0)
	if err := s.Save(ctx, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := s.Load(ctx, want.Key())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("loaded snapshot differs from saved")
	}
	if reg.Value("durable_persist_total") != 1 || reg.Value("durable_load_total") != 1 {
		t.Errorf("persist/load counters = %d/%d, want 1/1",
			reg.Value("durable_persist_total"), reg.Value("durable_load_total"))
	}

	// A second store over the same directory (a restarted daemon)
	// loads the same snapshot.
	s2, _ := openTest(t, dir, Options{})
	got2, err := s2.Load(ctx, want.Key())
	if err != nil {
		t.Fatalf("load after reopen: %v", err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("reopened store loaded different content")
	}
}

func TestStoreLoadMissingKey(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), Options{})
	_, err := s.Load(context.Background(), Key{Fingerprint: "wdeadbeef00000000", Date: time.Now().UTC()})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestStoreIdenticalSaveSkipped(t *testing.T) {
	s, reg := openTest(t, t.TempDir(), Options{})
	ctx := context.Background()
	d := testSnapshotData(0)
	for i := 0; i < 3; i++ {
		if err := s.Save(ctx, d); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if got := reg.Value("durable_persist_total"); got != 1 {
		t.Errorf("durable_persist_total = %d, want 1", got)
	}
	if got := reg.Value("durable_persist_skipped_total"); got != 2 {
		t.Errorf("durable_persist_skipped_total = %d, want 2", got)
	}
}

// TestStoreQuarantinesCorruption damages a key's archive on disk — a
// flipped byte, or the archive rewritten in the v2 format — and checks
// Load quarantines it and reports ErrNotFound, that a reopened store
// does not quarantine again, and that the next save of the key loads
// again.
func TestStoreQuarantinesCorruption(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"bit flip":   func(raw []byte) []byte { raw[len(raw)/2] ^= 0xff; return raw },
		"v2 archive": asV2,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, reg := openTest(t, dir, Options{})
			ctx := context.Background()
			d := testSnapshotData(0)
			if err := s.Save(ctx, d); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, archiveName(d.Key()))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			for range 2 { // quarantined once; the second Load finds no file
				if _, err := s.Load(ctx, d.Key()); !errors.Is(err, ErrNotFound) {
					t.Fatalf("load after damage: %v, want ErrNotFound", err)
				}
			}
			if reg.Value("durable_quarantine_total") != 1 {
				t.Errorf("durable_quarantine_total = %d, want 1", reg.Value("durable_quarantine_total"))
			}
			if _, err := os.Stat(path + quarantineSuffix); err != nil {
				t.Errorf("damaged archive not quarantined: %v", err)
			}

			// A reopened store finds no archive for the key and quarantines
			// nothing; the next save of the key is loadable again.
			s2, reg2 := openTest(t, dir, Options{})
			if _, err := s2.Load(ctx, d.Key()); !errors.Is(err, ErrNotFound) {
				t.Fatalf("reopened load: %v, want ErrNotFound", err)
			}
			if reg2.Value("durable_quarantine_total") != 0 {
				t.Errorf("reopened store re-quarantined: %d", reg2.Value("durable_quarantine_total"))
			}
			if err := s2.Save(ctx, d); err != nil {
				t.Fatal(err)
			}
			if got, err := s2.Load(ctx, d.Key()); err != nil || !reflect.DeepEqual(got, d) {
				t.Fatalf("load after re-save: %v", err)
			}
		})
	}
}

// sizeFS reports each archive's size from Stat as statSize(the real
// size) and, when archives are unreadable, fails the test on opening one.
type sizeFS struct {
	OSFS
	t          *testing.T
	statSize   func(int64) int64
	unreadable bool
}

type sizedInfo struct {
	fs.FileInfo
	size int64
}

func (i sizedInfo) Size() int64 { return i.size }

func (f sizeFS) Stat(name string) (fs.FileInfo, error) {
	fi, err := f.OSFS.Stat(name)
	if err != nil || !strings.HasSuffix(name, archiveSuffix) {
		return fi, err
	}
	return sizedInfo{fi, f.statSize(fi.Size())}, nil
}

func (f sizeFS) Open(name string) (io.ReadCloser, error) {
	if f.unreadable && strings.HasSuffix(name, archiveSuffix) {
		f.t.Errorf("opened %s, whose size alone condemns it", name)
	}
	return f.OSFS.Open(name)
}

// TestStoreBoundsArchiveRead: an archive file whose Stat says one byte
// over MaxArchiveBytes is quarantined without being read, and so is one
// byte over the store's own budget; one shorter than its Stat size is
// quarantined too. Either way the key loads as ErrNotFound, so its date
// cold-builds.
func TestStoreBoundsArchiveRead(t *testing.T) {
	d := testSnapshotData(0)
	size := int64(len(Encode(d)))
	for name, tc := range map[string]struct {
		fsys   sizeFS
		budget int64
	}{
		"over the bound":  {fsys: sizeFS{t: t, statSize: func(int64) int64 { return MaxArchiveBytes + 1 }, unreadable: true}},
		"over the budget": {fsys: sizeFS{t: t, statSize: func(n int64) int64 { return n }, unreadable: true}, budget: size - 1},
		"short of Stat":   {fsys: sizeFS{t: t, statSize: func(n int64) int64 { return n + 1 }}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openTest(t, dir, Options{})
			if err := s.Save(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			bounded, reg := openTest(t, dir, Options{FS: tc.fsys, MaxBytes: tc.budget})
			if _, err := bounded.Load(context.Background(), d.Key()); !errors.Is(err, ErrNotFound) {
				t.Fatalf("load: %v, want ErrNotFound", err)
			}
			if reg.Value("durable_quarantine_total") != 1 {
				t.Errorf("durable_quarantine_total = %d, want 1", reg.Value("durable_quarantine_total"))
			}
			if _, err := os.Stat(filepath.Join(dir, archiveName(d.Key())+quarantineSuffix)); err != nil {
				t.Errorf("archive not quarantined: %v", err)
			}
		})
	}
}

// TestStoreSaveWithinReadLimit saves an archive one byte over the budget:
// Save fails and counts a persist error, writes nothing (no temp file,
// no archive), and a later Load finds nothing to quarantine. At exactly
// the budget the same archive saves and loads.
func TestStoreSaveWithinReadLimit(t *testing.T) {
	d := testSnapshotData(0)
	size := int64(len(Encode(d)))
	dir := t.TempDir()
	s, reg := openTest(t, dir, Options{MaxBytes: size - 1})
	ctx := context.Background()
	if err := s.Save(ctx, d); err == nil {
		t.Fatal("save over the read limit succeeded")
	}
	if got := reg.Value("durable_persist_errors_total"); got != 1 {
		t.Errorf("durable_persist_errors_total = %d, want 1", got)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory holds %v (%v), want nothing", entries, err)
	}
	if _, err := s.Load(ctx, d.Key()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load: %v, want ErrNotFound", err)
	}
	if got := reg.Value("durable_quarantine_total"); got != 0 {
		t.Errorf("durable_quarantine_total = %d, want 0", got)
	}

	fits, _ := openTest(t, dir, Options{MaxBytes: size})
	if err := fits.Save(ctx, d); err != nil {
		t.Fatal(err)
	}
	if _, err := fits.Load(ctx, d.Key()); err != nil {
		t.Fatalf("load at exactly the budget: %v", err)
	}
}

// TestStoreOneArchivePerKey saves five versions of one key and checks
// the directory holds one archive, the last, with nothing counted as
// removed: each save replaces the key's file.
func TestStoreOneArchivePerKey(t *testing.T) {
	dir := t.TempDir()
	s, reg := openTest(t, dir, Options{})
	ctx := context.Background()
	var last *SnapshotData
	for i := 0; i < 5; i++ {
		last = testSnapshotData(i)
		if err := s.Save(ctx, last); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 || filepath.Base(files[0]) != archiveName(last.Key()) {
		t.Fatalf("directory holds %v, want only %s", files, archiveName(last.Key()))
	}
	if reg.Value("durable_persist_total") != 5 || reg.Value("durable_gc_removed_total") != 0 {
		t.Errorf("persist/gc_removed = %d/%d, want 5/0",
			reg.Value("durable_persist_total"), reg.Value("durable_gc_removed_total"))
	}
	s2, _ := openTest(t, dir, Options{})
	if got, err := s2.Load(ctx, last.Key()); err != nil || !reflect.DeepEqual(got, last) {
		t.Fatalf("reopened store must load the last save: %v", err)
	}
}

// TestStoreIgnoresForeignFiles plants the files of an older directory
// layout, an index file and an archive whose name carries its
// checksum, and checks the store neither loads, lists, counts nor
// removes them, even when the janitor runs over budget.
func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	d := testSnapshotData(0)
	buf := Encode(d)
	foreign := []string{
		filepath.Join(dir, "MANIFEST.json"),
		filepath.Join(dir, fmt.Sprintf("snap-2022-05-01-%s-%016x.mds", d.Fingerprint, Checksum(buf))),
	}
	for _, f := range foreign {
		if err := os.WriteFile(f, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	other := testSnapshotData(1)
	other.Date = other.Date.AddDate(0, 0, 1)
	other.Version = other.Key().String()
	// A budget of exactly one archive: the store reads and saves that
	// one, and the foreign files count against nothing.
	s, reg := openTest(t, dir, Options{MaxBytes: int64(len(Encode(other)))})
	ctx := context.Background()
	if _, err := s.Load(ctx, d.Key()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load: %v, want ErrNotFound", err)
	}
	if keys := s.Keys(); len(keys) != 0 {
		t.Fatalf("Keys() = %v, want none", keys)
	}
	if err := s.Save(ctx, other); err != nil {
		t.Fatal(err)
	}
	for _, f := range foreign {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("foreign file %s removed: %v", filepath.Base(f), err)
		}
	}
	if got := s.Status()["durable.bytes"]; got != fmt.Sprint(len(Encode(other))) {
		t.Errorf("durable.bytes = %s, want only the one archive (%d)", got, len(Encode(other)))
	}
	if reg.Value("durable_gc_removed_total") != 0 || reg.Value("durable_quarantine_total") != 0 {
		t.Errorf("gc_removed/quarantine = %d/%d, want 0/0",
			reg.Value("durable_gc_removed_total"), reg.Value("durable_quarantine_total"))
	}
}

// TestStoreSweepsTempLeftovers plants a crashed write's temp file and
// checks Open removes it.
func TestStoreSweepsTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap-2022-05-01-wfeed.mds.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp leftover not swept: %v", err)
	}
}

// TestStoreGCBudget saves archives for several dates under a tiny
// budget and checks the janitor deletes oldest-first but never the
// newest archive overall.
func TestStoreGCBudget(t *testing.T) {
	dir := t.TempDir()
	one := Encode(testSnapshotData(0))
	s, _ := openTest(t, dir, Options{MaxBytes: int64(len(one)) + 10})
	ctx := context.Background()
	var last *SnapshotData
	for i := 0; i < 4; i++ {
		d := testSnapshotData(0)
		d.Date = d.Date.AddDate(0, 0, i) // distinct key per save
		d.Version = d.Key().String()
		if err := s.Save(ctx, d); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		last = d
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+archiveSuffix))
	if len(files) != 1 {
		t.Fatalf("%d archives on disk, want 1 under budget", len(files))
	}
	if !strings.Contains(files[0], last.Date.Format("2006-01-02")) {
		t.Fatalf("survivor %s is not the newest archive", files[0])
	}
	if got, err := s.Load(ctx, last.Key()); err != nil || !reflect.DeepEqual(got, last) {
		t.Fatalf("newest archive unloadable after GC: %v", err)
	}
}

func TestParseArchiveName(t *testing.T) {
	key := Key{Fingerprint: "w0123456789abcdef", Date: time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)}
	name := archiveName(key)
	if name != "snap-2022-05-01-w0123456789abcdef.mds" {
		t.Fatalf("archiveName = %q", name)
	}
	got, ok := parseArchiveName(name)
	if !ok || got.String() != key.String() {
		t.Fatalf("parse %q: %v %v", name, got, ok)
	}
	for _, bad := range []string{
		"", "snap-.mds", "snap-2022-05-01.mds", "snap-2022-05-01-.mds",
		"other-2022-05-01-w1.mds", "snap-2022-05-01-w1.mds.tmp",
		"snap-2022-13-99-w1.mds",
		"snap-2022-05-01-w0123456789abcdef-deadbeefcafef00d.mds",
		"MANIFEST.json",
	} {
		if _, ok := parseArchiveName(bad); ok {
			t.Errorf("parseArchiveName(%q) accepted", bad)
		}
	}
}
