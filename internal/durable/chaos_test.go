package durable

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestCrashMidWriteRecovery is the kill-mid-write sweep: with one good
// archive A on disk, it attempts to save B through a filesystem that
// loses power at the Nth mutating operation, for every N until the
// save runs crash-free. After each crash the directory is reopened
// over a clean filesystem — the reboot — and the store must recover a
// snapshot that deep-equals either A or B (whichever durability point
// the crash landed on), never an error and never torn data.
func TestCrashMidWriteRecovery(t *testing.T) {
	ctx := context.Background()
	a, b := testSnapshotData(0), testSnapshotData(1) // same key, different content

	for n := 1; n < 100; n++ {
		dir := t.TempDir()
		clean, _ := openTest(t, dir, Options{})
		if err := clean.Save(ctx, a); err != nil {
			t.Fatalf("seed save: %v", err)
		}

		ffs := NewFaultFS(OSFS{}, FaultConfig{CrashAfterOps: n})
		crashed := true
		s, err := Open(dir, Options{FS: ffs, Logf: t.Logf})
		if err == nil {
			err = s.Save(ctx, b)
			crashed = ffs.Crashed()
			if err != nil && !crashed {
				t.Fatalf("crash point %d: save failed without crashing: %v", n, err)
			}
		}

		// Reboot: reopen over the real filesystem.
		after, reg := openTest(t, dir, Options{})
		got, err := after.Load(ctx, a.Key())
		if err != nil {
			t.Fatalf("crash point %d: no snapshot recovered: %v", n, err)
		}
		if !reflect.DeepEqual(got, a) && !reflect.DeepEqual(got, b) {
			t.Fatalf("crash point %d: recovered snapshot equals neither saved state", n)
		}
		if reg.Value("durable_load_total") != 1 {
			t.Fatalf("crash point %d: load not counted", n)
		}

		if !crashed {
			// The whole save ran before the crash point: B must be what
			// recovery finds, and the sweep is complete.
			if !reflect.DeepEqual(got, b) {
				t.Fatalf("crash point %d: save succeeded but recovery returned old state", n)
			}
			// Open's mkdir plus one commit: create, write, fsync, rename,
			// directory fsync.
			if n > 7 {
				t.Fatalf("save completes only at %d mutating ops, want <= 7", n)
			}
			t.Logf("save completes within %d mutating ops; swept all earlier crash points", n)
			return
		}
	}
	t.Fatal("save never completed within 100 mutating operations")
}

// TestChaosProbabilisticFaults hammers a store through a filesystem
// that randomly tears renames, rots reads, fails syncs, and runs out
// of space. The contract under fire: a Load that returns data returns
// exactly what Save persisted — faults may surface as errors, never as
// silently wrong snapshots — and once the faults stop, the store works.
func TestChaosProbabilisticFaults(t *testing.T) {
	ctx := context.Background()
	ffs := NewFaultFS(OSFS{}, FaultConfig{
		Seed:       42,
		ShortWrite: 0.05,
		WriteEIO:   0.05,
		NoSpace:    0.05,
		SyncFail:   0.05,
		RenameFail: 0.05,
		TornRename: 0.05,
		OpenFail:   0.05,
		ReadRot:    0.05,
	})
	dir := t.TempDir()
	s, err := Open(dir, Options{FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open under faults: %v", err)
	}

	saved := map[string]*SnapshotData{}
	var saves, loads, loadErrs int
	for i := 0; i < 200; i++ {
		d := testSnapshotData(i)
		d.Date = d.Date.AddDate(0, 0, i%20) // 20 distinct keys
		d.Version = d.Key().String()
		if err := s.Save(ctx, d); err == nil {
			saved[d.Key().String()] = d
			saves++
		}
		for key, want := range saved {
			got, err := s.Load(ctx, want.Key())
			if err != nil {
				loadErrs++
				// A fault (or a quarantine triggered by one) may make an
				// archive unavailable; it must never make it wrong.
				delete(saved, key)
				continue
			}
			loads++
			if got.Key().String() != key {
				t.Fatalf("load returned key %s, want %s", got.Key(), key)
			}
			break // one probe per round keeps the test fast
		}
	}
	t.Logf("chaos: %d saves ok, %d loads ok, %d loads failed, faults=%v",
		saves, loads, loadErrs, ffs.Counts())
	if saves == 0 {
		t.Fatal("no save ever succeeded; fault rates too hot to test anything")
	}
	fired := 0
	for class, n := range ffs.Counts() {
		if n > 0 && class != FaultCrash {
			fired++
		}
	}
	if fired < 5 {
		t.Errorf("only %d fault classes fired; chaos coverage too thin", fired)
	}

	// Calm seas: with injection off the store must work immediately.
	ffs.Disable()
	d := testSnapshotData(999)
	if err := s.Save(ctx, d); err != nil {
		t.Fatalf("save after faults disabled: %v", err)
	}
	got, err := s.Load(ctx, d.Key())
	if err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("load after faults disabled: %v", err)
	}
}

// TestChaosLoadNeverReturnsWrongBytes verifies the payload identity —
// not just the key — survives read-side bit rot: every successful Load
// deep-equals the exact value saved under that key.
func TestChaosLoadNeverReturnsWrongBytes(t *testing.T) {
	ctx := context.Background()
	ffs := NewFaultFS(OSFS{}, FaultConfig{Seed: 7, ReadRot: 0.3})
	s, err := Open(t.TempDir(), Options{FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want := testSnapshotData(3)
	ffs.Disable()
	if err := s.Save(ctx, want); err != nil {
		t.Fatal(err)
	}
	ffs.Enable()
	var ok, failed int
	for i := 0; i < 50; i++ {
		got, err := s.Load(ctx, want.Key())
		if err != nil {
			failed++
			if errors.Is(err, ErrNotFound) {
				break // rot was detected and the archive quarantined
			}
			continue
		}
		ok++
		if !reflect.DeepEqual(got, want) {
			t.Fatal("bit rot slipped past the checksum into a served snapshot")
		}
	}
	t.Logf("read-rot: %d clean loads, %d rejected, faults=%v", ok, failed, ffs.Counts())
	if ffs.Counts()[FaultReadRot] == 0 {
		t.Error("read rot never fired; test proved nothing")
	}
}

// TestStoreConcurrentSaveLoad exercises the mutex under the race
// detector: writers archiving distinct keys while readers load them. The
// goroutines share two stores, whose saves run at once on the package's
// pool of encode buffers; every load returns what was saved.
func TestStoreConcurrentSaveLoad(t *testing.T) {
	ctx := context.Background()
	stores := []*Store{}
	for range 2 {
		s, _ := openTest(t, t.TempDir(), Options{})
		stores = append(stores, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for i := 0; i < 10; i++ {
				d := testSnapshotData(g*100 + i)
				d.Date = d.Date.AddDate(0, 0, g)
				d.Version = d.Key().String()
				if err := s.Save(ctx, d); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if got, err := s.Load(ctx, d.Key()); err != nil || !reflect.DeepEqual(got, d) {
					t.Errorf("load: %v, or other content than saved", err)
					return
				}
				_ = s.Status()
				_ = s.Keys()
			}
		}(g)
	}
	wg.Wait()
}

// TestFaultFSCrashIsSticky checks a crashed filesystem stays crashed:
// every mutating operation after the crash point fails, while reads
// keep working (the post-reboot inspection path).
func TestFaultFSCrashIsSticky(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, FaultConfig{CrashAfterOps: 1})
	if err := ffs.MkdirAll(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op at crash point: %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}
	if _, err := ffs.Create(dir + "/x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("create after crash: %v, want ErrCrashed", err)
	}
	if err := ffs.Rename(dir+"/a", dir+"/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v, want ErrCrashed", err)
	}
	if _, err := ffs.ReadDir(dir); err != nil {
		t.Fatalf("reads must survive the crash: %v", err)
	}
}
