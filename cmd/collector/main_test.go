package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDumpFailureKeepsPreviousSnapshot: a dump whose writer fails part
// way leaves the previous snapshot byte-identical and no temporary file
// behind; a dump that succeeds replaces it whole.
func TestDumpFailureKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "rib.mrt")
	good := []byte("previous good snapshot")
	if err := os.WriteFile(out, good, 0o644); err != nil {
		t.Fatal(err)
	}

	errWrite := errors.New("disk full")
	err := dump(out, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("dump = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != string(good) {
		t.Fatalf("after a failed dump %s holds %q (%v), want %q", out, got, err, good)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed dump left %d entries in the directory, want only %s", len(entries), out)
	}

	if err := dump(out, func(w io.Writer) error {
		_, err := w.Write([]byte("next"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); string(got) != "next" {
		t.Errorf("after a good dump %s holds %q, want %q", out, got, "next")
	}
	if fi, err := os.Stat(out); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("snapshot mode %v, want 0644", fi.Mode().Perm())
	}
}
