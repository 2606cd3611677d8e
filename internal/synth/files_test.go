package synth

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// LoadFiles fails closed: a missing or damaged file is an error naming
// the file and the line (the record, in rib.mrt), never a world built
// from what happened to parse.
func TestLoadFilesFailsClosed(t *testing.T) {
	w := generate(t, 1)
	src := t.TempDir()
	if err := w.WriteFiles(context.Background(), src, w.Date(w.Config.EndYear), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFiles(src); err != nil {
		t.Fatalf("the written directory does not load: %v", err)
	}
	appendLine := func(line string) func([]byte) []byte {
		return func(b []byte) []byte { return append(b, line+"\n"...) }
	}
	for _, tc := range []struct {
		file   string
		damage func([]byte) []byte // nil removes the file
		want   string
	}{
		{fileAS2Org, nil, fileAS2Org},
		{"irr-RADB.db", nil, ""}, // the other IRR dumps still load
		{fileASRel, appendLine("100|notanasn|-1"), "as-rel.txt: astopo: as-rel line"},
		{fileASRel, appendLine("100|100|-1"), "cannot be its own provider"},
		{fileAS2Org, appendLine("100|org"), "as2org.txt: astopo: as2org line"},
		{filePrefix2AS, appendLine("10.0.0.0\t33\t100"), "prefix2as.txt: astopo: prefix2as line"},
		{fileVRPs, appendLine("x,AS100,10.0.0.0/8,7"), "vrps.csv: rpki: VRP CSV line"},
		{fileParticipants, appendLine("AS100,org-00100,ISP,yesterday"), "manrs-participants.csv: manrs: participants line"},
		{filePeeringDB, appendLine("{"), "peeringdb.json: peeringdb: snapshot line"},
		{"irr-RIPE.db", appendLine("route: 10.0.0.0/33\norigin: AS100\n"), "irr-RIPE.db: line"},
		{"irr-RIPE.db", appendLine("not an attribute"), "irr-RIPE.db: rpsl: line"},
		{fileRIB, func(b []byte) []byte { return b[:len(b)-3] }, "rib.mrt: mrt: record"},
		{fileRIB, func(b []byte) []byte { return b[:12+binary.BigEndian.Uint32(b[8:12])] }, "rib.mrt: a RIB of 0 records"},
	} {
		dir := t.TempDir()
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == tc.file {
				if tc.damage == nil {
					continue
				}
				b = tc.damage(b)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err = LoadFiles(dir)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s removed: %v", tc.file, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s damaged: error %v, want one containing %q", tc.file, err, tc.want)
		}
	}
}

// LoadFiles' origination table is prefix2as.txt's rows in table order,
// whatever order the file lists them in (CAIDA's files go by prefix):
// the written world's announcements at the written date, with the lines
// as written and reversed.
func TestLoadFilesReadsPrefix2ASInAnyOrder(t *testing.T) {
	w := generate(t, 1)
	at := w.Date(w.Config.EndYear)
	dir := t.TempDir()
	if err := w.WriteFiles(context.Background(), dir, at, nil); err != nil {
		t.Fatal(err)
	}
	want := w.OriginationsAt(at)
	path := filepath.Join(dir, filePrefix2AS)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	slices.Reverse(lines)
	for _, order := range []string{"as written", "reversed"} {
		loaded, err := LoadFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.OriginationsAt(loaded.Date(loaded.Config.EndYear)); !reflect.DeepEqual(got, want) {
			t.Errorf("prefix2as %s: %d originations, want the written world's %d", order, len(got), len(want))
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
