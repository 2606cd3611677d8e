package peeringdb

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var now = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func fresh(asn uint32, email string) Network {
	return Network{
		ASN:     asn,
		Name:    "Net",
		Updated: now.AddDate(0, -6, 0),
		Contacts: []Contact{
			{Role: "NOC", Email: email},
		},
	}
}

func TestAction3Conformance(t *testing.T) {
	r := NewRegistry()
	r.Upsert(fresh(64500, "noc@example.net"))

	stale := fresh(64501, "noc@example.org")
	stale.Updated = now.AddDate(-3, 0, 0)
	r.Upsert(stale)

	noContact := fresh(64502, "")
	noContact.Contacts = nil
	r.Upsert(noContact)

	bogusEmail := fresh(64503, "not-an-email")
	r.Upsert(bogusEmail)

	tests := []struct {
		asn  uint32
		want bool
	}{
		{64500, true},
		{64501, false}, // stale
		{64502, false}, // no contacts
		{64503, false}, // unreachable contact
		{64599, false}, // no record at all
	}
	for _, tt := range tests {
		if got := r.Action3Conformant(tt.asn, now, 0); got != tt.want {
			t.Errorf("Action3Conformant(%d) = %v, want %v", tt.asn, got, tt.want)
		}
	}
	// A wider window rescues the stale record.
	if !r.Action3Conformant(64501, now, 10*365*24*time.Hour) {
		t.Error("custom staleness window ignored")
	}
}

func TestUpsertCopiesContacts(t *testing.T) {
	r := NewRegistry()
	n := fresh(1, "a@b.c")
	r.Upsert(n)
	n.Contacts[0].Email = "mutated"
	if got := r.Get(1).Contacts[0].Email; got != "a@b.c" {
		t.Errorf("Upsert must copy contacts, got %q", got)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	// Replacing updates in place.
	r.Upsert(fresh(1, "new@b.c"))
	if r.Len() != 1 || r.Get(1).Contacts[0].Email != "new@b.c" {
		t.Error("Upsert should replace")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Upsert(fresh(64510, "x@y.z"))
	r.Upsert(fresh(64500, "a@b.c"))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Sorted by ASN in the export.
	text := buf.String()
	if strings.Index(text, "64500") > strings.Index(text, "64510") {
		t.Error("export not sorted by ASN")
	}
	r2 := NewRegistry()
	n, err := r2.ReadJSON(&buf)
	if err != nil || n != 2 {
		t.Fatalf("ReadJSON = %d, %v", n, err)
	}
	got := r2.Get(64510)
	if got == nil || got.Contacts[0].Email != "x@y.z" || !got.Updated.Equal(now.AddDate(0, -6, 0)) {
		t.Errorf("round trip record = %+v", got)
	}
}

func TestReadJSONErrors(t *testing.T) {
	for in, want := range map[string]string{
		"{not json":                              "line 1",
		"{\"data\": [\n  {\"asn\": \"x\"}\n]}":   "line 2",
		"{\"data\": []}\n{}":                     "line 2",
		`{"data":[{"asn":1},{"name":"no-asn"}]}`: "entry 2 has no ASN",
	} {
		r := NewRegistry()
		if _, err := r.ReadJSON(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadJSON(%q) = %v, want an error naming %q", in, err, want)
		}
		if r.Len() != 0 {
			t.Errorf("ReadJSON(%q) loaded %d records from a bad snapshot", in, r.Len())
		}
	}
}
