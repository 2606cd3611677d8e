// Package peeringdb models the PeeringDB-style contact registry behind
// MANRS Action 3 ("maintain globally accessible, up-to-date contact
// information in IRR databases or PeeringDB"). It stores per-network
// records with NOC contacts, supports the JSON snapshot format the real
// PeeringDB API exports, and evaluates Action 3 conformance: a network
// conforms when at least one reachable contact exists and the record has
// been refreshed within the staleness window.
package peeringdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Contact is one role account on a network record.
type Contact struct {
	Role  string `json:"role"` // "NOC", "Abuse", "Policy", ...
	Email string `json:"email"`
	Phone string `json:"phone,omitempty"`
}

// Network is one net record (PeeringDB "net" object, trimmed to the
// fields Action 3 cares about).
type Network struct {
	ASN      uint32    `json:"asn"`
	Name     string    `json:"name"`
	Website  string    `json:"website,omitempty"`
	Updated  time.Time `json:"updated"`
	Contacts []Contact `json:"poc_set"`
}

// HasReachableContact reports whether any contact carries an email
// address (the minimal bar MANRS applies).
func (n *Network) HasReachableContact() bool {
	for _, c := range n.Contacts {
		if strings.Contains(c.Email, "@") {
			return true
		}
	}
	return false
}

// Registry is the contact database. The zero value is unusable; use
// NewRegistry.
type Registry struct {
	nets map[uint32]*Network
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{nets: make(map[uint32]*Network)}
}

// Upsert adds or replaces a network record.
func (r *Registry) Upsert(n Network) {
	cp := n
	cp.Contacts = append([]Contact(nil), n.Contacts...)
	r.nets[n.ASN] = &cp
}

// Get returns the record for asn, or nil.
func (r *Registry) Get(asn uint32) *Network { return r.nets[asn] }

// Len returns the number of records.
func (r *Registry) Len() int { return len(r.nets) }

// DefaultStaleness is the freshness window MANRS audits against: records
// untouched for more than two years are considered stale.
const DefaultStaleness = 2 * 365 * 24 * time.Hour

// Action3Conformant evaluates MANRS Action 3 for asn as of now: a record
// must exist, carry a reachable contact, and have been updated within
// the staleness window (zero staleness means DefaultStaleness).
func (r *Registry) Action3Conformant(asn uint32, now time.Time, staleness time.Duration) bool {
	n := r.nets[asn]
	if n == nil || !n.HasReachableContact() {
		return false
	}
	if staleness == 0 {
		staleness = DefaultStaleness
	}
	return now.Sub(n.Updated) <= staleness
}

// snapshot is the JSON export wrapper, matching PeeringDB's "data" array
// convention.
type snapshot struct {
	Data []*Network `json:"data"`
}

// WriteJSON exports all records as a PeeringDB-style JSON snapshot,
// sorted by ASN.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := snapshot{Data: make([]*Network, 0, len(r.nets))}
	for _, n := range r.nets {
		s.Data = append(s.Data, n)
	}
	sort.Slice(s.Data, func(i, j int) bool { return s.Data[i].ASN < s.Data[j].ASN })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON loads a snapshot written by WriteJSON (or a real PeeringDB
// net dump with the same fields), replacing any records with matching
// ASNs. It fails closed, loading nothing: malformed JSON, trailing data
// and a mistyped field are errors naming the line, and an entry without
// an ASN is an error naming the entry.
func (r *Registry) ReadJSON(reader io.Reader) (int, error) {
	b, err := io.ReadAll(reader)
	if err != nil {
		return 0, fmt.Errorf("peeringdb: read snapshot: %w", err)
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		var offset int64 = -1
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		if errors.As(err, &syn) {
			offset = syn.Offset
		} else if errors.As(err, &typ) {
			offset = typ.Offset
		}
		if offset >= 0 {
			line := 1 + bytes.Count(b[:min(offset, int64(len(b)))], []byte{'\n'})
			return 0, fmt.Errorf("peeringdb: snapshot line %d: %w", line, err)
		}
		return 0, fmt.Errorf("peeringdb: decode snapshot: %w", err)
	}
	for i, n := range s.Data {
		if n == nil || n.ASN == 0 {
			return 0, fmt.Errorf("peeringdb: snapshot entry %d has no ASN", i+1)
		}
	}
	for _, n := range s.Data {
		r.Upsert(*n)
	}
	return len(s.Data), nil
}
