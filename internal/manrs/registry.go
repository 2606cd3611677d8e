// Package manrs implements the paper's primary contribution: the MANRS
// participant registry and the conformance / impact measurement engine —
// Formulas 1–6 (origination validity and propagation invalidity), the
// Action 1 and Action 4 conformance rules, AS size classification,
// RPKI saturation (Eq. 7–8), and the MANRS preference score (Eq. 9).
package manrs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Program identifies a MANRS program (§2.4). The paper analyzes the ISP
// (Network Operators) and CDN & Cloud Providers programs.
type Program uint8

// The two programs under study.
const (
	ProgramISP Program = iota
	ProgramCDN
)

// String returns the program's conventional name.
func (p Program) String() string {
	switch p {
	case ProgramISP:
		return "ISP"
	case ProgramCDN:
		return "CDN"
	default:
		return fmt.Sprintf("Program(%d)", uint8(p))
	}
}

// Participant is one AS registered in a MANRS program.
type Participant struct {
	ASN     uint32
	OrgID   string
	Program Program
	// Joined is when the AS was registered (the historical MANRS dataset).
	Joined time.Time
}

// Registry is the MANRS participant list with join dates. The zero value
// is unusable; call NewRegistry.
type Registry struct {
	byASN map[uint32]Participant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byASN: make(map[uint32]Participant)}
}

// Add registers a participant. Re-adding an ASN keeps the earliest join
// date (an AS occasionally appears in both programs; the first entry
// wins, matching how the paper deduplicates by AS).
func (r *Registry) Add(p Participant) {
	if prev, ok := r.byASN[p.ASN]; ok && !prev.Joined.After(p.Joined) {
		return
	}
	r.byASN[p.ASN] = p
}

// Len returns the number of registered ASes.
func (r *Registry) Len() int { return len(r.byASN) }

// IsMember reports whether asn was a MANRS member as of t. A zero t
// means "ever".
func (r *Registry) IsMember(asn uint32, t time.Time) bool {
	p, ok := r.byASN[asn]
	if !ok {
		return false
	}
	return t.IsZero() || !p.Joined.After(t)
}

// Lookup returns the participant record and whether it exists.
func (r *Registry) Lookup(asn uint32) (Participant, bool) {
	p, ok := r.byASN[asn]
	return p, ok
}

// Members returns participants joined by t (zero t means all), sorted by
// ASN.
func (r *Registry) Members(t time.Time) []Participant {
	var out []Participant
	for _, p := range r.byASN {
		if t.IsZero() || !p.Joined.After(t) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// MemberOrgs returns the distinct organization IDs with at least one
// member AS as of t, sorted.
func (r *Registry) MemberOrgs(t time.Time) []string {
	seen := make(map[string]bool)
	for _, p := range r.byASN {
		if t.IsZero() || !p.Joined.After(t) {
			seen[p.OrgID] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// participantsHeader is the first line of the participant list's CSV
// form.
const participantsHeader = "asn,org,program,joined"

// WriteCSV writes the participants joined by t (zero t means all) as the
// participant list's CSV form: a header line, then one
// "AS<asn>,<org>,<program>,<joined YYYY-MM-DD>" row per AS in ASN order.
func (r *Registry) WriteCSV(w io.Writer, t time.Time) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, participantsHeader)
	for _, p := range r.Members(t) {
		fmt.Fprintf(bw, "AS%d,%s,%s,%s\n", p.ASN, p.OrgID, p.Program, p.Joined.Format(time.DateOnly))
	}
	return bw.Flush()
}

// ReadCSV adds the participants of a list in WriteCSV's form. It fails
// closed: a missing or different header, a row without exactly four
// fields, a bad ASN, an unknown program, a bad join date, and a list
// with no participant are errors naming the line.
func (r *Registry) ReadCSV(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	line, rows := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != participantsHeader {
				return fmt.Errorf("manrs: participants line 1: header %q, want %q", text, participantsHeader)
			}
			continue
		}
		if text == "" {
			continue
		}
		p, err := parseParticipant(text)
		if err != nil {
			return fmt.Errorf("manrs: participants line %d: %w", line, err)
		}
		r.Add(p)
		rows++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("manrs: participants line %d: %w", line+1, err)
	}
	if rows == 0 {
		return fmt.Errorf("manrs: participants line %d: no participant rows", line)
	}
	return nil
}

// parseParticipant parses one row of the participant list.
func parseParticipant(row string) (Participant, error) {
	f := strings.Split(row, ",")
	if len(f) != 4 {
		return Participant{}, fmt.Errorf("want 4 fields (%s), got %d", participantsHeader, len(f))
	}
	asn, err := strconv.ParseUint(strings.TrimPrefix(f[0], "AS"), 10, 32)
	if err != nil {
		return Participant{}, fmt.Errorf("bad ASN %q", f[0])
	}
	if f[1] == "" {
		return Participant{}, fmt.Errorf("AS%d has no organization", asn)
	}
	var prog Program
	switch f[2] {
	case ProgramISP.String():
		prog = ProgramISP
	case ProgramCDN.String():
		prog = ProgramCDN
	default:
		return Participant{}, fmt.Errorf("unknown program %q", f[2])
	}
	joined, err := time.Parse(time.DateOnly, f[3])
	if err != nil {
		return Participant{}, fmt.Errorf("bad join date %q", f[3])
	}
	return Participant{ASN: uint32(asn), OrgID: f[1], Program: prog, Joined: joined}, nil
}

// SizeClass buckets ASes by customer degree using the Dhamdhere &
// Dovrolis thresholds the paper adopts (§6.2).
type SizeClass uint8

// Size classes in ascending order.
const (
	Small SizeClass = iota
	Medium
	Large
)

// String returns the class name used in the paper's figures.
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("SizeClass(%d)", uint8(s))
	}
}

// AllSizeClasses lists the classes in figure order.
var AllSizeClasses = []SizeClass{Small, Medium, Large}

// ClassifySize maps a customer degree to its size class:
// small ≤ 2 < medium ≤ 180 < large.
func ClassifySize(customerDegree int) SizeClass {
	switch {
	case customerDegree <= 2:
		return Small
	case customerDegree <= 180:
		return Medium
	default:
		return Large
	}
}
