// Package scenario is the adversarial scenario engine: deterministic,
// seedable event sequences that mutate a synth.World's data plane —
// hijack ROAs, expired certificate chains, relying-party failure,
// Reuter-style anchor-pair experiments, ROA propagation delay — and
// drive the mutated world through the existing analysis pipeline,
// measuring how verdicts, conformance, and visibility degrade relative
// to the untouched baseline.
//
// A scenario is an ordered event list with two compact encodings (a
// line-oriented text form and JSON, both fuzzable); applying one forks
// the world copy-on-write (synth.World.Fork), so the baseline keeps
// serving queries while the fork degrades. The engine's contract is
// graceful degradation: a failing relying party shrinks the VRP set and
// verdicts move Invalid→NotFound, never Invalid→Valid (see the rov
// downgrade tests), and every run ends in a machine-readable health
// trailer rather than an error.
package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// Op names one event kind.
type Op string

const (
	// OpAnnounce makes an AS originate an extra prefix (a route hijack
	// or an experiment announcement).
	OpAnnounce Op = "announce"
	// OpHijackROA publishes an adversarial ROA under the trust anchor
	// owning the prefix: AS0 (asn=0) or wrong-origin.
	OpHijackROA Op = "hijack-roa"
	// OpExpire re-homes a fraction of a RIR's ROAs onto a delegated CA
	// whose notAfter sits skew before the evaluation date — the
	// stale/expired-manifest scenario.
	OpExpire Op = "expire"
	// OpRPFail fails a RIR's relying party: its whole VRP contribution
	// disappears.
	OpRPFail Op = "rp-fail"
	// OpROADelay sets the ROA propagation delay: ROAs stay invisible
	// until NotBefore+lag.
	OpROADelay Op = "roa-delay"
	// OpAnchorPair runs one Reuter-style experiment: the AS announces a
	// fresh valid-ROA'd prefix and a fresh AS0-ROA'd prefix, and the
	// engine infers who filtered the invalid one.
	OpAnchorPair Op = "anchor-pair"
)

// Event is one scenario step. Which fields are meaningful depends on Op
// (see the field comments); Validate rejects events with missing or
// out-of-range fields.
type Event struct {
	Op Op
	// ASN: announce, hijack-roa (0 = AS0), anchor-pair.
	ASN uint32
	// Prefix: announce, hijack-roa; the valid prefix of an anchor-pair.
	Prefix netx.Prefix
	// Invalid is the anchor-pair's invalid (AS0) prefix.
	Invalid netx.Prefix
	// MaxLen bounds the hijack ROA; 0 means the prefix's own length.
	MaxLen int
	// RIR: rp-fail, expire.
	RIR rpki.RIR
	// Frac is the expire event's ROA fraction in (0, 1].
	Frac float64
	// Skew is how long before the evaluation date the expire event's CA
	// window closes.
	Skew time.Duration
	// Lag is the roa-delay event's propagation delay.
	Lag time.Duration
	// FromYear/ToYear bound the hijack ROA's validity window;
	// 0 defaults to 2011/2040 (backdated: visible despite any lag).
	FromYear, ToYear int
}

// Scenario is a named, ordered event list.
type Scenario struct {
	Name   string
	Events []Event
}

// Decoding caps: adversarial input is cut off with an explicit error
// rather than parsed into unbounded memory.
const (
	MaxEvents  = 4096
	MaxLineLen = 512
)

var rirByName = func() map[string]rpki.RIR {
	m := make(map[string]rpki.RIR, len(rpki.AllRIRs))
	for _, r := range rpki.AllRIRs {
		m[r.String()] = r
	}
	return m
}()

// Validate checks one event's shape. A field that means nothing for the
// event's Op must be unset: neither codec writes such a field, so
// accepting one would decode to an event that does not survive a round
// trip.
func (e *Event) Validate() error {
	if *e != e.meaningful() {
		return fmt.Errorf("%s: field set that %s does not take", e.Op, e.Op)
	}
	switch e.Op {
	case OpAnnounce:
		if e.ASN == 0 {
			return fmt.Errorf("announce: asn required")
		}
		if !e.Prefix.IsValid() {
			return fmt.Errorf("announce: prefix required")
		}
	case OpHijackROA:
		if !e.Prefix.IsValid() {
			return fmt.Errorf("hijack-roa: prefix required")
		}
		maxBits := 32
		if e.Prefix.Is6() {
			maxBits = 128
		}
		if e.MaxLen != 0 && (e.MaxLen < e.Prefix.Bits() || e.MaxLen > maxBits) {
			return fmt.Errorf("hijack-roa: maxlen %d out of range for %s", e.MaxLen, e.Prefix)
		}
		if err := validYears(e.FromYear, e.ToYear); err != nil {
			return fmt.Errorf("hijack-roa: %w", err)
		}
	case OpExpire:
		if _, ok := rirByName[e.RIR.String()]; !ok {
			return fmt.Errorf("expire: unknown RIR")
		}
		if !(e.Frac > 0 && e.Frac <= 1) {
			return fmt.Errorf("expire: frac %v outside (0, 1]", e.Frac)
		}
		if e.Skew < 0 {
			return fmt.Errorf("expire: negative skew")
		}
	case OpRPFail:
		if _, ok := rirByName[e.RIR.String()]; !ok {
			return fmt.Errorf("rp-fail: unknown RIR")
		}
	case OpROADelay:
		if e.Lag < 0 {
			return fmt.Errorf("roa-delay: negative lag")
		}
	case OpAnchorPair:
		if e.ASN == 0 {
			return fmt.Errorf("anchor-pair: asn required")
		}
		if !e.Prefix.IsValid() || !e.Invalid.IsValid() {
			return fmt.Errorf("anchor-pair: valid and invalid prefixes required")
		}
		if e.Prefix == e.Invalid {
			return fmt.Errorf("anchor-pair: valid and invalid prefixes must differ")
		}
	default:
		return fmt.Errorf("unknown op %q", e.Op)
	}
	return nil
}

// meaningful returns e with only the fields its Op takes.
func (e *Event) meaningful() Event {
	m := Event{Op: e.Op}
	switch e.Op {
	case OpAnnounce:
		m.ASN, m.Prefix = e.ASN, e.Prefix
	case OpHijackROA:
		m.ASN, m.Prefix, m.MaxLen, m.FromYear, m.ToYear = e.ASN, e.Prefix, e.MaxLen, e.FromYear, e.ToYear
	case OpExpire:
		m.RIR, m.Frac, m.Skew = e.RIR, e.Frac, e.Skew
	case OpRPFail:
		m.RIR = e.RIR
	case OpROADelay:
		m.Lag = e.Lag
	case OpAnchorPair:
		m.ASN, m.Prefix, m.Invalid = e.ASN, e.Prefix, e.Invalid
	}
	return m
}

func validYears(from, to int) error {
	check := func(y int) error {
		if y != 0 && (y < 1990 || y > 2100) {
			return fmt.Errorf("year %d outside [1990, 2100]", y)
		}
		return nil
	}
	if err := check(from); err != nil {
		return err
	}
	if err := check(to); err != nil {
		return err
	}
	if from != 0 && to != 0 && to < from {
		return fmt.Errorf("window [%d, %d] inverted", from, to)
	}
	return nil
}

// Validate checks the whole scenario. The name must be one token of
// valid UTF-8, which is what both codecs can carry: the text form splits
// lines on white space and JSON replaces invalid bytes.
func (s *Scenario) Validate() error {
	if !utf8.ValidString(s.Name) || strings.ContainsFunc(s.Name, unicode.IsSpace) {
		return fmt.Errorf("scenario: name %q is not one token of valid UTF-8", s.Name)
	}
	if len(s.Events) > MaxEvents {
		return fmt.Errorf("scenario: %d events exceeds cap %d", len(s.Events), MaxEvents)
	}
	for i := range s.Events {
		if err := s.Events[i].Validate(); err != nil {
			return fmt.Errorf("scenario: event %d: %w", i, err)
		}
	}
	return nil
}

// Encode renders the scenario in the line-oriented text form: an
// optional "scenario <name>" directive, then one event per line as
// "op key=value ..." with keys in a fixed order. Lines starting with
// '#' are comments on input.
func (s *Scenario) Encode() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "scenario %s\n", s.Name)
	}
	for i := range s.Events {
		b.WriteString(s.Events[i].encode())
		b.WriteByte('\n')
	}
	return b.String()
}

func (e *Event) encode() string {
	var b strings.Builder
	b.WriteString(string(e.Op))
	kv := func(k, v string) { b.WriteByte(' '); b.WriteString(k); b.WriteByte('='); b.WriteString(v) }
	switch e.Op {
	case OpAnnounce:
		kv("asn", strconv.FormatUint(uint64(e.ASN), 10))
		kv("prefix", e.Prefix.String())
	case OpHijackROA:
		kv("asn", strconv.FormatUint(uint64(e.ASN), 10))
		kv("prefix", e.Prefix.String())
		if e.MaxLen != 0 {
			kv("maxlen", strconv.Itoa(e.MaxLen))
		}
		if e.FromYear != 0 {
			kv("from", strconv.Itoa(e.FromYear))
		}
		if e.ToYear != 0 {
			kv("to", strconv.Itoa(e.ToYear))
		}
	case OpExpire:
		kv("rir", e.RIR.String())
		kv("frac", strconv.FormatFloat(e.Frac, 'g', -1, 64))
		kv("skew", e.Skew.String())
	case OpRPFail:
		kv("rir", e.RIR.String())
	case OpROADelay:
		kv("lag", e.Lag.String())
	case OpAnchorPair:
		kv("asn", strconv.FormatUint(uint64(e.ASN), 10))
		kv("valid", e.Prefix.String())
		kv("invalid", e.Invalid.String())
	}
	return b.String()
}

// eventJSON is the JSON wire form of an Event.
type eventJSON struct {
	Op      string  `json:"op"`
	ASN     uint32  `json:"asn,omitempty"`
	Prefix  string  `json:"prefix,omitempty"`
	Invalid string  `json:"invalid,omitempty"`
	MaxLen  int     `json:"maxlen,omitempty"`
	RIR     string  `json:"rir,omitempty"`
	Frac    float64 `json:"frac,omitempty"`
	Skew    string  `json:"skew,omitempty"`
	Lag     string  `json:"lag,omitempty"`
	From    int     `json:"from,omitempty"`
	To      int     `json:"to,omitempty"`
}

type scenarioJSON struct {
	Name   string      `json:"name,omitempty"`
	Events []eventJSON `json:"events"`
}

// EncodeJSON renders the scenario as JSON.
func (s *Scenario) EncodeJSON() ([]byte, error) {
	out := scenarioJSON{Name: s.Name, Events: make([]eventJSON, 0, len(s.Events))}
	for i := range s.Events {
		e := &s.Events[i]
		j := eventJSON{Op: string(e.Op), ASN: e.ASN, MaxLen: e.MaxLen, Frac: e.Frac, From: e.FromYear, To: e.ToYear}
		if e.Prefix.IsValid() {
			j.Prefix = e.Prefix.String()
		}
		if e.Invalid.IsValid() {
			j.Invalid = e.Invalid.String()
		}
		switch e.Op {
		case OpRPFail, OpExpire:
			j.RIR = e.RIR.String()
		}
		if e.Skew != 0 {
			j.Skew = e.Skew.String()
		}
		if e.Lag != 0 {
			j.Lag = e.Lag.String()
		}
		out.Events = append(out.Events, j)
	}
	return json.MarshalIndent(out, "", "  ")
}

// Decode parses either encoding, sniffing JSON by a leading '{'. The
// result is validated; adversarial input fails with an explicit error,
// never a panic (see FuzzDecode).
func Decode(data []byte) (*Scenario, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		return decodeJSON([]byte(trimmed))
	}
	return decodeText(trimmed)
}

func decodeJSON(data []byte) (*Scenario, error) {
	if len(data) > MaxEvents*MaxLineLen {
		return nil, fmt.Errorf("scenario: JSON input exceeds %d bytes", MaxEvents*MaxLineLen)
	}
	var wire scenarioJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s := &Scenario{Name: wire.Name}
	if len(wire.Events) > MaxEvents {
		return nil, fmt.Errorf("scenario: %d events exceeds cap %d", len(wire.Events), MaxEvents)
	}
	for i, j := range wire.Events {
		e := Event{Op: Op(j.Op), ASN: j.ASN, MaxLen: j.MaxLen, Frac: j.Frac, FromYear: j.From, ToYear: j.To}
		var err error
		if e.Prefix, err = parsePrefixField(j.Prefix); err != nil {
			return nil, fmt.Errorf("scenario: event %d: prefix: %w", i, err)
		}
		if e.Invalid, err = parsePrefixField(j.Invalid); err != nil {
			return nil, fmt.Errorf("scenario: event %d: invalid: %w", i, err)
		}
		if j.RIR != "" {
			r, ok := rirByName[j.RIR]
			if !ok {
				return nil, fmt.Errorf("scenario: event %d: unknown RIR %q", i, j.RIR)
			}
			e.RIR = r
		}
		if e.Skew, err = parseDurField(j.Skew); err != nil {
			return nil, fmt.Errorf("scenario: event %d: skew: %w", i, err)
		}
		if e.Lag, err = parseDurField(j.Lag); err != nil {
			return nil, fmt.Errorf("scenario: event %d: lag: %w", i, err)
		}
		s.Events = append(s.Events, e)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeText(text string) (*Scenario, error) {
	s := &Scenario{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(line) > MaxLineLen {
			return nil, fmt.Errorf("scenario: line %d exceeds %d bytes", ln+1, MaxLineLen)
		}
		fields := strings.Fields(line)
		if fields[0] == "scenario" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario: line %d: want \"scenario <name>\"", ln+1)
			}
			s.Name = fields[1]
			continue
		}
		if len(s.Events) >= MaxEvents {
			return nil, fmt.Errorf("scenario: more than %d events", MaxEvents)
		}
		e := Event{Op: Op(fields[0])}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok || v == "" {
				return nil, fmt.Errorf("scenario: line %d: malformed field %q", ln+1, f)
			}
			if err := e.setField(k, v); err != nil {
				return nil, fmt.Errorf("scenario: line %d: %w", ln+1, err)
			}
		}
		s.Events = append(s.Events, e)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (e *Event) setField(k, v string) error {
	switch k {
	case "asn":
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return fmt.Errorf("asn %q: %w", v, err)
		}
		e.ASN = uint32(n)
	case "prefix", "valid":
		p, err := netx.ParsePrefix(v)
		if err != nil {
			return err
		}
		e.Prefix = p
	case "invalid":
		p, err := netx.ParsePrefix(v)
		if err != nil {
			return err
		}
		e.Invalid = p
	case "maxlen":
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("maxlen %q: %w", v, err)
		}
		e.MaxLen = n
	case "rir":
		r, ok := rirByName[v]
		if !ok {
			return fmt.Errorf("unknown RIR %q", v)
		}
		e.RIR = r
	case "frac":
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("frac %q: %w", v, err)
		}
		e.Frac = f
	case "skew":
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("skew %q: %w", v, err)
		}
		e.Skew = d
	case "lag":
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("lag %q: %w", v, err)
		}
		e.Lag = d
	case "from":
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("from %q: %w", v, err)
		}
		e.FromYear = n
	case "to":
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("to %q: %w", v, err)
		}
		e.ToYear = n
	default:
		return fmt.Errorf("unknown key %q", k)
	}
	return nil
}

func parsePrefixField(s string) (netx.Prefix, error) {
	if s == "" {
		return netx.Prefix{}, nil
	}
	return netx.ParsePrefix(s)
}

func parseDurField(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d, nil
}
