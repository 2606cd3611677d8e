// Package rpsl parses and serializes Routing Policy Specification Language
// objects (RFC 2622) as used by Internet Routing Registry databases.
//
// The subset implemented is the one routing-security analysis needs:
// route/route6 objects (prefix → origin), aut-num, as-set (member lists),
// and mntner. The parser is nevertheless generic: any object class is
// parsed into an ordered attribute list, so unknown classes round-trip.
//
// The grammar handled per RFC 2622 §2:
//
//   - An object is a sequence of "attribute: value" lines; the first
//     attribute names the class and primary key.
//   - A value continues onto the next line when that line starts with a
//     space, a tab, or a plus sign.
//   - "#" starts a comment running to end of line.
//   - Objects are separated by one or more blank lines.
package rpsl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Attribute is a single "name: value" pair within an object. Name is
// stored lower-case; Value has comments stripped and continuation lines
// joined with single spaces.
type Attribute struct {
	Name  string
	Value string
}

// Object is one RPSL object: an ordered, possibly repeating attribute
// list. The first attribute determines Class and Key.
type Object struct {
	Attrs []Attribute
}

// Class returns the object class — the name of the first attribute — or
// "" for an empty object.
func (o *Object) Class() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return o.Attrs[0].Name
}

// Key returns the primary key — the value of the first attribute.
func (o *Object) Key() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return o.Attrs[0].Value
}

// Get returns the value of the first attribute named name (lower-case
// match) and whether it exists.
func (o *Object) Get(name string) (string, bool) {
	for _, a := range o.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// GetAll returns the values of every attribute named name, in order.
func (o *Object) GetAll(name string) []string {
	var vals []string
	for _, a := range o.Attrs {
		if a.Name == name {
			vals = append(vals, a.Value)
		}
	}
	return vals
}

// Add appends an attribute.
func (o *Object) Add(name, value string) {
	o.Attrs = append(o.Attrs, Attribute{Name: strings.ToLower(name), Value: value})
}

// String serializes the object in canonical RPSL form, one attribute per
// line, with a trailing newline. Continuation re-wrapping is not applied;
// values are emitted on one line, which every IRR parser accepts.
func (o *Object) String() string {
	var b strings.Builder
	for _, a := range o.Attrs {
		b.WriteString(a.Name)
		b.WriteString(":")
		if a.Value != "" {
			b.WriteString(" ")
			b.WriteString(a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("rpsl: line %d: %s", e.Line, e.Msg) }

// Parser streams objects from an RPSL database dump.
type Parser struct {
	sc      *bufio.Scanner
	line    int
	lastErr error
}

// NewParser returns a Parser reading from r. Lines longer than 1 MiB are
// rejected by the underlying scanner.
func NewParser(r io.Reader) *Parser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	return &Parser{sc: sc}
}

func (p *Parser) nextLine() (string, bool) {
	if !p.sc.Scan() {
		p.lastErr = p.sc.Err()
		return "", false
	}
	p.line++
	return p.sc.Text(), true
}

// stripComment removes a trailing "#..." comment. RPSL has no quoting
// construct that protects '#', so a bare scan is correct.
func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

// Next returns the next object in the stream. It returns io.EOF after the
// last object. Blank and comment-only lines between objects are skipped.
func (p *Parser) Next() (*Object, error) {
	// Skip separators.
	var first string
	for {
		l, ok := p.nextLine()
		if !ok {
			if p.lastErr != nil {
				return nil, p.lastErr
			}
			return nil, io.EOF
		}
		if strings.TrimSpace(stripComment(l)) == "" {
			continue
		}
		first = l
		break
	}
	obj := &Object{}
	line := first
	for {
		if line == "" {
			break
		}
		name, value, err := p.parseAttrStart(line)
		if err != nil {
			return nil, err
		}
		// Gather continuation lines.
		for {
			l, ok := p.nextLine()
			if !ok {
				line = ""
				break
			}
			if len(l) > 0 && (l[0] == ' ' || l[0] == '\t' || l[0] == '+') {
				cont := strings.TrimSpace(stripComment(l[1:]))
				if cont != "" {
					if value != "" {
						value += " "
					}
					value += cont
				}
				continue
			}
			if strings.TrimSpace(stripComment(l)) == "" {
				line = "" // end of object
			} else {
				line = l
			}
			break
		}
		obj.Attrs = append(obj.Attrs, Attribute{Name: name, Value: value})
		if line == "" {
			break
		}
	}
	if len(obj.Attrs) == 0 {
		return nil, io.EOF
	}
	return obj, nil
}

func (p *Parser) parseAttrStart(l string) (name, value string, err error) {
	i := strings.IndexByte(l, ':')
	if i < 0 {
		return "", "", &ParseError{Line: p.line, Msg: fmt.Sprintf("expected 'attribute: value', got %q", l)}
	}
	name = strings.ToLower(strings.TrimSpace(l[:i]))
	if name == "" || strings.ContainsAny(name, " \t") {
		return "", "", &ParseError{Line: p.line, Msg: fmt.Sprintf("bad attribute name %q", l[:i])}
	}
	value = strings.TrimSpace(stripComment(l[i+1:]))
	return name, value, nil
}

// ParseAll parses every object in r. On a syntax error it returns the
// objects parsed so far together with the error.
func ParseAll(r io.Reader) ([]*Object, error) {
	p := NewParser(r)
	var objs []*Object
	for {
		o, err := p.Next()
		if err == io.EOF {
			return objs, nil
		}
		if err != nil {
			return objs, err
		}
		objs = append(objs, o)
	}
}

// ParseASN parses an "ASnnn" token (case-insensitive) into its number.
func ParseASN(s string) (uint32, error) {
	t := strings.TrimSpace(s)
	if len(t) < 3 || (t[0] != 'A' && t[0] != 'a') || (t[1] != 'S' && t[1] != 's') {
		return 0, fmt.Errorf("rpsl: bad AS number %q", s)
	}
	n, err := strconv.ParseUint(t[2:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("rpsl: bad AS number %q: %w", s, err)
	}
	return uint32(n), nil
}

// FormatASN renders an AS number as "ASnnn".
func FormatASN(asn uint32) string { return "AS" + strconv.FormatUint(uint64(asn), 10) }
