// Package irr models the Internet Routing Registry: a set of databases
// (the five authoritative RIR registries plus mirrors such as RADB)
// holding RPSL route, route6, as-set and aut-num objects, and the
// validation of BGP announcements against those objects.
//
// Per the paper's methodology (§6.1), IRR validity classification reuses
// the RFC 6811 algorithm with the registered prefix length standing in
// for the missing max-length attribute; internal/rov supplies that
// algorithm.
package irr

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpsl"
)

// Route is one stored route row: the authorization for Origin to
// announce Prefix. It holds no pointer, so a database's rows sit in
// memory the garbage collector never scans; the source of a row is its
// database's Name, and the descr attribute of a parsed object is kept
// beside the rows.
type Route struct {
	Prefix netx.Prefix
	Origin uint32
}

// Authorization converts the route into the rov vocabulary. IRR has no
// max-length attribute, so the prefix length is used (§6.1).
func (r Route) Authorization() rov.Authorization {
	return rov.Authorization{Prefix: r.Prefix, ASN: r.Origin, MaxLength: r.Prefix.Bits()}
}

// RouteObject is a route or route6 object as its database reports it:
// the row, the database it is registered in, and its description.
type RouteObject struct {
	Route
	Source string
	// Descr is the free-form description attribute, when present.
	Descr string
}

// ASSet is a parsed as-set object. Members may be AS numbers or names of
// other as-sets.
type ASSet struct {
	Name    string
	Members []string
	Source  string
}

// Database is a single IRR database (e.g. "RIPE", "RADB") holding parsed
// objects. The zero value is unusable; use NewDatabase.
type Database struct {
	Name   string
	routes []Route
	// descrs holds the descr attribute of the parsed route objects that
	// carry one, by row index.
	descrs map[int]string
	asSets map[string]*ASSet
	// objects retains every object AddObject ingested, including classes
	// this package does not interpret, so snapshots round-trip
	// losslessly.
	objects []*rpsl.Object
	// dumped lists what Dump writes, in registration order: a value
	// i ≥ 0 is route row i, registered by AddRoute and rendered from the
	// row; i < 0 is objects[-i-1].
	dumped []int32
}

// NewDatabase returns an empty database named name (upper-cased, matching
// IRR convention).
func NewDatabase(name string) *Database {
	return &Database{Name: strings.ToUpper(name), asSets: make(map[string]*ASSet)}
}

// AddObject ingests one RPSL object, interpreting route/route6/as-set
// classes and retaining everything else verbatim. It returns an error for
// malformed interpreted objects (bad prefix or origin).
func (db *Database) AddObject(o *rpsl.Object) error {
	switch o.Class() {
	case "route", "route6":
		p, err := netx.ParsePrefix(o.Key())
		if err != nil {
			return fmt.Errorf("irr: %s object %q: %w", o.Class(), o.Key(), err)
		}
		if o.Class() == "route" && !p.Is4() {
			return fmt.Errorf("irr: route object %q is not IPv4", o.Key())
		}
		if o.Class() == "route6" && !p.Is6() {
			return fmt.Errorf("irr: route6 object %q is not IPv6", o.Key())
		}
		originStr, ok := o.Get("origin")
		if !ok {
			return fmt.Errorf("irr: %s object %q missing origin", o.Class(), o.Key())
		}
		origin, err := rpsl.ParseASN(originStr)
		if err != nil {
			return fmt.Errorf("irr: %s object %q: %w", o.Class(), o.Key(), err)
		}
		if descr, _ := o.Get("descr"); descr != "" {
			if db.descrs == nil {
				db.descrs = make(map[int]string)
			}
			db.descrs[len(db.routes)] = descr
		}
		db.routes = append(db.routes, Route{Prefix: p, Origin: origin})
	case "as-set":
		name := strings.ToUpper(o.Key())
		set := &ASSet{Name: name, Source: db.Name}
		for _, mv := range o.GetAll("members") {
			for _, m := range strings.Split(mv, ",") {
				m = strings.ToUpper(strings.TrimSpace(m))
				if m != "" {
					set.Members = append(set.Members, m)
				}
			}
		}
		db.asSets[name] = set
	}
	db.objects = append(db.objects, o)
	db.dumped = append(db.dumped, -int32(len(db.objects)))
	return nil
}

// AddRoute registers a route (IPv4) or route6 (IPv6) object for origin
// announcing prefix, with this database as its source. Only the row is
// stored: Dump renders the object's text, in registration order, as
// "route: …", "origin: …" and "source: …" lines. It returns an error for
// an invalid (e.g. zero-value) or 4-in-6 prefix rather than registering
// an object that would poison later validation.
func (db *Database) AddRoute(prefix netx.Prefix, origin uint32) error {
	if !prefix.IsValid() {
		return fmt.Errorf("irr: AddRoute: invalid prefix %v", prefix)
	}
	if !prefix.Is4() && !prefix.Is6() {
		return fmt.Errorf("irr: AddRoute: route object %q is not IPv4", prefix.String())
	}
	db.dumped = append(db.dumped, int32(len(db.routes)))
	db.routes = append(db.routes, Route{Prefix: prefix, Origin: origin})
	return nil
}

// Grow makes room for n more route rows, so that registering them does
// not reallocate.
func (db *Database) Grow(n int) {
	db.routes = slices.Grow(db.routes, n)
	db.dumped = slices.Grow(db.dumped, n)
}

// Routes returns a copy of the route objects in registration order, each
// with its source and description.
func (db *Database) Routes() []RouteObject {
	out := make([]RouteObject, len(db.routes))
	for i, r := range db.routes {
		out[i] = RouteObject{Route: r, Source: db.Name, Descr: db.descrs[i]}
	}
	return out
}

// NumRoutes returns the number of route rows, however registered.
func (db *Database) NumRoutes() int { return len(db.routes) }

// NumObjects returns the number of objects Dump writes: every object
// AddObject ingested plus every route AddRoute registered.
func (db *Database) NumObjects() int { return len(db.dumped) }

// Load parses an RPSL dump into the database, skipping malformed
// interpreted objects but returning the first syntax error.
func (db *Database) Load(r io.Reader) (skipped int, err error) {
	p := rpsl.NewParser(r)
	for {
		o, err := p.Next()
		if err == io.EOF {
			return skipped, nil
		}
		if err != nil {
			return skipped, err
		}
		if err := db.AddObject(o); err != nil {
			skipped++
		}
	}
}

// Dump serializes the database to w as an RPSL snapshot, each object
// followed by a blank line: ingested objects verbatim, and AddRoute's
// routes rendered from their rows.
func (db *Database) Dump(w io.Writer) error {
	var b []byte
	for _, i := range db.dumped {
		b = b[:0]
		if i < 0 {
			b = append(b, db.objects[-i-1].String()...)
		} else {
			r := db.routes[i]
			if r.Prefix.Is6() {
				b = append(b, "route6: "...)
			} else {
				b = append(b, "route: "...)
			}
			b = r.Prefix.AppendTo(b)
			b = append(b, "\norigin: AS"...)
			b = strconv.AppendUint(b, uint64(r.Origin), 10)
			b = append(b, "\nsource:"...)
			if db.Name != "" { // as rpsl.Object.String writes an empty value
				b = append(b, ' ')
				b = append(b, db.Name...)
			}
			b = append(b, '\n')
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Registry is a collection of IRR databases queried as one, mirroring how
// operators consume RADB-style mirrored collections.
//
// Validate and Index are safe for concurrent callers: the lazy index
// rebuild is serialized by an internal mutex, and the rov.Index handed
// out is immutable once built. AddDatabase must not race with readers.
type Registry struct {
	// mu guards the lazily rebuilt index state below; attached Database
	// values are never mutated through the Registry.
	mu    sync.Mutex
	dbs   []*Database
	index *rov.Index
	dirty bool
	// rebuildErr records route objects the last rebuild could not index
	// (joined); the index is still usable without them.
	rebuildErr error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{index: rov.NewIndex()} }

// AddDatabase attaches db; later validation covers its route objects.
func (r *Registry) AddDatabase(db *Database) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dbs = append(r.dbs, db)
	r.dirty = true
}

// Databases returns the attached databases in attachment order.
func (r *Registry) Databases() []*Database { return r.dbs }

// rebuild re-derives the merged rov index. Route objects that cannot be
// indexed (malformed despite ingest validation — e.g. constructed
// directly) are skipped and reported through the returned error; the
// index remains usable without them, so one bad object cannot take the
// whole registry down.
// rebuild must be called with r.mu held.
func (r *Registry) rebuild() error {
	if !r.dirty {
		return r.rebuildErr
	}
	ix := rov.NewIndex()
	ix.Grow(r.NumRoutes())
	var errs []error
	for _, db := range r.dbs {
		for _, ro := range db.routes {
			if err := ix.Add(ro.Authorization()); err != nil {
				errs = append(errs, fmt.Errorf("irr: index rebuild (%s): %w", db.Name, err))
			}
		}
	}
	r.index = ix
	r.dirty = false
	r.rebuildErr = errors.Join(errs...)
	return r.rebuildErr
}

// Validate classifies origin announcing prefix against all registered
// route objects: Valid, InvalidASN, InvalidLength (more specific than a
// registered route by the same origin), or NotFound. Validation is
// best-effort against the indexable objects; Index surfaces rebuild
// errors.
func (r *Registry) Validate(prefix netx.Prefix, origin uint32) rov.Status {
	ix, _ := r.Index()
	return ix.Validate(prefix, origin)
}

// Index exposes the merged rov index (rebuilt if needed) for bulk
// pipelines that classify many routes. A non-nil error reports route
// objects the rebuild had to skip; the returned index is still valid
// for the rest.
func (r *Registry) Index() (*rov.Index, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.rebuild()
	return r.index, err
}

// NumRoutes returns the total route objects across all databases.
func (r *Registry) NumRoutes() int {
	n := 0
	for _, db := range r.dbs {
		n += db.NumRoutes()
	}
	return n
}

// ExpandASSet resolves the named as-set to the set of AS numbers it
// transitively contains, searching all databases. Membership cycles are
// tolerated (each set expands once). Unknown member sets are recorded in
// missing. Results are sorted ascending.
func (r *Registry) ExpandASSet(name string) (asns []uint32, missing []string) {
	name = strings.ToUpper(name)
	seen := make(map[string]bool)
	asnSet := make(map[uint32]bool)
	missSet := make(map[string]bool)
	var walk func(string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		set := r.findASSet(n)
		if set == nil {
			missSet[n] = true
			return
		}
		for _, m := range set.Members {
			if asn, err := rpsl.ParseASN(m); err == nil {
				asnSet[asn] = true
				continue
			}
			walk(m)
		}
	}
	walk(name)
	for a := range asnSet {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for m := range missSet {
		missing = append(missing, m)
	}
	sort.Strings(missing)
	return asns, missing
}

func (r *Registry) findASSet(name string) *ASSet {
	for _, db := range r.dbs {
		if s, ok := db.asSets[name]; ok {
			return s
		}
	}
	return nil
}
