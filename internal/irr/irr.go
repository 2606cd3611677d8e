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
	"sort"
	"strings"
	"sync"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpsl"
)

// RouteObject is a parsed route or route6 object: the authorization for
// Origin to announce Prefix, registered in database Source.
type RouteObject struct {
	Prefix netx.Prefix
	Origin uint32
	Source string
	// Descr is the free-form description attribute, when present.
	Descr string
}

// Authorization converts the route object into the rov vocabulary. IRR
// has no max-length attribute, so the prefix length is used (§6.1).
func (r RouteObject) Authorization() rov.Authorization {
	return rov.Authorization{Prefix: r.Prefix, ASN: r.Origin, MaxLength: r.Prefix.Bits()}
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
	routes []RouteObject
	asSets map[string]*ASSet
	// objects retains every parsed object, including classes this package
	// does not interpret, so snapshots round-trip losslessly.
	objects []*rpsl.Object
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
		descr, _ := o.Get("descr")
		db.routes = append(db.routes, RouteObject{Prefix: p, Origin: origin, Source: db.Name, Descr: descr})
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
	return nil
}

// AddRoute is a convenience to register a route object directly. It
// returns an error for an invalid (e.g. zero-value) prefix rather than
// registering an object that would poison later validation.
func (db *Database) AddRoute(prefix netx.Prefix, origin uint32) error {
	if !prefix.IsValid() {
		return fmt.Errorf("irr: AddRoute: invalid prefix %v", prefix)
	}
	o := &rpsl.Object{}
	cls := "route"
	if prefix.Is6() {
		cls = "route6"
	}
	o.Add(cls, prefix.String())
	o.Add("origin", rpsl.FormatASN(origin))
	o.Add("source", db.Name)
	if err := db.AddObject(o); err != nil {
		return fmt.Errorf("irr: AddRoute: %w", err)
	}
	return nil
}

// AddRouteCompact registers a route object without materializing an RPSL
// object for it: only the parsed RouteObject is retained, so it
// validates and indexes like any other route but is absent from Dump.
// This is the bulk path for internet-scale synthetic worlds, where a
// million RPSL objects would dominate the generator's footprint.
func (db *Database) AddRouteCompact(prefix netx.Prefix, origin uint32) error {
	if !prefix.IsValid() {
		return fmt.Errorf("irr: AddRouteCompact: invalid prefix %v", prefix)
	}
	db.routes = append(db.routes, RouteObject{Prefix: prefix, Origin: origin, Source: db.Name})
	return nil
}

// Routes returns the parsed route objects in registration order.
func (db *Database) Routes() []RouteObject { return db.routes }

// NumObjects returns the total number of objects ingested.
func (db *Database) NumObjects() int { return len(db.objects) }

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

// Dump serializes every object to w as an RPSL snapshot.
func (db *Database) Dump(w io.Writer) error {
	for _, o := range db.objects {
		if _, err := io.WriteString(w, o.String()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
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
		n += len(db.routes)
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
