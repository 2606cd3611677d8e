package manrsmeter

import (
	"reflect"
	"testing"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// The per-prefix rows hold no pointer, so the slices that carry
// hundreds of thousands of them live in no-scan spans the garbage
// collector never walks. A pointer creeping into netx.Prefix, or into
// any of these rows, silently gives that up.
func TestPerPrefixRowsArePointerFree(t *testing.T) {
	for _, v := range []any{
		netx.Prefix{}, astopo.Origination{}, ihr.PrefixOrigin{}, ihr.TransitRow{},
		rov.Authorization{}, rpki.VRP{}, irr.Route{},
	} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("%s holds a pointer", typ)
		}
	}
}
