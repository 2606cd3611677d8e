package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"manrsmeter/internal/manrs"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// assemble runs its two halves side by side when the store has a second
// worker, and sorts the prefix index on packed keys; the snapshot
// depends on neither. At Workers 1, 2 and 8, and restored from the
// 1-worker build's archive into a freshly generated copy of the world
// (so the restore reads the decoded dataset, not the built one), the
// prefix index equals a stable comparator sort of the rows, the row
// aggregates equal a row-by-row count, and the /v1/stats aggregates and
// the per-AS metrics are the same.
func TestAssembleIdenticalAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	w := testWorld(t)
	dir := t.TempDir()
	type answer struct {
		byPrefix []int32
		stats    []byte
		metrics  map[uint32]*manrs.ASMetrics
	}
	get := func(name string, store *Store, source string) answer {
		snap, err := store.Get(ctx, store.DefaultDate())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		store.WaitPersist()
		if snap.Source != source {
			t.Fatalf("%s: snapshot from %q, want %q", name, snap.Source, source)
		}
		pos := snap.Dataset().PrefixOrigins
		want := make([]int32, len(pos))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return pos[a].Prefix.Compare(pos[b].Prefix) })
		if !slices.Equal(snap.byPrefix, want) {
			t.Fatalf("%s: prefix index is not the rows' stable prefix order", name)
		}
		// The row aggregates, counted row by row.
		var conf, unconf, unreg int
		rpkiN, irrN := map[string]int{}, map[string]int{}
		for _, po := range pos {
			rpkiN[statusKey(po.RPKI)]++
			irrN[statusKey(po.IRR)]++
			switch {
			case manrs.Conformant(po.RPKI, po.IRR):
				conf++
			case manrs.Unconformant(po.RPKI, po.IRR):
				unconf++
			default:
				unreg++
			}
		}
		if st := snap.Stats; st.Conformant != conf || st.Unconformant != unconf || st.Unregistered != unreg ||
			!reflect.DeepEqual(st.OriginRPKI, rpkiN) || !reflect.DeepEqual(st.OriginIRR, irrN) {
			t.Fatalf("%s: row aggregates differ from a row-by-row count", name)
		}
		stats, err := json.Marshal(snap.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return answer{snap.byPrefix, stats, snap.Pipeline.Metrics()}
	}

	var ref answer
	for i, workers := range []int{1, 2, 8} {
		opts := StoreOptions{Workers: workers, Registry: obsv.NewRegistry()}
		if i == 0 {
			opts.Durable = openDurable(t, dir, opts.Registry)
		}
		got := get("build", NewStore(w, opts), "build")
		if i == 0 {
			ref = got
			continue
		}
		if !slices.Equal(got.byPrefix, ref.byPrefix) || string(got.stats) != string(ref.stats) || !reflect.DeepEqual(got.metrics, ref.metrics) {
			t.Fatalf("snapshot at %d workers differs from the 1-worker build", workers)
		}
	}

	fresh, err := synth.Generate(w.Config)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	got := get("restore", NewStore(fresh, StoreOptions{Workers: 2, Registry: reg, Durable: openDurable(t, dir, reg)}), "archive")
	if !slices.Equal(got.byPrefix, ref.byPrefix) || string(got.stats) != string(ref.stats) || !reflect.DeepEqual(got.metrics, ref.metrics) {
		t.Fatal("snapshot restored from the archive differs from the build")
	}
}
