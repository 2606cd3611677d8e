package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/core"
	"manrsmeter/internal/durable"
	"manrsmeter/internal/hegemony"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/serve"
	"manrsmeter/internal/synth"
)

// buildShape is what distinguishes the two build workloads.
type buildShape struct {
	config func(seed int64) synth.Config
	// workers is StoreOptions.Workers; 0 means the run's client count.
	workers int
	// dates is how many consecutive weekly snapshots one op builds,
	// ending at the headline date.
	dates int
}

var buildShapes = map[string]buildShape{
	// Arena-layout world, half of the 8/30/1500/7500/40 shape: ≈4.8k
	// ASes, ≈57k originations, ≈1.9k aggregate ROAs. Propagation is
	// ≈90% of a build, the relying party well under 10%.
	wTopology: {workers: 1, dates: 1, config: func(seed int64) synth.Config {
		cfg := synth.NewLargeConfig(seed)
		cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 8, 15, 750, 3750, 20
		cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 80, 45, 4, 5
		return cfg
	}},
	// Seed-layout world with one signed ROA per prefix: ≈1.8k ASes,
	// ≈2.7k ROAs. No large ISPs or CDNs beyond the three tier-1s: each
	// such network draws its whole RPKI regime for a hundred or more
	// prefixes at once, and a dozen of them swing the ROA count, and
	// with it the build time, by ±15% from seed to seed.
	wWeekly: {dates: 4, config: func(seed int64) synth.Config {
		cfg := synth.NewConfig(seed)
		cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 0, 150, 1600, 0
		cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 90, 40, 1, 0
		return cfg
	}},
}

// coldBuild is one op: a Store over a fresh world builds each date
// cold and archives it.
func coldBuild(ctx context.Context, w *synth.World, workers int, dates []time.Time, archive *durable.Store) (*serve.Store, []*serve.Snapshot, error) {
	store := serve.NewStore(w, serve.StoreOptions{Workers: workers, Durable: archive, Registry: obsv.NewRegistry()})
	snaps := make([]*serve.Snapshot, len(dates))
	for i, date := range dates {
		var err error
		if snaps[i], err = store.Get(ctx, date); err != nil {
			return nil, nil, err
		}
	}
	store.WaitPersist()
	return store, snaps, nil
}

// digests returns each snapshot's archive checksum: equal digests mean
// byte-equal datasets and validation registries.
func digests(snaps []*serve.Snapshot) []uint64 {
	out := make([]uint64, len(snaps))
	for i, snap := range snaps {
		out[i] = durable.Checksum(durable.Encode(archiveData(snap)))
	}
	return out
}

// archiveData is the durable subset of a snapshot, as serve persists it.
func archiveData(snap *serve.Snapshot) *durable.SnapshotData {
	ds := snap.Dataset()
	return &durable.SnapshotData{
		Fingerprint:   snap.World.Fingerprint(),
		Version:       snap.Version,
		Date:          snap.Date,
		PrefixOrigins: ds.PrefixOrigins,
		Transits:      ds.Transits,
		Visibility:    ds.Visibility,
		RPKI:          snap.RPKI.All(),
		IRR:           snap.IRR.All(),
	}
}

// statsAnswer is the /v1/stats body and ETag a store serves in process.
func statsAnswer(store *serve.Store) (string, string) {
	h := serve.NewServer(store, serve.Options{Registry: obsv.NewRegistry()}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	return rec.Body.String(), rec.Header().Get("ETag")
}

// untilDeadline reports whether a measuring loop should run another
// iteration: always for the first minReps, then until the deadline.
func untilDeadline(ctx context.Context, deadline time.Time, done, minReps int) bool {
	return ctx.Err() == nil && (done < minReps || time.Now().Before(deadline))
}

func runBuild(ctx context.Context, r *run) (*result, error) {
	shape := buildShapes[r.workload]
	workers := shape.workers
	if workers == 0 {
		workers = r.clients
	}
	cfg := shape.config(r.seed)
	res := newResult()

	var (
		genS, buildS, tracedS, untracedS []float64
		allocMB                          []float64
		world                            *synth.World
		store                            *serve.Store
		archiveDir                       string
		dates                            []time.Time
		first, last                      []uint64
	)
	// Every op starts from a fresh world, generated outside the timed
	// region: World.DatasetAtCtx memoises by date and the IRR index is
	// lazy, so a reused world would time a map lookup. The generations
	// double as the set-up samples.
	loop := r.tr.start("measure", -1)
	deadline := time.Now().Add(seconds(r.seconds))
	for rep := 0; untilDeadline(ctx, deadline, rep, 3); rep++ {
		// Traced runs alternate spans on and off between ops; the ratio
		// of the two medians is the tracing overhead.
		tr := r.tr
		if rep%2 == 1 {
			tr = nil
		}
		var err error
		genS = append(genS, tr.timed("synth.Generate", loop, func() { world, err = synth.Generate(cfg) }).Seconds())
		if err != nil {
			return nil, err
		}
		archiveDir = filepath.Join(r.dir, fmt.Sprintf("archive-%d", rep))
		archive, err := durable.Open(archiveDir, durable.Options{})
		if err != nil {
			return nil, err
		}
		dates = dates[:0]
		for d := shape.dates - 1; d >= 0; d-- {
			dates = append(dates, world.Date(cfg.EndYear).AddDate(0, 0, -7*d))
		}
		runtime.GC() // the previous op's garbage is not this op's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var snaps []*serve.Snapshot
		d := tr.timed("serve.coldBuild", loop, func() { store, snaps, err = coldBuild(ctx, world, workers, dates, archive) }).Seconds()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		buildS = append(buildS, d)
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		if tr != nil {
			tracedS = append(tracedS, d)
		} else {
			untracedS = append(untracedS, d)
		}
		if last = digests(snaps); rep == 0 {
			first = last
		}
		res.check(slices.Equal(last, first), "op %d digests %x differ from op 0's %x", rep, last, first)
	}
	r.tr.end(loop)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	build, gen := summarize(buildS), summarize(genS)
	total := 0.0
	for _, s := range buildS {
		total += s
	}
	res.e2e["op_ms"] = build.Median * 1e3
	res.e2e["ops_per_s"] = float64(len(buildS)) / total
	res.e2e["setup_s"] = gen.Median
	res.note("cold build", build, "s")
	res.note("world generation", gen, "s")
	res.layer["build.alloc_mb"] = median(allocMB)
	res.layer["bench.trace_overhead_ratio"] = median(tracedS) / median(untracedS)

	// Warm start: a new Store over the last op's archive must answer
	// like the store that built it.
	archive, err := durable.Open(archiveDir, durable.Options{})
	if err != nil {
		return nil, err
	}
	warm := serve.NewStore(world, serve.StoreOptions{Workers: workers, Durable: archive, Registry: obsv.NewRegistry()})
	headline := dates[len(dates)-1]
	res.layer["build.warm_start_s"] = r.tr.timed("serve.WarmStart+Get", -1, func() {
		if _, err = warm.WarmStart(ctx); err == nil {
			_, err = warm.Get(ctx, headline)
		}
	}).Seconds()
	if err != nil {
		return nil, fmt.Errorf("warm start: %w", err)
	}
	coldBody, coldTag := statsAnswer(store)
	warmBody, warmTag := statsAnswer(warm)
	res.check(coldBody == warmBody && coldTag == warmTag && coldTag != "", "warm-started store answers /v1/stats differently (ETag %s vs %s)", warmTag, coldTag)

	// The headline snapshot must not depend on the worker count.
	other := 1
	if workers == 1 {
		other = max(r.clients, 2)
	}
	fresh, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var snaps []*serve.Snapshot
	otherS := r.tr.timed("serve.coldBuild.otherWorkers", -1, func() { _, snaps, err = coldBuild(ctx, fresh, other, dates[len(dates)-1:], nil) }).Seconds()
	if err != nil {
		return nil, err
	}
	got, want := digests(snaps)[0], last[len(last)-1]
	res.check(got == want, "headline digest at %d workers %016x, at %d workers %016x", other, got, workers, want)

	if r.tr != nil {
		if err := buildLayers(ctx, r, res, cfg, workers, other, otherS); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// buildLayers is the traced run's per-layer part: it calls each stage of
// a snapshot build once on a fresh world, with a span around each call.
func buildLayers(ctx context.Context, r *run, res *result, cfg synth.Config, workers, other int, otherBuildS float64) error {
	w, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	date := w.Date(cfg.EndYear)
	L := res.layer
	root := r.tr.start("layers", -1)
	defer r.tr.end(root)
	sec := func(name string, f func()) float64 { return r.tr.timed(name, root, f).Seconds() }

	var vrps []rpki.VRP
	L["rpki.validate_s"] = sec("rpki: World.VRPsAt", func() { vrps, err = w.VRPsAt(date) })
	if err != nil {
		return err
	}
	L["rpki.roas_per_s"] = float64(w.Repo.NumROAs()) / L["rpki.validate_s"]
	var rpkiIx, irrIx *rov.Index
	L["rov.index_s"] = sec("rov: rpki.BuildIndex", func() { rpkiIx, err = rpki.BuildIndex(vrps) })
	if err != nil {
		return err
	}
	L["irr.index_s"] = sec("irr: Registry.Index", func() { irrIx, err = w.IRRRegistry.Index() })
	if err != nil {
		return err
	}
	origs := w.OriginationsAt(date)
	L["rov.validate_ns"] = sec("rov: Index.Validate", func() {
		for _, og := range origs {
			rpkiIx.Validate(og.Prefix, og.Origin)
		}
	}) * 1e9 / float64(len(origs))

	ihrCfg := ihr.Config{Graph: w.Graph, RPKI: rpkiIx, IRR: irrIx, Policies: w.Policies,
		VantagePoints: w.VantagePoints, Originations: origs, Workers: workers}
	var ds *ihr.Dataset
	L["ihr.build_s"] = sec("ihr: BuildCtx", func() { ds, err = ihr.BuildCtx(ctx, ihrCfg) })
	if err != nil {
		return err
	}
	L["ihr.prefix_origins"] = float64(len(ds.PrefixOrigins))
	L["ihr.transits"] = float64(len(ds.Transits))
	ihrCfg.Workers = other
	ihrOther := sec("ihr: BuildCtx.otherWorkers", func() { _, err = ihr.BuildCtx(ctx, ihrCfg) })
	if err != nil {
		return err
	}
	L["manrs.metrics_s"] = sec("manrs: ComputeMetrics", func() { manrs.ComputeMetrics(ds) })
	L["core.restore_s"] = sec("core: RestorePipeline", func() { core.RestorePipeline(w, date, workers, ds) })

	data := &durable.SnapshotData{Fingerprint: w.Fingerprint(), Version: w.Fingerprint() + "@" + date.Format("2006-01-02"), Date: date,
		PrefixOrigins: ds.PrefixOrigins, Transits: ds.Transits, Visibility: ds.Visibility, RPKI: rpkiIx.All(), IRR: irrIx.All()}
	var encoded []byte
	L["durable.encode_s"] = sec("durable: Encode", func() { encoded = durable.Encode(data) })
	L["durable.encoded_mb"] = float64(len(encoded)) / 1e6
	archive, err := durable.Open(filepath.Join(r.dir, "layers"), durable.Options{})
	if err != nil {
		return err
	}
	L["durable.save_s"] = sec("durable: Store.Save", func() { err = archive.Save(ctx, data) })
	if err != nil {
		return err
	}
	var loaded *durable.SnapshotData
	L["durable.load_s"] = sec("durable: Store.Load", func() { loaded, err = archive.Load(ctx, data.Key()) })
	if err != nil {
		return err
	}
	res.check(bytes.Equal(durable.Encode(loaded), encoded), "archive does not round-trip")

	// One cold Store.Get on another fresh world, against the stages
	// above called once each: what is left is work the build does that
	// no stage span accounts for.
	w2, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	store := serve.NewStore(w2, serve.StoreOptions{Workers: workers, Registry: obsv.NewRegistry()})
	getS := sec("serve: Store.Get", func() { _, err = store.Get(ctx, date) })
	if err != nil {
		return err
	}
	L["serve.unattributed_s"] = getS - L["rpki.validate_s"] - L["rov.index_s"] - L["irr.index_s"] - L["ihr.build_s"] - L["manrs.metrics_s"]

	// Scaling: ihr alone and the whole single-date build, 1 worker
	// against the machine's. otherBuildS is the worker-count check's
	// build, the same call at the other count.
	one, many, p := getS, otherBuildS, other
	ihrOne, ihrMany := L["ihr.build_s"], ihrOther
	if workers != 1 {
		one, many, p = otherBuildS, getS, workers
		ihrOne, ihrMany = ihrOther, L["ihr.build_s"]
	}
	L["ihr.par_speedup"] = ihrOne / ihrMany
	L["build.serial_fraction"] = karpFlatt(one/many, p)

	floodLayers(r, root, L, w, rpkiIx, irrIx, origs)
	return nil
}

// floodLayers times single floods and their hegemony scoring on a seeded
// sample of origins, as ihr.BuildCtx runs them per tree key.
func floodLayers(r *run, root int, L map[string]float64, w *synth.World, rpkiIx, irrIx *rov.Index, origs []astopo.Origination) {
	rng := rand.New(rand.NewSource(r.seed))
	sampleN := min(512, len(origs))
	sample := make([]astopo.Origination, sampleN)
	for i, j := range rng.Perm(len(origs))[:sampleN] {
		sample[i] = origs[j]
	}
	csr := w.Graph.CSR()
	prop := astopo.NewCSRPropagator(csr)
	var vps []int32
	for _, v := range w.VantagePoints {
		if i, ok := csr.Intern.Index(v); ok {
			vps = append(vps, i)
		}
	}
	filterFor := ihr.PolicyFilter(w.Graph, w.Policies, rpkiIx, irrIx)
	acc := hegemony.NewAccumulator()
	var path []uint32
	var scoring time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := r.tr.timed("astopo: Propagate x"+fmt.Sprint(sampleN), root, func() {
		for _, og := range sample {
			prop.Propagate(og.Prefix, og.Origin, nil)
		}
	})
	runtime.ReadMemStats(&after)
	filtered := r.tr.timed("astopo: Propagate filtered + hegemony", root, func() {
		for _, og := range sample {
			tree := prop.Propagate(og.Prefix, og.Origin, filterFor(og.Prefix, og.Origin))
			begin := time.Now()
			acc.Reset()
			for _, vp := range vps {
				if path = tree.AppendPathAt(path[:0], vp); len(path) > 0 {
					acc.AddPath(path)
				}
			}
			acc.Ranked(hegemony.DefaultTrim)
			scoring += time.Since(begin)
		}
	})
	n := float64(sampleN)
	L["astopo.flood_us"] = plain.Seconds() * 1e6 / n
	L["astopo.flood_alloc_kb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e3 / n
	L["astopo.flood_filtered_us"] = (filtered - scoring).Seconds() * 1e6 / n
	L["hegemony.score_us"] = scoring.Seconds() * 1e6 / n
}
