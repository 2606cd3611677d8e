package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"manrsmeter/internal/cluster"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/serve"
	"manrsmeter/internal/synth"
)

// Telemetry-off flags for the obsv.telemetry_cost_ratio fleet: no
// request spans, and an access log that samples (almost) nothing.
var (
	quietReplica = []string{"-trace-cap", "0", "-access-log-sample", "1000000"}
	quietGateway = []string{"-access-log-sample", "1000000"}
)

// boot starts the workload's daemons and returns the URL the load goes
// to: one manrsd, or manrs-gw over two manrsd of which the second joins
// by wire sync from peer (the first replica, or an already running one).
func (f *fleet) boot(ctx context.Context, r *run, suffix, peer string, replicaArgs, gatewayArgs []string) (target string, replicas []*daemon, err error) {
	args := append([]string{"-scale", "full", "-seed", fmt.Sprint(r.seed)}, replicaArgs...)
	withPeer := func(p string) []string {
		if p == "" {
			return args
		}
		return append(args[:len(args):len(args)], "-peers", p)
	}
	r1, err := f.start(ctx, "replica1"+suffix, "manrsd", withPeer(peer)...)
	if err != nil {
		return "", nil, err
	}
	if r.workload != wGateway {
		return r1.url, []*daemon{r1}, nil
	}
	if peer == "" {
		peer = r1.url
	}
	r2, err := f.start(ctx, "replica2"+suffix, "manrsd", withPeer(peer)...)
	if err != nil {
		return "", nil, err
	}
	gw, err := f.start(ctx, "gateway"+suffix, "manrs-gw", append([]string{"-replicas", r1.url + "," + r2.url}, gatewayArgs...)...)
	if err != nil {
		return "", nil, err
	}
	return gw.url, []*daemon{r1, r2, gw}, nil
}

// answer is what the cross-path check compares: a response's body and
// the two headers that name its content.
type answer struct{ body, etag, snapshot string }

func fetch(base, path string) (answer, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("%s%s: status %d", base, path, resp.StatusCode)
	}
	return answer{string(body), resp.Header.Get("ETag"), resp.Header.Get("X-MANRS-Snapshot")}, nil
}

// serveInProcess answers one request from the harness's own handler and
// returns the recorder and how long ServeHTTP took.
func serveInProcess(h http.Handler, path, ifNoneMatch string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	begin := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(begin)
}

func runQuery(ctx context.Context, r *run) (*result, error) {
	res := newResult()
	bin, err := buildDaemons(ctx, r.root)
	if err != nil {
		return nil, err
	}
	// The harness's own copy of the world `manrsd -scale full -seed S`
	// generates: it sizes the request stream, names the snapshot version
	// every answer must carry, and later feeds the in-process oracle.
	world, err := synth.Generate(synth.NewConfig(r.seed))
	if err != nil {
		return nil, err
	}
	date := world.Date(world.Config.EndYear)
	version := world.Fingerprint() + "@" + date.Format("2006-01-02")
	verify := func(resp *http.Response, body []byte) bool {
		return resp.Header.Get("X-MANRS-Snapshot") == version && (resp.StatusCode == http.StatusNotModified || len(body) > 0)
	}
	asns := world.Graph.ASNs() // ascending, so a zipf rank names the same AS on every run
	streams := func(client int) stream { return mixStream(r.seed, client, asns) }
	warmup := 4000
	if r.workload == wScan {
		paths := scanPaths(world, date, r.seed)
		streams = func(client int) stream { return scanStream(paths, client, r.clients) }
		warmup = 1000 // connections only: nothing a scan asks twice is cached
	}

	fl := &fleet{bin: bin, dir: r.dir}
	defer fl.stop()
	clients := newClients(r.clients, streams, verify)
	var target string
	var daemons []*daemon
	setup := r.tr.timed("setup: boot + warm-up", -1, func() {
		if target, daemons, err = fl.boot(ctx, r, "", "", nil, nil); err == nil {
			res.failed += closedLoop(ctx, clients, target, 0, warmup/r.clients, nil, -1).failed
		}
	})
	if err != nil {
		return nil, err
	}
	if r.workload == wGateway {
		log, err := os.ReadFile(daemons[1].logPath)
		res.check(err == nil && strings.Contains(string(log), "via wire replication"), "replica2 did not join by wire sync")
	}

	// The measured loop: equal windows, the run's number the median of
	// the per-window numbers. Traced runs give the loop half the time
	// (the layer probes get the rest) and record per-request spans in
	// every other window, which prices the tracing.
	windows, window := 5, seconds(r.seconds/5)
	if r.tr != nil {
		windows, window = 10, window/4
	}
	counterNames := []string{"serve_cache_hits_total", "serve_cache_misses_total", "serve_shed_total",
		"cluster_gateway_retries_total", "cluster_gateway_shed_total"}
	before, err := counters(daemons, counterNames...)
	if err != nil {
		return nil, err
	}
	var qps, p50, p99, p50Traced, p50Untraced []float64
	loop := r.tr.start("measure", -1)
	for w := 0; w < windows && ctx.Err() == nil; w++ {
		tr := r.tr
		if w%2 == 1 {
			tr = nil
		}
		id := tr.start("window", loop)
		lr := closedLoop(ctx, clients, target, window, 0, tr, id)
		tr.end(id)
		lats := lr.latencies()
		res.attempted += len(lats)
		res.failed += lr.failed
		qps = append(qps, float64(len(lats))/lr.seconds)
		p50 = append(p50, quantile(lats, 0.5))
		p99 = append(p99, quantile(lats, 0.99))
		if tr != nil {
			p50Traced = append(p50Traced, quantile(lats, 0.5))
		} else {
			p50Untraced = append(p50Untraced, quantile(lats, 0.5))
		}
	}
	r.tr.end(loop)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := counters(daemons, counterNames...)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	res.e2e["op_ms"] = median(p50) * 1e3
	res.e2e["ops_per_s"] = median(qps)
	res.e2e["setup_s"] = setup.Seconds()
	res.note("request p50 per window", scale(summarize(p50), 1e6), "us")
	res.note("request p99 per window", scale(summarize(p99), 1e6), "us")
	res.note("requests/s per window", summarize(qps), "1/s")
	L := res.layer
	L["query.p99_us"] = median(p99) * 1e6
	L["serve.cache_hit_ratio"] = delta("serve_cache_hits_total") / (delta("serve_cache_hits_total") + delta("serve_cache_misses_total"))
	L["serve.shed"] = delta("serve_shed_total")
	L["bench.trace_overhead_ratio"] = median(p50Traced) / median(p50Untraced)
	if r.workload == wGateway {
		L["cluster.retries"] = delta("cluster_gateway_retries_total")
		L["cluster.shed"] = delta("cluster_gateway_shed_total")
	}

	// Oracle: the harness builds the same snapshot itself and serves it
	// from its own handler, configured like the daemon's. A seeded sample
	// of the workload's URLs must answer byte for byte the same on every
	// path: each replica directly, the gateway, and in process.
	reg := obsv.NewRegistry()
	store := serve.NewStore(world, serve.StoreOptions{Registry: reg})
	r.tr.timed("oracle: in-process Store.Get", -1, func() { _, err = store.Get(ctx, date) })
	if err != nil {
		return nil, err
	}
	handler := serve.NewServer(store, serve.Options{Registry: reg, Tracer: obsv.NewBoundedTracer(4096),
		AccessLog: obsv.NewLogger(io.Discard, obsv.LevelInfo).With("access")}).Handler()
	bases := make([]string, len(daemons)) // every replica directly, and the gateway
	for i, d := range daemons {
		bases[i] = d.url
	}
	sampler, seen := streams(r.clients), map[string]bool{} // a stream no client used
	for tries := 0; len(seen) < 200 && tries < 20000; tries++ {
		path := sampler().path
		if seen[path] {
			continue
		}
		seen[path] = true
		rec, _ := serveInProcess(handler, path, "")
		want := answer{rec.Body.String(), rec.Header().Get("ETag"), rec.Header().Get("X-MANRS-Snapshot")}
		same := rec.Code == http.StatusOK && want.etag != "" && want.snapshot == version
		for _, base := range bases {
			got, err := fetch(base, path)
			same = same && err == nil && got == want
		}
		res.check(same, "%s answers differently across %v and the in-process handler", path, bases)
	}

	if r.tr != nil {
		if err := queryLayers(ctx, r, res, fl, handler, streams, daemons, median(p50), median(qps)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func scale(s summary, k float64) summary {
	return summary{Median: s.Median * k, Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}

// scanPaths lists one URL per AS and per originated prefix of the world,
// shuffled by seed: ≈10× the daemon's 4096-entry response cache.
func scanPaths(w *synth.World, date time.Time, seed int64) []string {
	var paths []string
	for _, asn := range w.Graph.ASNs() {
		paths = append(paths, fmt.Sprintf("/v1/as/%d/conformance", asn))
	}
	seen := map[string]bool{}
	for _, og := range w.OriginationsAt(date) {
		if p := "/v1/prefix/" + og.Prefix.String(); !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	rand.New(rand.NewSource(seed)).Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

// loadP50 runs fresh clients against base for dur and returns the
// median latency in seconds and the request rate.
func loadP50(ctx context.Context, r *run, name, base string, streams func(int) stream, dur time.Duration, warmup int) (float64, float64) {
	clients := newClients(r.clients, streams, nil)
	var lr loadResult
	r.tr.timed(name, -1, func() {
		closedLoop(ctx, clients, base, 0, warmup/r.clients, nil, -1)
		lr = closedLoop(ctx, clients, base, dur, 0, nil, -1)
	})
	lats := lr.latencies()
	return quantile(lats, 0.5), float64(len(lats)) / lr.seconds
}

// queryLayers is the traced run's per-layer part.
func queryLayers(ctx context.Context, r *run, res *result, fl *fleet, handler http.Handler, streams func(int) stream, daemons []*daemon, mainP50, mainQPS float64) error {
	L := res.layer
	probe := seconds(r.seconds / 10)

	// The handler alone, in process: the same URL stream, first touch
	// (miss), second touch (hit), and revalidation (304).
	const replay = 2000
	next := streams(0)
	paths := make([]string, replay)
	for i := range paths {
		paths[i] = next().path
	}
	var miss, hit, notMod, bytes []float64
	etags := make(map[string]string)
	root := r.tr.start("serve: Handler.ServeHTTP replay", -1)
	for _, p := range paths {
		rec, d := serveInProcess(handler, p, "")
		if _, again := etags[p]; !again {
			miss = append(miss, d.Seconds())
		}
		etags[p] = rec.Header().Get("ETag")
		bytes = append(bytes, float64(rec.Body.Len()))
	}
	for _, p := range paths {
		_, d := serveInProcess(handler, p, "")
		hit = append(hit, d.Seconds())
		rec, d := serveInProcess(handler, p, etags[p])
		res.check(rec.Code == http.StatusNotModified, "%s: in-process revalidation answered %d", p, rec.Code)
		notMod = append(notMod, d.Seconds())
	}
	r.tr.end(root)
	sum := 0.0
	for _, b := range bytes {
		sum += b
	}
	L["serve.resp_bytes"] = sum / float64(len(bytes))
	if r.workload == wScan {
		L["serve.handler_miss_us"] = median(miss) * 1e6
		return nil
	}
	L["serve.handler_hit_us"] = median(hit) * 1e6
	L["serve.handler_304_us"] = median(notMod) * 1e6

	// The floor under every query: the same clients and stream against
	// a server that does nothing but write a fixed body on loopback.
	fixed := make([]byte, int(L["serve.resp_bytes"]))
	floor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(fixed) }))
	defer floor.Close()
	floorP50, _ := loadP50(ctx, r, "net: fixed-body server", floor.URL, streams, probe, 200)
	L["net.floor_us"] = floorP50 * 1e6

	if r.workload == wDirect {
		return sweep(ctx, r, L, daemons[0].url, streams, probe)
	}

	// Gateway layers. Ring lookup alone; the gateway's own cost, as an
	// in-process Gateway over the fixed-body server minus that server
	// asked directly; the hop, as this run's p50 minus the same stream
	// asked of one replica directly.
	ring := cluster.NewRing(1, daemons[0].url, daemons[1].url)
	const lookups = 200000
	L["cluster.ring_ns"] = float64(r.tr.timed("cluster: Ring.Owner", -1, func() {
		for i := 0; i < lookups; i++ {
			ring.Owner(paths[i%replay])
		}
	}).Nanoseconds()) / lookups
	members := cluster.NewMembership(cluster.NewRing(1, floor.URL), []string{floor.URL}, cluster.MembershipOptions{})
	gw := httptest.NewServer(cluster.NewGateway(members, cluster.GatewayOptions{Registry: obsv.NewRegistry(),
		AccessLog: obsv.NewLogger(io.Discard, obsv.LevelInfo).With("access")}).Handler())
	defer gw.Close()
	viaGW, _ := loadP50(ctx, r, "cluster: in-process Gateway", gw.URL, streams, probe, 200)
	L["cluster.gw_self_us"] = (viaGW - floorP50) * 1e6
	directP50, _ := loadP50(ctx, r, "query: replica1 directly", daemons[0].url, streams, probe, 1000)
	L["cluster.hop_us"] = (mainP50 - directP50) * 1e6

	// What the default telemetry costs: a second fleet with request
	// spans off and the access logs sampling nothing, joined by wire
	// sync from the first, asked the same stream.
	quiet, _, err := fl.boot(ctx, r, "-quiet", daemons[0].url, quietReplica, quietGateway)
	if err != nil {
		return err
	}
	_, quietQPS := loadP50(ctx, r, "obsv: telemetry-off fleet", quiet, streams, 3*probe, 4000)
	L["obsv.telemetry_cost_ratio"] = mainQPS / quietQPS
	return nil
}

// sweepRates are the open loop's offered rates, requests per second.
// They are fixed, not derived from the measured closed-loop rate, so the
// same steps are compared from commit to commit. sweepLimit is the p99
// latency, from scheduled arrival, a rate must meet.
var sweepRates = []float64{2000, 4000, 8000, 16000, 32000}

const sweepLimit = 0.020

// sweep offers Poisson arrivals at each rate and reports the knee — the
// highest rate answered at 95% or more of what was offered within the
// latency limit — and how much of the knee's goodput survives at the
// highest rate: 1 or more means overload sheds or queues, but does not
// collapse. Diagnostic only: the numbers step between the fixed rates.
func sweep(ctx context.Context, r *run, L map[string]float64, base string, streams func(int) stream, step time.Duration) error {
	// More clients than the closed loop's: an open loop needs room for
	// arrivals to overlap.
	clients := newClients(8*r.clients, func(i int) stream { return streams(1000 + i) }, nil)
	var knee, kneeGoodput, lastGoodput, late float64
	root := r.tr.start("loadgen: open-loop sweep", -1)
	defer r.tr.end(root)
	for i, rate := range sweepRates {
		var lr loadResult
		r.tr.timed(fmt.Sprintf("open loop %g/s", rate), root, func() {
			lr = openLoop(ctx, clients, base, rate, step, r.seed+int64(i))
		})
		var inTime []float64
		for _, s := range lr.samples {
			if s.done <= lr.seconds {
				inTime = append(inTime, s.lat)
			}
		}
		sort.Float64s(inTime)
		lastGoodput = float64(len(inTime)) / lr.seconds
		if i == 0 || lastGoodput >= 0.95*rate && quantile(inTime, 0.99) <= sweepLimit {
			knee, kneeGoodput, late = rate, lastGoodput, median(lr.late)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	L["loadgen.knee_qps"] = knee
	L["loadgen.goodput_past_knee"] = lastGoodput / kneeGoodput
	L["loadgen.late_us"] = late * 1e6
	return nil
}
