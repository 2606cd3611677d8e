package manrsmeter

// One sub-benchmark per section of the paper's evaluation
// (BenchmarkSections; see DESIGN.md, "Per-experiment index"), plus the
// ablation benches for the design choices DESIGN.md calls out. Each
// section re-runs over a shared, lazily-built pipeline so -bench output
// reports the marginal cost of the analysis itself; the dataset build
// and world generation are benchmarked separately.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/bgp/wire"
	"manrsmeter/internal/core"
	"manrsmeter/internal/durable"
	"manrsmeter/internal/hegemony"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/rpki/rtr"
	"manrsmeter/internal/rpsl"
	"manrsmeter/internal/serve"
	"manrsmeter/internal/synth"
)

var (
	benchOnce sync.Once
	benchPipe *core.Pipeline
	benchErr  error

	largeOnce sync.Once
	largeWrld *synth.World
	largeErr  error
)

// largeWorld returns the shared internet-scale world (~75k ASes, ~1M
// prefixes, synth.NewLargeConfig). Its benches are opt-in via
// MANRS_LARGE=1: generation plus a serial dataset build runs for minutes
// on one core, far beyond the default bench smoke budget.
func largeWorld(b *testing.B) *synth.World {
	b.Helper()
	if os.Getenv("MANRS_LARGE") == "" {
		b.Skip("set MANRS_LARGE=1 to run internet-scale benchmarks")
	}
	largeOnce.Do(func() {
		largeWrld, largeErr = synth.Generate(synth.NewLargeConfig(1))
	})
	if largeErr != nil {
		b.Fatal(largeErr)
	}
	return largeWrld
}

// benchConfig is the shared bench world: big enough that every cohort is
// populated, small enough that go test -bench runs in minutes.
func benchConfig(seed int64) synth.Config {
	cfg := synth.NewConfig(seed)
	cfg.Tier1s = 4
	cfg.LargeISPs = 4
	cfg.MediumISPs = 80
	cfg.SmallASes = 1600
	cfg.CDNs = 10
	cfg.MANRSSmall = 90
	cfg.MANRSMedium = 30
	cfg.MANRSLarge = 4
	cfg.MANRSCDNs = 5
	return cfg
}

func pipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		world, err := synth.Generate(benchConfig(1))
		if err != nil {
			benchErr = err
			return
		}
		benchPipe, benchErr = NewPipeline(world)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe
}

// --- Figure and table benches ---

// BenchmarkSections renders each section of core.Sections over the
// shared pipeline, one sub-benchmark per section name. The stability
// section runs over three weekly snapshots rather than the paper's 12.
func BenchmarkSections(b *testing.B) {
	p := pipeline(b)
	for _, sec := range core.Sections {
		b.Run(sec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out, err := sec.Render(context.Background(), p, 3); err != nil || out == "" {
					b.Fatalf("%q, %v", out, err)
				}
			}
		})
	}
}

// --- Pipeline-stage benches ---

func BenchmarkGenerateWorld(b *testing.B) {
	cfg := benchConfig(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// buildDataset is one dataset build that bypasses the world's views:
// a raw relying-party run, both indexes, ihr.BuildCtx.
func buildDataset(world *synth.World, asOf time.Time, workers int) (*ihr.Dataset, error) {
	vrps, err := world.VRPsAtCtx(context.Background(), asOf, workers)
	if err != nil {
		return nil, err
	}
	rpkiIx, err := rpki.BuildIndex(vrps)
	if err != nil {
		return nil, err
	}
	irrIx, err := world.IRRRegistry.Index()
	if err != nil {
		return nil, err
	}
	return ihr.BuildCtx(context.Background(), ihr.Config{Graph: world.Graph, RPKI: rpkiIx, IRR: irrIx, Policies: world.Policies,
		VantagePoints: world.VantagePoints, Originations: world.OriginationsAt(asOf), Workers: workers})
}

func BenchmarkDatasetBuild(b *testing.B) {
	// buildDataset bypasses the world's views, so every iteration
	// measures a full serial build. bytes/op and allocs/op are the
	// tracked numbers: the compact layout's budget lives in check.sh's
	// memory gate.
	b.Run("seed", func(b *testing.B) {
		world, err := synth.Generate(benchConfig(3))
		if err != nil {
			b.Fatal(err)
		}
		asOf := world.Date(world.Config.EndYear)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buildDataset(world, asOf, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("large", func(b *testing.B) {
		world := largeWorld(b)
		asOf := world.Date(world.Config.EndYear)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buildDataset(world, asOf, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildDatasetParallel measures the same full build across
// worker counts; compare against workers=1 for the parallel speedup.
// The sub-benchmarks share one World, whose signature-verdict memo the
// first relying-party run fills, so each does one untimed build first:
// every timed build then runs a warm relying party and the pair differs
// in propagation scaling only.
func BenchmarkBuildDatasetParallel(b *testing.B) {
	world, err := synth.Generate(benchConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	asOf := world.Date(world.Config.EndYear)
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if _, err := buildDataset(world, asOf, workers); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buildDataset(world, asOf, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullReport(b *testing.B) {
	p := pipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := RunReportWithPipeline(context.Background(), io.Discard, p, ReportOptions{SkipStability: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md, "Ablations") ---

// rovFixture builds an index with n random authorizations plus the query
// set used by both variants.
func rovFixture(n int) (*rov.Index, []netx.Prefix, []uint32) {
	r := rand.New(rand.NewSource(42))
	ix := rov.NewIndex()
	for i := 0; i < n; i++ {
		var a [4]byte
		r.Read(a[:])
		bits := 8 + r.Intn(17)
		p, _ := netx.PrefixFrom(netip.AddrFrom4(a), bits)
		_ = ix.Add(rov.Authorization{Prefix: p, ASN: uint32(64500 + r.Intn(500)), MaxLength: bits + r.Intn(33-bits)})
	}
	prefixes := make([]netx.Prefix, 256)
	asns := make([]uint32, 256)
	for i := range prefixes {
		var a [4]byte
		r.Read(a[:])
		bits := 8 + r.Intn(25)
		prefixes[i], _ = netx.PrefixFrom(netip.AddrFrom4(a), bits)
		asns[i] = uint32(64500 + r.Intn(500))
	}
	ix.Validate(prefixes[0], asns[0]) // the first read sorts the index: a build cost, not a lookup's
	return ix, prefixes, asns
}

// BenchmarkROVTrieVsLinear quantifies the sorted prefix table's
// covering lookup against a full scan for RFC 6811 classification.
func BenchmarkROVTrieVsLinear(b *testing.B) {
	ix, prefixes, asns := rovFixture(10000)
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := i % len(prefixes)
			ix.Validate(prefixes[q], asns[q])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := i % len(prefixes)
			ix.ValidateLinear(prefixes[q], asns[q])
		}
	})
}

// BenchmarkHegemonyTrim compares the 10%-trimmed hegemony against the
// plain mean on realistic path sets.
func BenchmarkHegemonyTrim(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	paths := make([][]uint32, 40)
	for i := range paths {
		path := []uint32{uint32(1000 + i)}
		for h := 0; h < 2+r.Intn(4); h++ {
			path = append(path, uint32(100+r.Intn(30)))
		}
		paths[i] = append(path, 999)
	}
	b.Run("trim10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hegemony.Scores(paths, hegemony.DefaultTrim)
		}
	})
	b.Run("mean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hegemony.Scores(paths, 0)
		}
	})
}

// BenchmarkAsSetExpansion measures transitive as-set expansion with deep
// nesting and cycles.
func BenchmarkAsSetExpansion(b *testing.B) {
	db := irr.NewDatabase("BENCH")
	for i := 0; i < 200; i++ {
		o := &rpsl.Object{}
		o.Add("as-set", benchSetName(i))
		members := ""
		for m := 0; m < 5; m++ {
			members += rpsl.FormatASN(uint32(i*10+m)) + ", "
		}
		members += benchSetName((i + 1) % 200) // chain with a terminal cycle
		o.Add("members", members)
		if err := db.AddObject(o); err != nil {
			b.Fatal(err)
		}
	}
	reg := irr.NewRegistry()
	reg.AddDatabase(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asns, _ := reg.ExpandASSet(benchSetName(0))
		if len(asns) != 1000 {
			b.Fatalf("expanded %d", len(asns))
		}
	}
}

func benchSetName(i int) string { return "AS-BENCH-" + string(rune('A'+i%26)) + itoa(i) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkPropagation compares valley-free flooding with and without
// import filters (the ROV cost inside the simulator).
func BenchmarkPropagation(b *testing.B) {
	world, err := synth.Generate(benchConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	g := world.Graph
	origins := world.OriginationsAt(world.Date(world.Config.EndYear))
	if len(origins) == 0 {
		b.Fatal("no originations")
	}
	b.Run("no-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			og := origins[i%len(origins)]
			g.Propagate(og.Prefix, og.Origin, nil)
		}
	})
	b.Run("rov-filter", func(b *testing.B) {
		filter := func(importer, neighbor uint32, _ netx.Prefix, _ uint32) bool {
			_, deploys := world.Policies[importer]
			return !deploys || importer%2 == 0
		}
		for i := 0; i < b.N; i++ {
			og := origins[i%len(origins)]
			g.Propagate(og.Prefix, og.Origin, filter)
		}
	})
	b.Run("large", func(b *testing.B) {
		lw := largeWorld(b)
		lg := lw.Graph
		lo := lw.OriginationsAt(lw.Date(lw.Config.EndYear))
		if len(lo) == 0 {
			b.Fatal("no originations")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			og := lo[i%len(lo)]
			lg.Propagate(og.Prefix, og.Origin, nil)
		}
	})
}

// --- Substrate micro-benches ---

func BenchmarkBGPUpdateEncodeDecode(b *testing.B) {
	u := &wire.Update{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: []uint32{64500, 64501, 64502, 4200000001}}},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI: []netx.Prefix{
			netx.MustParsePrefix("198.51.100.0/24"),
			netx.MustParsePrefix("203.0.113.0/24"),
			netx.MustParsePrefix("10.0.0.0/8"),
		},
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.Encode(u); err != nil {
				b.Fatal(err)
			}
		}
	})
	enc, err := wire.Encode(u)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate micro-benches (cont.) ---

func BenchmarkTrieCovering(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	tr := netx.NewTable[int]()
	for i := 0; i < 50000; i++ {
		var a [4]byte
		r.Read(a[:])
		p, _ := netx.PrefixFrom(netip.AddrFrom4(a), 8+r.Intn(17))
		tr.Insert(p, i)
	}
	queries := make([]netx.Prefix, 1024)
	for i := range queries {
		var a [4]byte
		r.Read(a[:])
		queries[i], _ = netx.PrefixFrom(netip.AddrFrom4(a), 8+r.Intn(25))
	}
	tr.Len() // the first read sorts the table: a build cost, not a lookup's
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tr.Covering(dst[:0], queries[i%len(queries)])
	}
}

func BenchmarkRPSLParse(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "route: 10.%d.0.0/16\norigin: AS%d\ndescr: bench object %d\n+ continued line\nsource: BENCH\n\n", i%256, 64500+i, i)
	}
	input := sb.String()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs, err := rpsl.ParseAll(strings.NewReader(input))
		if err != nil || len(objs) != 200 {
			b.Fatalf("parse: %v (%d objs)", err, len(objs))
		}
	}
}

func BenchmarkROASignAndValidate(b *testing.B) {
	t0 := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.AddDate(5, 0, 0)
	ta, err := rpki.NewTrustAnchor(rpki.RIPE, []netx.Prefix{netx.MustParsePrefix("10.0.0.0/8")}, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := ta.SignROA(64500, []rpki.ROAPrefix{{Prefix: netx.MustParsePrefix("10.1.0.0/16"), MaxLength: 24}}, t0, t1)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	// A registry-dense world's worth of ROAs through a memo-less relying
	// party, so every iteration verifies every signature: the cold run a
	// snapshot build starts with, serial and at one worker per CPU.
	b.Run("relying-party", func(b *testing.B) {
		const roas = 2500
		repo := &rpki.Repository{}
		for i := 0; i < roas; i++ {
			roa, err := ta.SignROA(uint32(64500+i), []rpki.ROAPrefix{{Prefix: netx.MustParsePrefix("10.1.0.0/16"), MaxLength: 24}}, t0, t1)
			if err != nil {
				b.Fatal(err)
			}
			repo.AddROA(roa)
		}
		rp, err := rpki.NewRelyingParty(ta.Cert)
		if err != nil {
			b.Fatal(err)
		}
		rp.Now = t0.AddDate(1, 0, 0)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vrps, _, err := rp.Run(context.Background(), repo, workers)
					if err != nil || len(vrps) != roas {
						b.Fatalf("%d VRPs, err %v", len(vrps), err)
					}
				}
			})
		}
	})
}

func BenchmarkMRTRoundTrip(b *testing.B) {
	ts := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	peers := []mrt.Peer{{BGPID: [4]byte{1, 1, 1, 1}, Addr: netip.MustParseAddr("10.0.0.1"), ASN: 64500}}
	var ref bytes.Buffer
	w := mrt.NewWriter(&ref, ts)
	if err := w.WritePeerIndexTable([4]byte{9, 9, 9, 9}, "bench", peers); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := netx.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		err := w.WriteRIB(p, []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: ts, Path: []uint32{64500, uint32(65000 + i)}}})
		if err != nil {
			b.Fatal(err)
		}
	}
	raw := ref.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dump, err := mrt.NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil || len(dump.Records) != 500 {
			b.Fatalf("read: %v", err)
		}
	}
}

func BenchmarkRTRFetch(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	vrps := make([]rpki.VRP, 2000)
	for i := range vrps {
		var a [4]byte
		r.Read(a[:])
		bits := 16 + r.Intn(9)
		p, _ := netx.PrefixFrom(netip.AddrFrom4(a), bits)
		vrps[i] = rpki.VRP{Prefix: p, ASN: uint32(64500 + i), MaxLength: bits}
	}
	srv := rtr.NewServer(vrps)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rtr.Fetch(context.Background(), addr.String())
		if err != nil || len(res.VRPs) != len(vrps) {
			b.Fatalf("fetch: %v", err)
		}
	}
}

// --- Durability benches ---

// benchSnapshotData assembles the durable archive payload for the
// shared bench world: the real headline dataset plus validation
// registries derived from its originations — the same shape manrsd
// persists after every successful build.
func benchSnapshotData(b *testing.B) *durable.SnapshotData {
	p := pipeline(b)
	ds := p.Dataset()
	auths := make([]rov.Authorization, 0, len(ds.PrefixOrigins))
	for _, po := range ds.PrefixOrigins {
		auths = append(auths, rov.Authorization{
			Prefix:    po.Prefix,
			ASN:       po.Origin,
			MaxLength: po.Prefix.Bits(),
		})
	}
	key := durable.Key{Fingerprint: p.World.Fingerprint(), Date: p.AsOf}
	return &durable.SnapshotData{
		Fingerprint:   p.World.Fingerprint(),
		Version:       key.String(),
		Date:          p.AsOf,
		PrefixOrigins: ds.PrefixOrigins,
		Transits:      ds.Transits,
		Visibility:    ds.Visibility,
		RPKI:          auths,
		IRR:           auths,
	}
}

// BenchmarkSnapshotPersist measures the durable archive write path —
// encode, checksum, temp+fsync+rename commit, retention janitor —
// for a full bench-world snapshot. Content alternates between two
// variants so the identical-content skip never fires and every
// iteration pays for a real commit.
func BenchmarkSnapshotPersist(b *testing.B) {
	base := benchSnapshotData(b)
	store, err := durable.Open(b.TempDir(), durable.Options{Registry: obsv.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	variants := [2]durable.SnapshotData{*base, *base}
	variants[1].Version += "+alt"
	b.SetBytes(int64(len(durable.Encode(base))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Save(ctx, &variants[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures warm-start recovery cost per archive:
// read, checksum-verify, and decode the newest archive for a key —
// the disk-to-servable latency a restarted manrsd pays per snapshot.
func BenchmarkSnapshotLoad(b *testing.B) {
	data := benchSnapshotData(b)
	store, err := durable.Open(b.TempDir(), durable.Options{Registry: obsv.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := store.Save(ctx, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(durable.Encode(data))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := store.Load(ctx, data.Key())
		if err != nil {
			b.Fatal(err)
		}
		if got.Version != data.Version {
			b.Fatalf("loaded version %q, want %q", got.Version, data.Version)
		}
	}
}

// BenchmarkServeConformance measures the serving hot path: a per-AS
// conformance query answered from the version-keyed response cache of a
// pre-warmed query server (no snapshot build, no pipeline work — the
// admission, cache lookup, ETag, and write path).
func BenchmarkServeConformance(b *testing.B) {
	p := pipeline(b)
	store := serve.NewStore(p.World, serve.StoreOptions{})
	srv := serve.NewServer(store, serve.Options{})
	h := srv.Handler()
	path := fmt.Sprintf("/v1/as/%d/conformance", p.World.Graph.ASNs()[0])

	// Warm the snapshot and the response cache.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, path, nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm request: %d %s", warm.Code, warm.Body.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
