// chaos_test.go drives the whole distributed tier — real replicas with
// real listeners behind a real gateway — and kills a replica mid-load:
// the cluster must never serve a wrong answer, keep 5xx bounded,
// converge the ring on the survivors, and keep one trace ID greppable
// across the gateway and replica access logs.

package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/serve"
	"manrsmeter/internal/synth"
)

// sharedWorld is a deliberately tiny world (the cluster tests boot
// several stores over it, sometimes under -race) generated once.
var (
	worldOnce sync.Once
	worldVal  *synth.World
	worldErr  error
)

func tinyWorld(t testing.TB) *synth.World {
	t.Helper()
	worldOnce.Do(func() {
		cfg := synth.NewConfig(1)
		cfg.Tier1s = 2
		cfg.LargeISPs = 2
		cfg.MediumISPs = 12
		cfg.SmallASes = 80
		cfg.CDNs = 2
		cfg.MANRSSmall = 8
		cfg.MANRSMedium = 4
		cfg.MANRSLarge = 1
		cfg.MANRSCDNs = 1
		worldVal, worldErr = synth.Generate(cfg)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldVal
}

// syncBuffer is a race-safe log sink: handlers may still be flushing
// access-log records when the test starts grepping.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// replica is one real manrsd-shaped server: its own store and registry
// over the shared world, a real listener, and a captured access log.
type replica struct {
	store *serve.Store
	srv   *serve.Server
	reg   *obsv.Registry
	log   *syncBuffer
	url   string
}

// startReplica boots a replica. When syncFrom is non-empty it is the
// store's one peer, so the headline comes over the wire from it.
func startReplica(t *testing.T, syncFrom string) *replica {
	t.Helper()
	rep := &replica{reg: obsv.NewRegistry(), log: &syncBuffer{}}
	opts := serve.StoreOptions{Registry: rep.reg}
	if syncFrom != "" {
		opts.Peers = []string{syncFrom}
	}
	rep.store = serve.NewStore(tinyWorld(t), opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := rep.store.Get(ctx, rep.store.DefaultDate()); err != nil {
		t.Fatalf("resolve snapshot: %v", err)
	}
	rep.srv = serve.NewServer(rep.store, serve.Options{
		AccessLog:       obsv.NewLogger(rep.log, obsv.LevelInfo).With("access"),
		AccessLogSample: 1,
		Registry:        rep.reg,
	})
	addr, err := rep.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep.url = "http://" + addr.String()
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		_ = rep.srv.Shutdown(sctx)
	})
	return rep
}

// kill force-closes the replica's connections — a crash, not a drain.
func (r *replica) kill() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = r.srv.Shutdown(ctx)
}

func httpGet(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestClusterETagCoherence is the acceptance criterion for stateless
// coherence: a replica that caught up over the wire and the replica
// that built locally answer byte-identically through the gateway, with
// the same fingerprint-scoped ETag a direct query gets, and a client
// ETag revalidates to 304 no matter which replica answers.
func TestClusterETagCoherence(t *testing.T) {
	built := startReplica(t, "")
	synced := startReplica(t, built.url)

	if n := synced.reg.Value("serve_snapshot_builds_total"); n != 0 {
		t.Fatalf("synced replica ran %d local builds, want 0 (wire replication)", n)
	}
	if n := synced.reg.Value("serve_snapshot_wire_syncs_total"); n != 1 {
		t.Fatalf("wire syncs = %d, want 1", n)
	}

	reg := obsv.NewRegistry()
	replicas := []string{built.url, synced.url}
	ring := NewRing(1, replicas...)
	members := NewMembership(ring, replicas, MembershipOptions{
		Registry: reg,
		Probe:    func(ctx context.Context, replica string) error { return nil },
	})
	gw := NewGateway(members, GatewayOptions{Registry: reg})
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gwURL := "http://" + gwAddr.String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = gw.Shutdown(ctx)
	}()

	asns := tinyWorld(t).Graph.ASNs()
	paths := []string{
		"/v1/stats",
		"/v1/report",
		fmt.Sprintf("/v1/as/%d/conformance", asns[0]),
		fmt.Sprintf("/v1/as/%d/conformance", asns[len(asns)/2]),
	}
	for _, path := range paths {
		direct, directBody := httpGet(t, built.url+path, nil)
		viaGW, gwBody := httpGet(t, gwURL+path, nil)
		if direct.StatusCode != http.StatusOK || viaGW.StatusCode != http.StatusOK {
			t.Fatalf("%s: direct %d, gateway %d", path, direct.StatusCode, viaGW.StatusCode)
		}
		if !bytes.Equal(directBody, gwBody) {
			t.Errorf("%s: gateway body differs from direct replica body", path)
		}
		// A proxied answer leaves the gateway whole: the replica's length
		// declared, no chunk framing. (A replica answer too long for its
		// server to have measured is relayed chunked, as it arrived.)
		if strings.HasPrefix(path, "/v1/as/") && direct.ContentLength < 0 {
			t.Fatalf("%s: replica answer carries no Content-Length; the fixture no longer exercises the relay", path)
		}
		if direct.ContentLength >= 0 && (viaGW.ContentLength != int64(len(directBody)) || len(viaGW.TransferEncoding) != 0) {
			t.Errorf("%s: via gateway Content-Length %d, Transfer-Encoding %v; want %d, none",
				path, viaGW.ContentLength, viaGW.TransferEncoding, len(directBody))
		}
		etag := direct.Header.Get("ETag")
		if etag == "" || etag != viaGW.Header.Get("ETag") {
			t.Errorf("%s: ETag %q via gateway, %q direct — must be identical across replicas",
				path, viaGW.Header.Get("ETag"), etag)
		}
		if direct.Header.Get("X-MANRS-Snapshot") != viaGW.Header.Get("X-MANRS-Snapshot") {
			t.Errorf("%s: snapshot version diverged across the gateway", path)
		}
		// 304 revalidation through the gateway, whichever replica owns
		// the key.
		reval, revalBody := httpGet(t, gwURL+path, map[string]string{"If-None-Match": etag})
		if reval.StatusCode != http.StatusNotModified || len(revalBody) != 0 || reval.Header.Get("Content-Length") != "" {
			t.Errorf("%s: revalidation through gateway = %d with %d body bytes, Content-Length %q; want a bare 304",
				path, reval.StatusCode, len(revalBody), reval.Header.Get("Content-Length"))
		}
	}
	if n := reg.Value("cluster_version_mismatch_total"); n != 0 {
		t.Errorf("homogeneous fleet raised %d version mismatches", n)
	}
}

// TestClusterReplicaCrashMidLoad kills 1 of 3 replicas during a seeded
// 6000-request run through the gateway. The contract: zero wrong
// answers (no version mismatch, survivors byte-identical), bounded 5xx,
// the ring converges on the survivors (the membership /cluster/ring
// renders, and one more cluster_ring_transitions_total), and the run's
// first trace ID appears in both the gateway and a replica access log.
func TestClusterReplicaCrashMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster chaos run")
	}

	primary := startReplica(t, "")
	reps := []*replica{primary, startReplica(t, primary.url), startReplica(t, primary.url)}
	urls := []string{reps[0].url, reps[1].url, reps[2].url}

	reg := obsv.NewRegistry()
	gwLog := &syncBuffer{}
	ring := NewRing(1, urls...)
	members := NewMembership(ring, urls, MembershipOptions{
		Registry:      reg,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
	})
	gw := NewGateway(members, GatewayOptions{
		Registry:        reg,
		AccessLog:       obsv.NewLogger(gwLog, obsv.LevelInfo).With("access"),
		AccessLogSample: 1,
	})
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gwURL := "http://" + gwAddr.String()

	probeCtx, stopProbes := context.WithCancel(context.Background())
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		members.Start(probeCtx)
	}()

	asns := tinyWorld(t).Graph.ASNs()
	paths := []string{"/v1/stats", "/v1/report"}
	for _, asn := range asns {
		paths = append(paths, fmt.Sprintf("/v1/as/%d/conformance", asn))
	}
	var measured, bad int64
	var firstTrace string
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		measured, bad, firstTrace = crashLoad(gwURL, paths, 8, 750)
	}()

	// Kill the third replica once it has demonstrably served traffic,
	// so the crash lands mid-run, not before or after it.
	victim := reps[2]
	deadline := time.Now().Add(10 * time.Second)
	for victim.reg.Value("serve_cache_hits_total")+victim.reg.Value("serve_cache_misses_total") < 20 {
		if time.Now().After(deadline) {
			t.Fatal("victim replica never saw traffic; ring may be misrouting")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.kill()

	// The ring must converge on the two survivors while load continues.
	converged := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if len(members.Live()) == 2 && !members.Up(victim.url) {
			converged = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !converged {
		t.Fatalf("ring did not converge on survivors: live=%v", members.Live())
	}
	if n := reg.Value("cluster_ring_transitions_total"); n < 1 {
		t.Errorf("cluster_ring_transitions_total = %d after the victim left the ring, want ≥ 1", n)
	}

	<-loadDone

	// Quiesce every writer before reading logs: stop probes, drain the
	// gateway and the surviving replicas.
	stopProbes()
	<-probesDone
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = gw.Shutdown(sctx)

	// Bounded 5xx: the crash may surface a handful of in-flight
	// failures the one-shot retry cannot mask, but never a sustained
	// error rate. 2% of the measured budget is a generous ceiling — a
	// broken retry or routing path blows far past it.
	t.Logf("%d requests through the gateway, %d 5xx or transport errors", measured, bad)
	if limit := measured / 50; bad > limit {
		t.Errorf("crash surfaced %d server/transport errors of %d measured (limit %d)",
			bad, measured, limit)
	}
	if measured < 6000 {
		t.Errorf("measured %d of 6000 budgeted requests", measured)
	}

	// Zero wrong answers, part 1: no replica ever served a snapshot
	// version disagreeing with the fleet's.
	if n := reg.Value("cluster_version_mismatch_total"); n != 0 {
		t.Errorf("version mismatches during chaos: %d", n)
	}
	// Part 2: survivors still answer byte-identically to a direct query.
	for _, path := range []string{"/v1/stats", fmt.Sprintf("/v1/as/%d/conformance", asns[1])} {
		direct, directBody := httpGet(t, reps[0].url+path, nil)
		// The gateway is shut down; ask the other survivor directly.
		sibling, siblingBody := httpGet(t, reps[1].url+path, nil)
		if direct.StatusCode != http.StatusOK || sibling.StatusCode != http.StatusOK {
			t.Fatalf("%s: survivors answered %d / %d", path, direct.StatusCode, sibling.StatusCode)
		}
		if !bytes.Equal(directBody, siblingBody) {
			t.Errorf("%s: surviving replicas disagree byte-for-byte", path)
		}
		if direct.Header.Get("ETag") != sibling.Header.Get("ETag") {
			t.Errorf("%s: surviving replicas' ETags diverged", path)
		}
	}

	// One trace ID spans the tiers: the run's first trace appears in
	// the gateway access log and in some replica's access log.
	needle := "trace=" + firstTrace
	if !strings.Contains(gwLog.String(), needle) {
		t.Errorf("first trace %s not in the gateway access log", firstTrace)
	}
	inReplica := false
	for _, rep := range reps {
		if strings.Contains(rep.log.String(), needle) {
			inReplica = true
			break
		}
	}
	if !inReplica {
		t.Errorf("first trace %s not in any replica access log", firstTrace)
	}
}

// crashLoad is the chaos test's client: workers closed-loop clients
// each send perWorker GETs through base, drawing paths from a seeded RNG
// and revalidating 30% of the paths they hold an ETag for. Every request
// carries its own traceparent. It returns how many requests were sent,
// how many answered 5xx or failed in transport, and the trace ID of
// worker 0's first request.
func crashLoad(base string, paths []string, workers, perWorker int) (measured, bad int64, firstTrace string) {
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	var sent, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(42 + int64(w)))
			etags := make(map[string]string)
			for i := 0; i < perWorker; i++ {
				tc := obsv.MakeTraceContext(rng)
				if w == 0 && i == 0 {
					firstTrace = tc.TraceIDString()
				}
				path := paths[rng.Intn(len(paths))]
				req, _ := http.NewRequest(http.MethodGet, base+path, nil) // base and paths are well-formed
				req.Header.Set("traceparent", tc.String())
				if etag, ok := etags[path]; ok && rng.Float64() < 0.3 {
					req.Header.Set("If-None-Match", etag)
				}
				sent.Add(1)
				resp, err := client.Do(req)
				if err != nil {
					failed.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					failed.Add(1)
				}
				if etag := resp.Header.Get("ETag"); etag != "" {
					etags[path] = etag
				}
			}
		}()
	}
	wg.Wait()
	return sent.Load(), failed.Load(), firstTrace
}
