package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"manrsmeter/internal/loadgen"
)

// request is one generated query: a path and whether the client should
// revalidate with If-None-Match when it holds an ETag for the path.
type request struct {
	path       string
	revalidate bool
}

// A stream is one client's endless, deterministic request sequence.
type stream func() request

// hotKeys bounds the zipf ranks mixStream draws: 1500 ASes and 1500
// prefixes plus the three fixed URLs stay under manrsd's 4096-entry
// response cache, so after warm-up nearly every request is a cache hit.
// Over all ≈9.4k ASes the zipf(1.2) tail alone misses ≈8% of the time,
// and the workload would no longer isolate the hit path.
const hotKeys = 1500

// mixStream is loadgen's traffic shape — loadgen.DefaultMix route
// weights, zipf(1.2) popularity over the hottest ASes and prefix ranks,
// 25% revalidation — as a per-client seeded stream, so the same seed
// replays the same requests against any target.
func mixStream(seed int64, client int, asns []uint32) stream {
	rng := rand.New(rand.NewSource(seed + int64(client)*7919))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(min(len(asns), hotKeys)-1))
	m := loadgen.DefaultMix
	total := m.AS + m.Prefix + m.Stats + m.Report + m.Scenario
	return func() request {
		req := request{revalidate: rng.Float64() < 0.25}
		switch n := rng.Intn(total); {
		case n < m.AS:
			req.path = fmt.Sprintf("/v1/as/%d/conformance", asns[zipf.Uint64()])
		case n < m.AS+m.Prefix:
			rank := zipf.Uint64()
			req.path = fmt.Sprintf("/v1/prefix/10.%d.%d.0/24", rank/200%200, rank%200)
		case n < m.AS+m.Prefix+m.Stats:
			req.path = "/v1/stats"
		case n < m.AS+m.Prefix+m.Stats+m.Report:
			req.path = "/v1/report"
		default:
			req.path = "/v1/scenario"
		}
		return req
	}
}

// scanStream walks paths (already shuffled by seed) from the client's
// own offset in steps of the client count, so no path repeats before
// every path was asked once.
func scanStream(paths []string, client, clients int) stream {
	i := client
	return func() request {
		p := paths[i%len(paths)]
		i += clients
		return request{path: p}
	}
}

// sample is one measured request: when it completed, in seconds since
// the loop began, and how long it took, in seconds.
type sample struct{ done, lat float64 }

// loadClient is one connection's worth of state: its stream, the ETags
// it remembers, and what it measured.
type loadClient struct {
	http   *http.Client
	next   stream
	etags  map[string]string
	body   bytes.Buffer
	failed int
	// verify judges a response; nil accepts any 200 or 304.
	verify func(resp *http.Response, body []byte) bool
}

func newClients(n int, streams func(client int) stream, verify func(*http.Response, []byte) bool) []*loadClient {
	// One transport for all clients, one keep-alive connection each.
	tr := &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	out := make([]*loadClient, n)
	for i := range out {
		out[i] = &loadClient{http: &http.Client{Transport: tr, Timeout: 15 * time.Second},
			next: streams(i), etags: make(map[string]string), verify: verify}
	}
	return out
}

// do issues the client's next request against base and returns when it
// was sent and how long the answer took. A refused, timed out or wrong
// answer counts as failed.
func (c *loadClient) do(ctx context.Context, base string) (time.Time, time.Duration) {
	r := c.next()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+r.path, nil)
	if err != nil {
		c.failed++
		return time.Now(), 0
	}
	if etag, ok := c.etags[r.path]; ok && r.revalidate {
		req.Header.Set("If-None-Match", etag)
	}
	begin := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.failed++
		}
		return begin, time.Since(begin)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(begin)
	ok := err == nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified)
	if ok && c.verify != nil {
		ok = c.verify(resp, c.body.Bytes())
	}
	if !ok {
		c.failed++
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.etags[r.path] = etag
	}
	return begin, lat
}

// loadResult is one loop's measurements.
type loadResult struct {
	samples []sample
	// seconds is the loop's length; late the open loop's sends, in
	// seconds behind schedule.
	seconds float64
	late    []float64
	failed  int
}

// latencies returns the loop's latencies in seconds, ascending.
func (lr loadResult) latencies() []float64 {
	lats := make([]float64, len(lr.samples))
	for i, s := range lr.samples {
		lats[i] = s.lat
	}
	sort.Float64s(lats)
	return lats
}

func takeFailed(clients []*loadClient) int {
	n := 0
	for _, c := range clients {
		n += c.failed
		c.failed = 0
	}
	return n
}

// closedLoop has every client issue its next request as soon as the
// previous answer landed: for dur when requests is 0, else requests per
// client. With a tracer, each request is also recorded as a span.
func closedLoop(ctx context.Context, clients []*loadClient, base string, dur time.Duration, requests int, tr *tracer, parent int) loadResult {
	start := time.Now()
	perClient := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			var begins []time.Time
			var lats []time.Duration
			for n := 0; ctx.Err() == nil; n++ {
				if requests > 0 && n >= requests || requests == 0 && time.Since(start) >= dur {
					break
				}
				begin, lat := c.do(ctx, base)
				perClient[i] = append(perClient[i], sample{done: begin.Add(lat).Sub(start).Seconds(), lat: lat.Seconds()})
				if tr != nil {
					begins, lats = append(begins, begin), append(lats, lat)
				}
			}
			tr.addBatch("request", parent, begins, lats)
		}(i, c)
	}
	wg.Wait()
	res := loadResult{seconds: time.Since(start).Seconds(), failed: takeFailed(clients)}
	for _, s := range perClient {
		res.samples = append(res.samples, s...)
	}
	return res
}

// openLoop sends Poisson arrivals at rate per second for dur, whatever
// the answers do: latency counts from the scheduled arrival, so time a
// request waited for a free client is charged to it, and late records
// how far behind schedule each send was.
func openLoop(ctx context.Context, clients []*loadClient, base string, rate float64, dur time.Duration, seed int64) loadResult {
	pace := rand.New(rand.NewSource(seed))
	// Room for a quarter second of arrivals: the scheduler never blocks
	// on a slow server, and an overloaded step leaves a bounded backlog
	// to drain. Arrivals beyond it are dropped, and show as lost goodput.
	arrivals := make(chan time.Time, int(rate/4)+1)
	start := time.Now()
	var wg sync.WaitGroup
	perClient := make([][]sample, len(clients))
	lates := make([][]float64, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			for due := range arrivals {
				begin, lat := c.do(ctx, base)
				perClient[i] = append(perClient[i], sample{done: begin.Add(lat).Sub(start).Seconds(), lat: begin.Add(lat).Sub(due).Seconds()})
				lates[i] = append(lates[i], begin.Sub(due).Seconds())
			}
		}(i, c)
	}
	next := start
	for ctx.Err() == nil {
		next = next.Add(time.Duration(pace.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(next))
		select {
		case arrivals <- next:
		default:
		}
	}
	close(arrivals)
	wg.Wait()
	res := loadResult{seconds: dur.Seconds(), failed: takeFailed(clients)}
	for i := range clients {
		res.samples = append(res.samples, perClient[i]...)
		res.late = append(res.late, lates[i]...)
	}
	return res
}
