// runtime.go is the Go-runtime collector: goroutine count, heap and GC
// state, GOMAXPROCS, and a GC-pause quantile summary, refreshed lazily
// at scrape time through the registry's OnScrape hook so an idle daemon
// pays nothing. Every daemon that serves an admin endpoint gets these
// series for free — a latency quantile is only interpretable next to
// the GC pauses and heap pressure of the process that served it.

package obsv

import (
	"runtime"
	"sync"
)

// runtimeEnabled guards one collector per registry: EnableRuntimeMetrics
// is called from every Admin.Handler construction and must be idempotent.
var (
	runtimeMu      sync.Mutex
	runtimeEnabled = make(map[*Registry]bool)
)

// EnableRuntimeMetrics registers the runtime series on r (nil means the
// Default registry) and hooks their refresh into scrape time. Calling
// it again for the same registry is a no-op.
//
// Series: runtime_goroutines, runtime_heap_alloc_bytes,
// runtime_heap_sys_bytes, runtime_heap_objects, runtime_gomaxprocs,
// runtime_gc_cycles, and the runtime_gc_pause_seconds summary
// (p50/p90/p99/p999 over the runtime's recent-pause ring).
func EnableRuntimeMetrics(r *Registry) {
	if r == nil {
		r = Default()
	}
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	if runtimeEnabled[r] {
		return
	}
	runtimeEnabled[r] = true

	c := &runtimeCollector{
		goroutines: r.Gauge("runtime_goroutines", "live goroutines"),
		heapAlloc:  r.Gauge("runtime_heap_alloc_bytes", "bytes of allocated heap objects"),
		heapSys:    r.Gauge("runtime_heap_sys_bytes", "heap memory obtained from the OS"),
		heapObjs:   r.Gauge("runtime_heap_objects", "live heap objects"),
		maxprocs:   r.Gauge("runtime_gomaxprocs", "GOMAXPROCS"),
		gcRuns:     r.Gauge("runtime_gc_cycles", "completed GC cycles"),
		gcPause:    r.Summary("runtime_gc_pause_seconds", "stop-the-world GC pause quantiles"),
	}
	r.OnScrape(c.collect)
}

type runtimeCollector struct {
	mu         sync.Mutex
	lastNumGC  uint32
	goroutines *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	heapObjs   *Gauge
	maxprocs   *Gauge
	gcRuns     *Gauge
	gcPause    *QuantileHistogram
}

// collect refreshes every gauge and feeds GC pauses the summary has not
// yet seen. ReadMemStats briefly stops the world, which is why this
// runs at scrape time, not on a timer.
func (c *runtimeCollector) collect() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.goroutines.Set(float64(runtime.NumGoroutine()))
	c.heapAlloc.Set(float64(ms.HeapAlloc))
	c.heapSys.Set(float64(ms.HeapSys))
	c.heapObjs.Set(float64(ms.HeapObjects))
	c.maxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	c.gcRuns.Set(float64(ms.NumGC))

	c.mu.Lock()
	defer c.mu.Unlock()
	// PauseNs is a ring of the 256 most recent pause durations; entry
	// for cycle n lives at (n+255)%256. Feed only cycles completed since
	// the last scrape, and at most one ring's worth.
	from := c.lastNumGC
	if ms.NumGC-from > 256 {
		from = ms.NumGC - 256
	}
	for n := from; n < ms.NumGC; n++ {
		c.gcPause.Observe(float64(ms.PauseNs[(n+255)%256]) / 1e9)
	}
	c.lastNumGC = ms.NumGC
}
