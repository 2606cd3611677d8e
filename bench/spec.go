package main

import "fmt"

// The declarations below are the benchmark's contract: BENCHMARK.json
// repeats them (bench_test.go keeps the two equal) and report() refuses
// to print a run whose metrics differ from them.

type workloadSpec struct {
	Name, Why string
}

type metricSpec struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// On lists the workloads whose path crosses a layer metric's layer;
	// on every other workload the metric is printed as 0. Empty means
	// every workload. Moves names the end-to-end metric it should move.
	On    []string
	Moves string
}

const (
	wTopology = "build.topology"
	wWeekly   = "build.weekly"
	wDirect   = "query.direct"
	wGateway  = "query.gateway"
	wScan     = "query.scan"
)

var (
	onBuild = []string{wTopology, wWeekly}
	onQuery = []string{wDirect, wGateway, wScan}
	onHot   = []string{wDirect, wGateway}
)

var workloads = []workloadSpec{
	{wTopology, "One cold snapshot build, 1 worker, 4.8k-AS arena world: propagation and hegemony in ihr.BuildCtx dominate and rpki is small, so flood and vantage-point levers show and rpki changes do not."},
	{wWeekly, "4 weekly cold builds, nproc workers, registry-dense 1.8k-AS world: the serial relying party run is over half the work, so rpki, serial-fraction and cross-date reuse changes show."},
	{wDirect, "Closed loop, nproc keep-alive clients, zipf mix with 25% revalidation against one manrsd: hot set fits the response cache, so admission, cache hit, 304 and the HTTP stack show."},
	{wGateway, "The query.direct request stream, closed loop, nproc clients, through manrs-gw over 2 replicas: gateway minus direct is the cluster hop; serve-only changes move both equally."},
	{wScan, "Closed loop, nproc clients, every AS and originated prefix once in seeded order against one manrsd, no revalidation: all cache misses, so handler compute, encode and eviction show."},
}

var endToEnd = []metricSpec{
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricSpec{
	{Name: "build.alloc_mb", Unit: "MB", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "build.warm_start_s", Unit: "s", Better: "lower", On: onBuild, Moves: "setup_s"},
	{Name: "rpki.validate_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "rpki.roas_per_s", Unit: "1/s", Better: "higher", On: onBuild, Moves: "op_ms"},
	{Name: "rov.index_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "irr.index_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "rov.validate_ns", Unit: "ns", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "ihr.build_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "ihr.prefix_origins", Unit: "count", Better: "higher", On: onBuild, Moves: "op_ms"},
	{Name: "ihr.transits", Unit: "count", Better: "higher", On: onBuild, Moves: "op_ms"},
	{Name: "astopo.flood_us", Unit: "us", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "astopo.flood_filtered_us", Unit: "us", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "astopo.flood_alloc_kb", Unit: "KB", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "hegemony.score_us", Unit: "us", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "ihr.par_speedup", Unit: "ratio", Better: "higher", On: onBuild, Moves: "op_ms"},
	{Name: "build.serial_fraction", Unit: "ratio", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "manrs.metrics_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "core.restore_s", Unit: "s", Better: "lower", On: onBuild, Moves: "setup_s"},
	{Name: "durable.encode_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "durable.encoded_mb", Unit: "MB", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "durable.save_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},
	{Name: "durable.load_s", Unit: "s", Better: "lower", On: onBuild, Moves: "setup_s"},
	{Name: "serve.unattributed_s", Unit: "s", Better: "lower", On: onBuild, Moves: "op_ms"},

	{Name: "query.p99_us", Unit: "us", Better: "lower", On: onQuery, Moves: "op_ms"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower", On: onHot, Moves: "op_ms"},
	{Name: "serve.handler_304_us", Unit: "us", Better: "lower", On: onHot, Moves: "op_ms"},
	{Name: "serve.handler_miss_us", Unit: "us", Better: "lower", On: []string{wScan}, Moves: "op_ms"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower", On: onQuery, Moves: "ops_per_s"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", On: onQuery, Moves: "ops_per_s"},
	{Name: "serve.shed", Unit: "count", Better: "lower", On: onQuery, Moves: "ops_per_s"},
	{Name: "net.floor_us", Unit: "us", Better: "lower", On: onHot, Moves: "op_ms"},
	{Name: "cluster.ring_ns", Unit: "ns", Better: "lower", On: []string{wGateway}, Moves: "op_ms"},
	{Name: "cluster.gw_self_us", Unit: "us", Better: "lower", On: []string{wGateway}, Moves: "op_ms"},
	{Name: "cluster.hop_us", Unit: "us", Better: "lower", On: []string{wGateway}, Moves: "op_ms"},
	{Name: "cluster.retries", Unit: "count", Better: "lower", On: []string{wGateway}, Moves: "ops_per_s"},
	{Name: "cluster.shed", Unit: "count", Better: "lower", On: []string{wGateway}, Moves: "ops_per_s"},
	{Name: "obsv.telemetry_cost_ratio", Unit: "ratio", Better: "higher", On: []string{wGateway}, Moves: "ops_per_s"},
	{Name: "loadgen.late_us", Unit: "us", Better: "lower", On: []string{wDirect}},
	{Name: "loadgen.knee_qps", Unit: "1/s", Better: "higher", On: []string{wDirect}},
	{Name: "loadgen.goodput_past_knee", Unit: "ratio", Better: "higher", On: []string{wDirect}},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSpec) on(workload string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// declared maps the values a run measured onto specs, the declared
// metric set of its mode: every declared metric appears, a layer metric
// off the workload's path as 0. A value the declarations do not expect,
// or a missing one they do, is an error in the harness, not a result.
func declared(workload string, specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, measured := values[m.Name]
		if measured != m.on(workload) {
			return nil, fmt.Errorf("metric %s on %s: measured=%v, declared on its path=%v", m.Name, workload, measured, m.on(workload))
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured on %s but not declared", name, workload)
		}
	}
	return out, nil
}
