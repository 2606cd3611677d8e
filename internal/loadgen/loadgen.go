// Package loadgen is the shape of the query traffic the benchmark
// (bench/, `go run ./bench`) drives at manrsd and manrs-gw: which /v1
// routes a client asks for, and how often. The driver, the zipfian
// popularity model and the ledger live in bench/.
package loadgen

// RouteMix weights the /v1 query surface.
type RouteMix struct {
	AS       int // /v1/as/{asn}/conformance — zipfian ASN
	Prefix   int // /v1/prefix/{cidr} — zipfian prefix
	Stats    int // /v1/stats
	Report   int // /v1/report (index)
	Scenario int // /v1/scenario (index)
}

// DefaultMix approximates the observed shape of conformance-API
// traffic: mostly per-AS lookups, then prefix checks, then dashboards.
var DefaultMix = RouteMix{AS: 40, Prefix: 25, Stats: 15, Report: 10, Scenario: 10}
