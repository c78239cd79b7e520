package serve

import "tiscc/internal/telemetry"

// MetricsSchema declares the estimator server's instruments, exposed at
// /metrics in the Prometheus text exposition format under the tiscc
// namespace (tiscc_serve_<name>_total, tiscc_serve_request_us_*).
var MetricsSchema = &telemetry.Schema{
	Component: "serve",
	Counters: []string{
		"requests",         // /v1/estimate requests received
		"responses_ok",     // requests answered with a final result
		"bad_requests",     // requests rejected by validation (HTTP 400)
		"errors",           // requests failed after validation (HTTP 5xx)
		"panics",           // handler panics recovered to HTTP 500
		"cache_hits",       // estimate requests served from a cached artifact
		"cache_misses",     // estimate requests that had to compile
		"cache_evictions",  // artifacts and shapes evicted by the LRU byte budget
		"compiles",         // artifact compiles (== misses minus failures)
		"shots_served",     // counted shots across all served estimates
		"artifact_bytes",   // encoded bytes currently cached (set, not added)
		"artifacts_cached", // artifacts currently cached (set, not added)
		"shape_hits",       // artifact compiles on a cached or in-flight shape
		"shape_compiles",   // shapes built: a circuit, its plans and its encoded program
	},
	Hists: []string{
		"request_us", // /v1/estimate latency, microseconds
	},
}

// Counter indices into MetricsSchema (order must match the slice above).
const (
	CtrRequests telemetry.Counter = iota
	CtrResponsesOK
	CtrBadRequests
	CtrErrors
	CtrPanics
	CtrCacheHits
	CtrCacheMisses
	CtrCacheEvictions
	CtrCompiles
	CtrShotsServed
	CtrArtifactBytes
	CtrArtifactsCached
	CtrShapeHits
	CtrShapeCompiles
)

// HistRequestUS indexes the request-latency histogram.
const HistRequestUS telemetry.HistID = 0
