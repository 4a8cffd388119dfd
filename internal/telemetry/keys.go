package telemetry

// This file is the single registry of telemetry instrument names,
// span and solver event kinds, and attribute keys. Every call site that
// names one must reference one of these constants — the telemetrykeys
// analyzer (internal/analysis/telemetrykeys, run by cmd/cntlint)
// rejects raw string literals, so singular/plural and typo drift
// between call sites, dashboards and the README/DESIGN counter tables
// cannot creep back in.
//
// Naming conventions:
//
//   - Instrument keys are dotted paths rooted at the owning layer
//     (fettoy, core, circuit, sweep).
//   - Counters that count events use the plural noun of the event:
//     "fettoy.solves", "circuit.dc.solves", "circuit.tran.retries".
//   - Event kinds describe ONE event and use the singular of the same
//     stem: the "fettoy.solve" summary event is the per-event twin of
//     the "fettoy.solves" counter. The two namespaces are disjoint
//     (Registry instruments vs Tracer.Emit kinds); declaring both here,
//     side by side, is what keeps the pairing canonical. The historic
//     "circuit.converge_fail" event kind, whose stem had drifted from
//     the "circuit.convergence_failures" counter, is reconciled to
//     KindCircuitConvergenceFailure below.
//   - Per-worker attribution keys are fmt.Sprintf patterns (suffix
//     "Fmt"); telemetrykeys accepts fmt.Sprintf(<Fmt constant>, ...)
//     where a key is expected.

// Counter keys of the reference (FETToy-equivalent) model: quadrature
// and Newton work per solve, and the charge-table build/lookup split.
const (
	// KeyFettoyIntegralEvals counts state-density integral evaluations
	// (N or N'), the cost the piecewise approximation removes.
	KeyFettoyIntegralEvals = "fettoy.integral_evals"
	// KeyFettoyQuadPoints counts quadrature integrand evaluations.
	KeyFettoyQuadPoints = "fettoy.quad_points"
	// KeyFettoyNewtonIters counts Newton iterations across VSC solves.
	KeyFettoyNewtonIters = "fettoy.newton_iters"
	// KeyFettoyBracketFailures counts VSC solves whose root bracket
	// search failed.
	KeyFettoyBracketFailures = "fettoy.bracket_failures"
	// KeyFettoySolves counts completed SolveVSC calls. Its per-event
	// trace twin is KindFettoySolve.
	KeyFettoySolves = "fettoy.solves"
	// KeyFettoyTableBuilds counts charge-table constructions.
	KeyFettoyTableBuilds = "fettoy.table.builds"
	// KeyFettoyTableNodes accumulates adaptive grid sizes over builds.
	KeyFettoyTableNodes = "fettoy.table.nodes"
	// KeyFettoyTableHits counts interpolated table lookups.
	KeyFettoyTableHits = "fettoy.table.hits"
	// KeyFettoyTableMisses counts lookups that fell back to direct
	// quadrature (out of tabulated range, or a failed table solve).
	KeyFettoyTableMisses = "fettoy.table.misses"
)

// Timer and histogram keys of the reference model.
const (
	// KeyFettoySolveTime times SolveVSC (behind the telemetry gate).
	KeyFettoySolveTime = "fettoy.solve_time"
	// KeyFettoySolveIters buckets Newton iterations per solve.
	KeyFettoySolveIters = "fettoy.solve_iters"
)

// Counter keys of the piecewise closed-form solver: which root formula
// the bracketed region required.
const (
	KeyCoreSolves            = "core.solves"
	KeyCoreDispatchNone      = "core.dispatch.none"
	KeyCoreDispatchLinear    = "core.dispatch.linear"
	KeyCoreDispatchQuadratic = "core.dispatch.quadratic"
	KeyCoreDispatchCardano   = "core.dispatch.cardano"
	KeyCoreDispatchTrig      = "core.dispatch.trig"
)

// Counter and histogram keys of the MNA circuit engine.
const (
	KeyCircuitDCSolves            = "circuit.dc.solves"
	KeyCircuitDCNewtonIters       = "circuit.dc.newton_iters"
	KeyCircuitDCGminSteps         = "circuit.dc.gmin_steps"
	KeyCircuitLUSolves            = "circuit.lu_solves"
	KeyCircuitConvergenceFailures = "circuit.convergence_failures"
	KeyCircuitTranSteps           = "circuit.tran.steps"
	KeyCircuitTranNewtonIters     = "circuit.tran.newton_iters"
	KeyCircuitTranRetries         = "circuit.tran.retries"
	KeyCircuitACSolves            = "circuit.ac.solves"
	KeyCircuitNewtonItersPerSolve = "circuit.newton_iters_per_solve"
)

// Counter keys of the sweep schedulers. The worker-attribution pair
// are Sprintf patterns taking the worker index.
const (
	KeySweepPoints          = "sweep.points"
	KeySweepErrors          = "sweep.errors"
	KeySweepWorkerPointsFmt = "sweep.worker.%d.points"
	KeySweepWorkerTimeFmt   = "sweep.worker.%d.time"
)

// Counter keys of the sweep-service front-end (internal/server +
// cmd/cntserve). Requests/errors/canceled/saturated partition the
// HTTP outcomes; the cache pair splits model resolution between reuse
// of an already-built model and a fresh build.
const (
	// PrefixServer begins every sweep-service front-end counter key.
	PrefixServer = "server."
	// KeyServerRequests counts accepted job requests (after routing,
	// before admission control).
	KeyServerRequests = "server.requests"
	// KeyServerErrors counts job requests answered with an error
	// status other than cancellation (400/422/429/5xx).
	KeyServerErrors = "server.errors"
	// KeyServerCanceled counts jobs aborted by client disconnect or
	// the per-request deadline (HTTP 499).
	KeyServerCanceled = "server.canceled"
	// KeyServerSaturated counts requests shed with 429 because every
	// concurrency slot was busy.
	KeyServerSaturated = "server.saturated"
	// KeyServerCacheHits counts job requests served by an
	// already-built model from the keyed cache.
	KeyServerCacheHits = "server.cache.hits"
	// KeyServerCacheMisses counts model-cache misses that paid a model
	// build (reference construction, charge-table attach, or a
	// piecewise fit).
	KeyServerCacheMisses = "server.cache.misses"
	// KeyServerCacheEvictions counts built models the model cache
	// dropped to stay within its cap on distinct keys.
	KeyServerCacheEvictions = "server.cache.evictions"
	// KeyServerStreamRequests counts jobs answered as chunked NDJSON
	// streams (the stream request field or an x-ndjson Accept header).
	KeyServerStreamRequests = "server.stream.requests"
	// KeyServerStreamRows counts result rows flushed to streaming
	// clients (sweep rows and Monte Carlo checkpoints alike).
	KeyServerStreamRows = "server.stream.rows"
	// KeyServerCoalesceHits counts job requests that joined another
	// request's in-flight identical job instead of running their own.
	KeyServerCoalesceHits = "server.coalesce.hits"
	// KeyServerCoalesceMisses counts coalescable job requests that
	// found no identical job in flight and became the leader of one.
	KeyServerCoalesceMisses = "server.coalesce.misses"
)

// Counter and gauge keys of the cluster router (internal/cluster +
// cmd/cntshard): how jobs route across the rendezvous-hashed replica
// ring, and per-replica health as active probes see it.
const (
	// PrefixCluster begins every cluster-router counter and gauge key.
	PrefixCluster = "cluster."
	// KeyClusterRouteLocalHit counts jobs served by their home replica —
	// the first replica in the key's rendezvous order.
	KeyClusterRouteLocalHit = "cluster.route.local_hit"
	// KeyClusterRouteFailover counts jobs served by a fallback replica
	// because the home replica was down or kept failing.
	KeyClusterRouteFailover = "cluster.route.failover"
	// KeyClusterRouteRetries counts individual failed proxy attempts
	// that moved on to the next replica in hash order (connect errors,
	// 5xx and 429 responses).
	KeyClusterRouteRetries = "cluster.route.retries"
	// KeyClusterRouteErrors counts jobs the router could not serve from
	// any replica (answered 502).
	KeyClusterRouteErrors = "cluster.route.errors"
	// KeyClusterProbes counts active health probes sent to replicas.
	KeyClusterProbes = "cluster.probes"
	// KeyClusterReplicaHealthyFmt is the per-replica health gauge
	// pattern (1 = in rotation, 0 = out), taking the replica index.
	KeyClusterReplicaHealthyFmt = "cluster.replica.%d.healthy"
)

// Counter and histogram keys of the engine job layer. The jobs
// counter and the duration histogram are recorded once per engine.Run,
// so the Prometheus exposition carries job-rate and job-latency series
// without per-front-end instrumentation.
const (
	// KeyEngineJobs counts engine.Run invocations (all kinds, success
	// and failure).
	KeyEngineJobs = "engine.jobs"
	// KeyEngineJobSeconds buckets per-job wall-clock duration in
	// seconds (LatencyBuckets).
	KeyEngineJobSeconds = "engine.job_seconds"
)

// Histogram key of the HTTP front-end request latency (seconds,
// LatencyBuckets), observed once per request by the server's
// observability middleware.
const KeyServerRequestSeconds = "server.request_seconds"

// Span kinds (Tracer.StartSpan). Like event kinds, spans describe ONE
// operation and use singular stems; the tree they form — request →
// job → chunk/row → table build — is the request-scoped view of the
// same work the plural counters aggregate process-wide.
const (
	// SpanServerRequest covers one HTTP request end to end (minted by
	// the server middleware; the root of a request's trace).
	SpanServerRequest = "server.request"
	// SpanServerModelBuild covers one model-cache miss: reference
	// construction plus charge-table attach, or a piecewise fit.
	SpanServerModelBuild = "server.model_build"
	// SpanServerStream covers the response-writing half of one
	// streamed job: first row to last flush, with the row count.
	SpanServerStream = "server.stream"
	// SpanEngineJob covers one engine.Run job; its Metrics carry the
	// job's telemetry counter deltas.
	SpanEngineJob = "engine.job"
	// SpanSweepChunk covers one scheduled chunk of a family sweep (one
	// worker, one run of neighbouring VDS points; a whole row at one
	// worker).
	SpanSweepChunk = "sweep.chunk"
	// SpanFettoyTableBuild covers one adaptive charge-table build.
	SpanFettoyTableBuild = "fettoy.table_build"
)

// Structured-log field names: the trace-correlation envelope shared by
// span records, the access log and the job log.
const (
	// FieldTrace is the request's trace ID — the join key between the
	// access log, the job log and /debug/trace spans.
	FieldTrace = "trace"
	// FieldSpan and FieldParent are the span's own and parent IDs.
	FieldSpan   = "span"
	FieldParent = "parent"
	// FieldKind is the span kind of a span record.
	FieldKind = "kind"
	// FieldDurNS is a duration in integer nanoseconds.
	FieldDurNS = "dur_ns"
)

// Span attribute and structured-log field names carrying request
// payload facts: what was asked for and what it cost.
const (
	// AttrJobKind is the engine job kind ("family-sweep", ...).
	AttrJobKind = "job_kind"
	// AttrMethod, AttrPath and AttrStatus describe one HTTP exchange.
	AttrMethod = "method"
	AttrPath   = "path"
	AttrStatus = "status"
	// AttrModelKey names the resolved model: family/preset/T/EF.
	AttrModelKey = "model_key"
	// AttrCacheHit reports whether the model cache served the request
	// without a build.
	AttrCacheHit = "cache_hit"
	// AttrStream reports whether the response was a chunked NDJSON
	// stream.
	AttrStream = "stream"
	// AttrCoalesced reports whether the job's result came from a
	// shared in-flight run instead of a run of its own.
	AttrCoalesced = "coalesced"
	// AttrRows counts result rows flushed by a streamed response.
	AttrRows = "rows"
	// AttrGates and AttrDrains are the sweep grid dimensions.
	AttrGates  = "gates"
	AttrDrains = "drains"
	// AttrPoints counts bias points a span evaluated.
	AttrPoints = "points"
	// AttrWorker is the parallel-sweep worker index of a chunk span.
	AttrWorker = "worker"
	// AttrVG is the gate voltage of a sweep row/chunk span, in volts.
	AttrVG = "vg"
	// AttrNewtonIters counts Newton iterations attributed to a span.
	AttrNewtonIters = "newton_iters"
	// AttrTableNodes is the adaptive grid size of a table-build span.
	AttrTableNodes = "table_nodes"
	// AttrTableUMin and AttrTableUMax bound a table-build span's
	// tabulated u window, in eV.
	AttrTableUMin = "table_umin"
	AttrTableUMax = "table_umax"
	// AttrError carries a span's failure message.
	AttrError = "error"
)

// Structured-log event names (Logger.Log).
const (
	// LogEventAccess is one access-log record: method, path, status,
	// duration, trace ID. Written once per HTTP request.
	LogEventAccess = "access"
	// LogEventJob is one job-log record: job kind, status, duration,
	// Newton iterations, cache hit, trace ID. Written once per
	// /v1/jobs request that reached the engine.
	LogEventJob = "job"
	// LogEventSpan is one completed span, flattened (see spanFields).
	LogEventSpan = "span"
)

// Solver event kinds (Tracer.Emit). Kinds are singular: one event per
// occurrence; see the naming conventions above for how they pair with
// the plural counters.
const (
	// KindFettoyNewton is one Newton iteration of a VSC solve.
	KindFettoyNewton = "fettoy.newton"
	// KindFettoySolve is the per-solve summary event (the trace twin of
	// the KeyFettoySolves counter).
	KindFettoySolve = "fettoy.solve"
	// KindCircuitDCSolve is one converged DC Newton solve.
	KindCircuitDCSolve = "circuit.dc.solve"
	// KindCircuitDCSweepPoint is one accepted DC sweep point.
	KindCircuitDCSweepPoint = "circuit.dc.sweep_point"
	// KindCircuitConvergenceFailure is one Newton convergence failure
	// (the trace twin of KeyCircuitConvergenceFailures; this kind was
	// "circuit.converge_fail" before the keys were centralised).
	KindCircuitConvergenceFailure = "circuit.convergence_failure"
	// KindCircuitTranStep is one accepted transient step.
	KindCircuitTranStep = "circuit.tran.step"
	// KindCircuitTranRetry is one rejected-and-halved transient step.
	KindCircuitTranRetry = "circuit.tran.retry"
	// KindCircuitACPoint is one solved AC frequency point.
	KindCircuitACPoint = "circuit.ac.point"
)

// Solver event attribute names (Tracer.Emit), next to AttrVG.
const (
	// AttrT is a circuit event's simulation time: the transient time
	// in seconds, the swept source value of a DC sweep point, or the
	// frequency in hertz of an AC point. Reference-model events have
	// none.
	AttrT = "t"
	// AttrIter is the 1-based index of one Newton iteration; AttrIters
	// counts the iterations a solve took.
	AttrIter  = "iter"
	AttrIters = "iters"
	// AttrFuncEvals counts residual evaluations of a VSC solve.
	AttrFuncEvals = "fevals"
	// AttrV is a Newton iterate (the candidate VSC, in volts) and
	// AttrResidual the eq. (7) residual there, in volts.
	AttrV        = "v"
	AttrResidual = "residual"
	// AttrVD, AttrVS and AttrVSC are the drain, source and solved
	// self-consistent voltages of a solve, in volts.
	AttrVD  = "vd"
	AttrVS  = "vs"
	AttrVSC = "vsc"
	// AttrDT is a transient step size, in seconds.
	AttrDT = "dt"
	// AttrGmin is the shunt conductance of a DC solve, in siemens.
	AttrGmin = "gmin"
	// AttrWorstDV is the largest Newton update of a circuit solve, in
	// volts (or amperes for a branch unknown).
	AttrWorstDV = "worst_dv"
	// AttrLTE is the local truncation error estimate of an adaptive
	// transient step, in the unknowns' units.
	AttrLTE = "lte"
)
