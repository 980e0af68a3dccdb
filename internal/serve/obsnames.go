package serve

// Canonical observability names the serving layer records into its
// obs.Registry, exported so cmd/rpmserved and the tests read the
// snapshot without string drift (the same convention internal/core uses
// for the training pipeline).
//
//   - CtrRequests / CtrRequestsPredict / CtrRequestsBatch count accepted
//     HTTP requests (total and per endpoint).
//   - CtrBatches counts micro-batch flushes — the number of underlying
//     PredictBatch calls the batcher issued. CtrBatchItems counts the
//     requests those flushes carried, so CtrBatchItems / CtrBatches is
//     the achieved batch amortization factor.
//   - CtrShed counts requests rejected with 429 because the batch queue
//     was full (load shedding).
//   - CtrErrPrefix+<code> counts error responses by envelope code
//     (bad_input, too_short, not_found, corrupt_model, …).
//   - CtrReloads counts reload passes; CtrReloadRejected counts files
//     that failed to load during them (corrupt snapshots).
//   - SumLatencyPredict / SumLatencyBatch are per-endpoint latency
//     summaries (count, mean, approximate p50/p90/p99, max).
//   - SumPhaseQueueWait / SumPhaseCompute split each batched predict
//     into its time in the batch queue (enqueue to flush start) and its
//     time in the flush (flush start to label delivered). Both count one
//     observation per batched request, so each count equals
//     CtrBatchItems.
//   - PoolBatch accounts the batcher as a one-worker pool: tasks are
//     flushes, busy time is time spent inside PredictBatch.
//   - SpanServe is the root span (its wall is server uptime); per-
//     endpoint aggregate child spans fold in request handling time.
const (
	CtrRequests        = "serve.requests"
	CtrRequestsPredict = "serve.requests.predict"
	CtrRequestsBatch   = "serve.requests.batch"
	CtrBatches         = "serve.batches"
	CtrBatchItems      = "serve.batches.items"
	CtrShed            = "serve.shed"
	CtrReloads         = "serve.reloads"
	CtrReloadRejected  = "serve.reloads.rejected"
	CtrErrPrefix       = "serve.errors."
	// CtrFlushScratchNew counts flush-scratch pool misses (fresh dataset
	// allocations); CtrBatches minus this is the achieved buffer reuse.
	CtrFlushScratchNew = "serve.flush.scratch.new"
	// CtrExpired counts requests shed by the flush's queue-age admission
	// check: their context expired while queued, so they were answered
	// 504 and excluded from the PredictBatch call (never computed).
	CtrExpired = "serve.flush.expired"
	// CtrFaultsInjected counts faults the chaos injector actually fired
	// across every site (0 in production, where the injector is nil).
	CtrFaultsInjected = "serve.faults.injected"

	// Streaming counters: CtrRequestsStream counts accepted stream
	// appends, CtrStreamSamples the samples those appends carried,
	// CtrStreamEvents the committed class-change events, and
	// CtrStreamsCreated / CtrStreamsClosed the stream lifecycle (their
	// difference is GaugeStreams).
	CtrRequestsStream = "serve.requests.stream"
	CtrStreamSamples  = "serve.stream.samples"
	CtrStreamEvents   = "serve.stream.events"
	CtrStreamsCreated = "serve.streams.created"
	CtrStreamsClosed  = "serve.streams.closed"

	GaugeModels     = "serve.models"
	GaugeQueueDepth = "serve.queue.depth"
	// GaugeStreams is the number of live streams; GaugeStreamBytes their
	// summed fixed detector footprint (the per-stream memory budget,
	// DESIGN.md §14).
	GaugeStreams     = "serve.streams"
	GaugeStreamBytes = "serve.streams.bytes"

	PoolBatch = "serve.pool.batch"

	SumLatencyPredict = "serve.latency.predict"
	SumLatencyBatch   = "serve.latency.predict_batch"
	// SumLatencyStream is the per-append latency summary of the
	// streaming path.
	SumLatencyStream = "serve.latency.stream_append"

	SumPhaseQueueWait = "serve.phase.queue_wait"
	SumPhaseCompute   = "serve.phase.compute"

	SpanServe        = "serve"
	SpanPredict      = "predict"
	SpanPredictBatch = "predict_batch"
	SpanReload       = "reload"
	SpanStream       = "stream_append"
)
