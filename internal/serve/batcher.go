package serve

import (
	"context"
	"sync"
	"time"

	"rpm"
	"rpm/internal/faults"
	"rpm/internal/obs"
)

// predRequest is one single-prediction request queued into the batcher.
type predRequest struct {
	model  string
	values []float64
	// ctx is the request's deadline-bearing context. The flush consults
	// it at admission time: a request whose context already expired is
	// shed with its context error (→ 504) instead of being computed for
	// a caller that stopped listening (the queue-age admission check).
	ctx context.Context
	// enqueued is stamped by enqueue; the flush measures the request's
	// queue wait (serve.phase.queue_wait) from it.
	enqueued time.Time
	// out is buffered (capacity 1) so a flush never blocks on a caller
	// that gave up waiting (deadline, disconnect).
	out chan predResponse
}

type predResponse struct {
	label int
	model *Model
	err   error
}

// batcher is the work-conserving micro-batcher: single-prediction
// requests queue into a bounded channel, and one goroutine (loop) turns
// them into PredictBatch calls. An idle batcher blocks for the first
// request, takes whatever else is already queued (up to maxBatch)
// without waiting, and flushes at once. Requests that arrive during a
// flush queue up and form the next batch, so batches fill under load
// and per-request transform overhead amortizes across the worker pool
// inside PredictBatchContext, while a lone request never waits for
// batch-mates that are not coming.
//
// Flushes resolve the model from the store at flush time, so a hot
// reload redirects the very next flush to the new model without
// dropping anything queued.
type batcher struct {
	store    *Store
	maxBatch int
	faults   *faults.Injector

	queue    chan *predRequest
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}

	batches   *obs.Counter
	items     *obs.Counter
	expired   *obs.Counter
	injected  *obs.Counter
	depth     *obs.Gauge
	pool      *obs.Pool
	queueWait *obs.Summary
	compute   *obs.Summary

	// scratch pools the per-flush assembly state (the rpm.Dataset rows
	// handed to PredictBatch) so steady-state flushes reuse one backing
	// slice instead of allocating a fresh dataset per flush. scratchNew
	// counts pool misses — flushes minus misses is the achieved reuse.
	scratch    sync.Pool
	scratchNew *obs.Counter

	// flushGate, when non-nil, turns every flush into a two-phase
	// handshake: flush sends its batch (announcing it has begun and is
	// stalled) then receives one value (the release). It exists solely
	// for tests that need a deterministically stalled batcher or want to
	// see how batches form (queue-full shedding, reload-during-flight,
	// batch formation); it is nil in production and costs one nil check
	// per flush. The announced slice is valid until the release.
	flushGate chan []*predRequest
}

// flushScratch is the reusable per-flush assembly state: the dataset
// passed to PredictBatch (and the filtered request list of the rare
// expired-shedding path) grows to the steady-state batch size once and
// is then recycled flush after flush.
type flushScratch struct {
	ds   rpm.Dataset
	reqs []*predRequest
}

func newBatcher(store *Store, maxBatch, queueSize int, reg *obs.Registry, inj *faults.Injector) *batcher {
	b := &batcher{
		store:      store,
		maxBatch:   maxBatch,
		faults:     inj,
		queue:      make(chan *predRequest, queueSize),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		batches:    reg.Counter(CtrBatches),
		items:      reg.Counter(CtrBatchItems),
		expired:    reg.Counter(CtrExpired),
		injected:   reg.Counter(CtrFaultsInjected),
		depth:      reg.Gauge(GaugeQueueDepth),
		pool:       reg.Pool(PoolBatch),
		queueWait:  reg.Summary(SumPhaseQueueWait),
		compute:    reg.Summary(SumPhaseCompute),
		scratchNew: reg.Counter(CtrFlushScratchNew),
	}
	b.scratch.New = func() any {
		b.scratchNew.Inc()
		return &flushScratch{ds: make(rpm.Dataset, 0, maxBatch)}
	}
	return b
}

// start launches the batch-assembly goroutine.
func (b *batcher) start() { go b.loop() }

// enqueue offers a request to the queue without blocking. A false return
// means the queue is full — the caller sheds the request with 429.
// faults.SiteEnqueueFull simulates a saturated queue.
func (b *batcher) enqueue(r *predRequest) bool {
	if b.faults.Fire(faults.SiteEnqueueFull) {
		b.injected.Inc()
		return false
	}
	r.enqueued = time.Now()
	select {
	case b.queue <- r:
		b.depth.Set(int64(len(b.queue)))
		return true
	default:
		return false
	}
}

// loop assembles and flushes batches until quit, then keeps assembling
// until the queue is empty, so graceful shutdown never strands a queued
// request: everything still queued is flushed in arrival order, in
// groups of at most maxBatch. One batch slice serves every iteration and
// is cleared after each flush, so an idle batcher pins no request.
func (b *batcher) loop() {
	defer close(b.done)
	batch := make([]*predRequest, 0, b.maxBatch)
	for {
		batch = b.assemble(batch[:0])
		if len(batch) == 0 {
			return // quit, and the queue is empty
		}
		b.flush(batch)
		clear(batch)
	}
}

// assemble builds the next batch in batch, which must be empty with
// capacity maxBatch, so assembly never allocates. It blocks until a
// request is queued or quit is closed, then takes whatever else is
// already queued, without waiting, until the batch holds maxBatch
// requests or the queue is empty. An empty result means quit is closed
// and nothing is queued.
//
//rpmlint:hotpath batch assembly: fills the loop's reused batch slice in place
func (b *batcher) assemble(batch []*predRequest) []*predRequest {
	select {
	case r := <-b.queue:
		batch = batch[:1]
		batch[0] = r
	case <-b.quit:
	}
take:
	for n := len(batch); n < b.maxBatch; n++ {
		select {
		case r := <-b.queue:
			batch = batch[:n+1]
			batch[n] = r
		default:
			break take
		}
	}
	b.depth.Set(int64(len(b.queue)))
	return batch
}

// stop signals the loop to drain and waits for it (or ctx). Safe to
// call more than once (Server.Close is idempotent).
func (b *batcher) stop(ctx context.Context) error {
	b.quitOnce.Do(func() { close(b.quit) })
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flush classifies one assembled batch. Requests are grouped by model
// name (one PredictBatch call per distinct model, resolved from the
// store at flush time so reloads take effect immediately); each group's
// labels are distributed back to the waiting handlers. The typical
// single-model deployment always produces exactly one PredictBatch call.
//
//rpmlint:hotpath PR6 serving flush: steady-state flush is allocation-free
func (b *batcher) flush(batch []*predRequest) {
	if b.flushGate != nil {
		b.flushGate <- batch // announce: stalled at the gate
		<-b.flushGate        // wait for release
	}
	// Injected flush stall / latency spike (faults.SiteFlushDelay):
	// sleeps before any model work, so queued requests age exactly as
	// they would behind a genuinely slow flush.
	//rpmlint:ignore hotpathalloc fault injection: disabled injectors return 0 with no allocation; armed runs are chaos tests
	if d := b.faults.Sleep(faults.SiteFlushDelay); d > 0 {
		b.injected.Inc()
	}
	start := time.Now()
	sc := b.scratch.Get().(*flushScratch) //rpmlint:ignore hotpathalloc pooled flush scratch: Pool.Get runs New only until the pool warms
	if sameModel(batch) {
		// The typical single-model deployment: no grouping state at all.
		b.flushGroup(batch[0].model, batch, sc)
	} else {
		//rpmlint:ignore hotpathalloc multi-model grouping is the accepted allocating slow path; single-model deployments never enter it
		b.flushMulti(batch, sc)
	}
	delivered := time.Now() // every request of the batch has its answer
	// Drop the request value references before pooling so an idle batcher
	// does not pin the last batch's series.
	clear(sc.ds[:cap(sc.ds)])
	sc.ds = sc.ds[:0]
	clear(sc.reqs[:cap(sc.reqs)])
	sc.reqs = sc.reqs[:0]
	b.scratch.Put(sc)
	dur := delivered.Sub(start)
	for _, r := range batch {
		b.queueWait.Observe(start.Sub(r.enqueued))
		b.compute.Observe(dur)
	}
	b.batches.Inc()
	b.items.Add(int64(len(batch)))
	b.pool.WorkerTask(0, dur)
	b.pool.RunDone(1, dur)
}

// flushMulti is the mixed-model slow path: group by model, preserving
// arrival order within groups, then run the groups sequentially so they
// share the one pooled dataset. It allocates (map + order slice) and is
// deliberately outside the hot-path proof — a deployment serving one
// model per batcher never reaches it.
func (b *batcher) flushMulti(batch []*predRequest, sc *flushScratch) {
	groups := map[string][]*predRequest{}
	var order []string
	for _, r := range batch {
		if _, ok := groups[r.model]; !ok {
			order = append(order, r.model)
		}
		groups[r.model] = append(groups[r.model], r)
	}
	for _, name := range order {
		b.flushGroup(name, groups[name], sc)
	}
}

// sameModel reports whether every request of the batch targets one model.
func sameModel(batch []*predRequest) bool {
	for _, r := range batch[1:] {
		if r.model != batch[0].model {
			return false
		}
	}
	return true
}

// flushGroup classifies one same-model group of the batch through the
// pooled dataset and distributes labels (or the shared error) back to
// the waiting handlers.
//
// Queue-age admission check: a request whose context expired while it
// sat in the queue is answered with its context error (the handler maps
// it to 504) and excluded from the PredictBatchContext call — it is
// shed before the store lookup, never computed and discarded. A group
// left with no live requests skips the model entirely.
func (b *batcher) flushGroup(name string, group []*predRequest, sc *flushScratch) {
	// Fast path: no expired request means no filtering and no copy.
	live := group
	for i, r := range group {
		if r.ctx != nil && r.ctx.Err() != nil {
			live = b.shedExpired(group, i, sc)
			break
		}
	}
	if len(live) == 0 {
		return
	}
	//rpmlint:ignore hotpathalloc model resolution: the happy path is an atomic load + map read; only error paths build their typed error
	m, err := b.store.Get(name)
	if err != nil {
		for _, r := range live {
			r.out <- predResponse{err: err}
		}
		return
	}
	ds := sc.ds[:0]
	for _, r := range live {
		ds = append(ds, rpm.Instance{Values: r.values}) //rpmlint:ignore hotpathalloc growth bounded by max batch size; pooled scratch keeps the backing array
	}
	sc.ds = ds
	//rpmlint:ignore hotpathalloc classifier batch call returns a fresh labels slice by contract (2 allocs/op, bench-gated); its inner kernel applyInto carries its own hotpath proof
	labels, err := m.clf.PredictBatchContext(context.Background(), ds)
	if err != nil {
		for _, r := range live {
			r.out <- predResponse{err: err}
		}
		return
	}
	for i, r := range live {
		r.out <- predResponse{label: labels[i], model: m}
	}
}

// shedExpired answers every expired request of group from firstExpired
// onward with its context error and returns the surviving requests,
// assembled in sc.reqs (valid until the next group of the same flush
// reuses it — groups run sequentially, and live is consumed before
// flushGroup returns the next time around).
func (b *batcher) shedExpired(group []*predRequest, firstExpired int, sc *flushScratch) []*predRequest {
	live := append(sc.reqs[:0], group[:firstExpired]...)
	for _, r := range group[firstExpired:] {
		if r.ctx != nil && r.ctx.Err() != nil {
			b.expired.Inc()
			r.out <- predResponse{err: r.ctx.Err()}
			continue
		}
		live = append(live, r) //rpmlint:ignore hotpathalloc growth bounded by group size; pooled scratch keeps the backing array
	}
	sc.reqs = live
	return live
}
