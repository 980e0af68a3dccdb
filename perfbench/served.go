package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpm"
	"rpm/internal/obs"
	"rpm/internal/serve"
	"rpm/internal/stream"
)

// The serve_mixed schedule. Predicts and stream appends run together,
// open loop, each class on its own connection, through two rungs:
//
//   - base: fixed rates for half the budget, about a third of what one
//     connection sustains on the 2-vCPU host the benchmark was built on
//     (predict ~270/s, append ~1800/s); it gives the p50 metrics and
//     is checked against the p99 limits.
//   - saturate: rates no connection can keep up with, for a third of the
//     budget and cut off at its end; each class's achieved rate is the
//     max_rps metric, the capacity of one connection beside the other
//     class's full load.
//
// The max rates are capacities rather than the highest fixed rate that
// meets a p99 limit: on that host a single stall of tens of
// milliseconds put a whole rung over its limit, so pass or fail followed
// the host, not the server. The limits lie well above the stalls seen at
// the base rung (up to ~30 ms), so that rung misses one only when a
// queue builds up.
const (
	basePredict, baseAppend = 100.0, 600.0
	baseShare               = 0.5
	satPredict, satAppend   = 20000.0, 50000.0
	satShare                = 1.0 / 3

	predictLimit = 100 * time.Millisecond // p99 limit on /v1/predict
	appendLimit  = 50 * time.Millisecond  // p99 limit on stream appends
	servedSet    = "SynCinCECG"
)

// traced wraps the server's handler with a span per request, parented to
// the client span named in the request headers.
type traced struct {
	h  http.Handler
	tr *Tracer
	on atomic.Bool
}

const (
	hdrSpan  = "X-Perfbench-Span"
	hdrTrace = "X-Perfbench-Trace"
)

func (t *traced) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, req)
		return
	}
	parent, _ := strconv.Atoi(req.Header.Get(hdrSpan))
	trace, _ := strconv.ParseInt(req.Header.Get(hdrTrace), 10, 64)
	name := "serve.handler.predict"
	if strings.HasPrefix(req.URL.Path, "/v1/streams/") {
		name = "serve.handler.append"
	}
	start := time.Now()
	t.h.ServeHTTP(w, req)
	t.tr.Record(name, parent, trace, start, time.Now())
}

// liveServer is the serve HTTP server on a loopback port.
type liveServer struct {
	srv   *serve.Server
	http  *http.Server
	url   string
	wrap  *traced // nil in untraced runs
	ended chan error
}

func startServer(dir string, tr *Tracer) (*liveServer, error) {
	srv, err := serve.New(serve.Config{ModelDir: dir}) // rpmserved's defaults
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), ended: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if tr != nil {
		ls.wrap = &traced{h: h, tr: tr}
		h = ls.wrap
	}
	ls.http = &http.Server{Handler: h}
	go func() { ls.ended <- ls.http.Serve(ln) }()
	return ls, nil
}

func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.srv.BeginDrain()
	err := ls.http.Shutdown(ctx)
	if cerr := ls.srv.Close(ctx); err == nil {
		err = cerr
	}
	if serr := <-ls.ended; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// conn is one HTTP/1.1 connection's client.
type conn struct {
	t *http.Transport
	c *http.Client
}

func newConn() *conn {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{t: t, c: &http.Client{Transport: t, Timeout: 30 * time.Second}}
}

// post sends one request and returns the reply body. Under a tracer it
// records a client span and names it in the request headers so the
// server's handler span becomes its child.
func (c *conn) post(url string, body []byte, tr *Tracer, span string, trace int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.Open(span, 0, trace)
	if id != 0 {
		req.Header.Set(hdrSpan, strconv.Itoa(id))
		req.Header.Set(hdrTrace, strconv.FormatInt(trace, 10))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.Close(id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// traffic is the served workload's pre-encoded requests, their expected
// outcomes, and what the server replied. Predict g sends test series g
// mod the set's size; append g goes to stream g mod appendStreams with
// that stream's next chunk, cycling through its signal. Replies are kept
// decoded and small, so the client's memory hardly grows with the
// server's throughput. Each class's fields are written only by its own
// connection's loop.
type traffic struct {
	predBodies [][]byte
	predWant   []int
	chunks     [][][]float64 // per stream
	appBodies  [][][]byte

	predOK    []bool // predict g got a reply
	predLabel []int
	appendOK  []bool                 // append g got a reply
	appendEv  map[int][]stream.Event // the events of the appends that had any
}

func newTraffic(clf *rpm.Classifier, test rpm.Dataset, seed int64) (*traffic, error) {
	tf := &traffic{appendEv: map[int][]stream.Event{}}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(test)) {
		b, err := json.Marshal(map[string]any{"values": test[i].Values})
		if err != nil {
			return nil, err
		}
		tf.predBodies = append(tf.predBodies, b)
		tf.predWant = append(tf.predWant, clf.Predict(test[i].Values))
	}
	tf.chunks = streamChunks(test, seed, appendStreams)
	tf.appBodies = make([][][]byte, appendStreams)
	for s, cs := range tf.chunks {
		for _, c := range cs {
			b, err := json.Marshal(map[string]any{"values": c})
			if err != nil {
				return nil, err
			}
			tf.appBodies[s] = append(tf.appBodies[s], b)
		}
	}
	return tf, nil
}

// appendAt returns append g's stream and chunk index.
func (tf *traffic) appendAt(g int) (s, c int) {
	s = g % appendStreams
	return s, (g / appendStreams) % len(tf.chunks[s])
}

func streamURL(base string, s int) string { return fmt.Sprintf("%s/v1/streams/bench-%d", base, s) }

// rung runs one step of the schedule: both classes open loop from a
// common start. pBase and aBase are the global indices of the rung's
// first requests. A saturating rung sends nothing after its end; any
// other lets each class run on until its limit past the end, after
// which the rung has failed anyway.
func (tf *traffic) rung(ls *liveServer, pc, ac *conn, tr *Tracer, pRate, aRate float64, dur time.Duration, saturate bool, pBase, aBase int) (RungStats, RungStats) {
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(dur)
	pCut, aCut := end.Add(predictLimit), end.Add(appendLimit)
	if saturate {
		pCut, aCut = end, end
	}
	var ps, as []Shot
	var pUnsent, aUnsent int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ps, pUnsent = OpenLoop(start, pRate, dur, pCut, func(i int) error {
			g := pBase + i
			b, err := pc.post(ls.url+"/v1/predict", tf.predBodies[g%len(tf.predBodies)], tr, "net.client.predict", int64(2*g))
			return tf.gotPredict(g, b, err)
		})
	}()
	go func() {
		defer wg.Done()
		as, aUnsent = OpenLoop(start, aRate, dur, aCut, func(i int) error {
			g := aBase + i
			s, c := tf.appendAt(g)
			b, err := ac.post(streamURL(ls.url, s), tf.appBodies[s][c], tr, "net.client.append", int64(2*g+1))
			return tf.gotAppend(g, b, err)
		})
	}()
	wg.Wait()
	return Summarize(pRate, ps, pUnsent), Summarize(aRate, as, aUnsent)
}

// gotPredict keeps predict g's served label. A request without a
// usable reply is an error: it counts as failed in its rung, and check
// finds no reply.
func (tf *traffic) gotPredict(g int, b []byte, err error) error {
	tf.predOK, tf.predLabel = grow(tf.predOK, g), grow(tf.predLabel, g)
	var resp struct{ Label int }
	if err == nil {
		err = json.Unmarshal(b, &resp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: predict %d: %v\n", g, err)
		return err
	}
	tf.predOK[g], tf.predLabel[g] = true, resp.Label
	return nil
}

// gotAppend keeps append g's new events.
func (tf *traffic) gotAppend(g int, b []byte, err error) error {
	tf.appendOK = grow(tf.appendOK, g)
	var resp struct{ NewEvents []stream.Event }
	if err == nil {
		err = json.Unmarshal(b, &resp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: append %d: %v\n", g, err)
		return err
	}
	tf.appendOK[g] = true
	if len(resp.NewEvents) > 0 {
		tf.appendEv[g] = resp.NewEvents
	}
	return nil
}

// grow extends s with zero values until index i exists.
func grow[T any](s []T, i int) []T {
	for len(s) <= i {
		var zero T
		s = append(s, zero)
	}
	return s
}

// check compares every served label with in-process Predict and every
// stream's served events with an in-process Detector replay of the same
// chunks. Every mismatch or missing reply counts as a failed check.
func (tf *traffic) check(r *Run, sm *stream.Model, predicts, appends int) {
	tf.predOK, tf.appendOK = grow(tf.predOK, predicts-1), grow(tf.appendOK, appends-1)
	for g := range predicts {
		want := tf.predWant[g%len(tf.predWant)]
		switch {
		case !tf.predOK[g]:
			r.Fail("predict %d: no reply", g)
		case tf.predLabel[g] != want:
			r.Fail("predict %d: served label %d, in-process Predict says %d", g, tf.predLabel[g], want)
		}
	}
	for s := range appendStreams {
		det := sm.NewDetector(streamConfig)
		var want, got []stream.Event
		for g := s; g < appends; g += appendStreams {
			_, c := tf.appendAt(g)
			want = append(want, det.Append(tf.chunks[s][c])...)
			if !tf.appendOK[g] {
				r.Fail("append %d: no reply", g)
				continue
			}
			got = append(got, tf.appendEv[g]...)
		}
		if !slices.Equal(got, want) {
			r.Fail("stream %d: %d served events differ from %d replayed in process", s, len(got), len(want))
		}
	}
}

// serveFixture is the set-up state of serve_mixed.
type serveFixture struct {
	split rpm.Split
	clf   *rpm.Classifier
	dir   string
	live  *liveServer
}

func serveOptions() rpm.Options {
	o := suiteOptions()
	o.Workers = nproc()
	return o
}

// setupServer writes the model snapshot, starts the server on loopback
// and warms it with a few predicts and appends.
func (fx *serveFixture) setupServer(tr *Tracer) error {
	if err := os.MkdirAll(fx.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := fx.clf.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(fx.dir, "cincecg.json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	ls, err := startServer(fx.dir, tr)
	if err != nil {
		return err
	}
	fx.live = ls
	c := newConn()
	defer c.t.CloseIdleConnections()
	for i := range 20 {
		b, _ := json.Marshal(map[string]any{"values": fx.split.Test[i%len(fx.split.Test)].Values})
		if _, err := c.post(ls.url+"/v1/predict", b, nil, "", 0); err != nil {
			return fmt.Errorf("warm-up predict: %w", err)
		}
	}
	for i := range 4 {
		b, _ := json.Marshal(map[string]any{"values": fx.split.Test[i].Values[:appendChunk]})
		if _, err := c.post(ls.url+"/v1/streams/warmup", b, nil, "", 0); err != nil {
			return fmt.Errorf("warm-up append: %w", err)
		}
	}
	return nil
}

func runServeMixed(r *Run) error {
	fx := &serveFixture{dir: filepath.Join(buildDir, "serve-model")}
	fx.split = rpm.GenerateDataset(servedSet, dataSeed)
	o := serveOptions()
	o.Instrument = r.Traced()
	t0 := time.Now()
	clf, err := rpm.Train(fx.split.Train, o)
	if err != nil {
		return fmt.Errorf("training the served model: %w", err)
	}
	r.Set("train_s", time.Since(t0).Seconds())
	fx.clf = clf
	checkModel(r, "exhaustive", servedSet, clf, fx.split.Test, o.Workers)
	r.Attempt(1)

	d, err := timeSetup(func() error {
		if fx.live != nil {
			if err := fx.live.stop(); err != nil {
				return err
			}
		}
		fx.split = rpm.GenerateDataset(servedSet, dataSeed)
		return fx.setupServer(r.Tracer)
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := fx.live.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping the server: %v\n", err)
		}
	}()
	r.Set("setup_s", d.Seconds())
	if r.Traced() {
		return traceServe(r, fx)
	}

	tf, err := newTraffic(clf, fx.split.Test, r.Seed)
	if err != nil {
		return err
	}
	sm, err := streamModel(clf)
	if err != nil {
		return err
	}
	// peak_rss_mb is the serving peak: training's is left behind.
	if err := resetPeakRSS(); err != nil {
		return err
	}

	// Batch classify in process is measured in blocks of a twentieth of
	// the budget, before the first rung and after each: host speed
	// drifts over tens of seconds, and blocks spread over the whole run
	// average over more of it.
	cp := &classifyProbe{models: []model{clf}, splits: []rpm.Split{fx.split}, want: [][]int{clf.PredictBatch(fx.split.Test)}}
	classify := func() {
		for start := time.Now(); time.Since(start) < r.Budget/20; {
			cp.step(r)
		}
	}
	classify()

	pc, ac := newConn(), newConn()
	defer pc.t.CloseIdleConnections()
	defer ac.t.CloseIdleConnections()
	if nproc() < 2 {
		ac = pc // at most nproc connections
	}
	pBase, aBase := 0, 0
	run := func(name string, pRate, aRate, share float64, saturate bool) (RungStats, RungStats) {
		p, a := tf.rung(fx.live, pc, ac, nil, pRate, aRate, time.Duration(share*float64(r.Budget)), saturate, pBase, aBase)
		pBase += p.Sent
		aBase += a.Sent
		logRung(r, name, "predict", p, predictLimit)
		logRung(r, name, "append", a, appendLimit)
		r.Logf("%s generator lag: predict %s; append %s", name, p.Lag.Describe("ms"), a.Lag.Describe("ms"))
		classify()
		return p, a
	}
	bp, ba := run("base", basePredict, baseAppend, baseShare, false)
	sp, sa := run("saturate", satPredict, satAppend, satShare, true)
	r.Attempt(pBase + aBase)
	tf.check(r, sm, pBase, aBase)
	cp.report(r)
	r.Set("predict_p50_ms", bp.Latency.Quantile(0.5))
	r.Set("predict_max_rps", sp.Achieved)
	r.Set("append_p50_ms", ba.Latency.Quantile(0.5))
	r.Set("append_max_rps", sa.Achieved)
	logServerCounters(r, fx.live.srv.Obs().Snapshot())
	return nil
}

func logRung(r *Run, name, class string, st RungStats, limit time.Duration) {
	r.Logf("%s %-7s %7.1f/s: sent %d unsent %d failed %d achieved %.1f/s %s end-lateness %s meets %v=%v",
		name, class, st.Target, st.Sent, st.Unsent, st.Failed, st.Achieved, st.Latency.Describe("ms"),
		st.EndLateness.Round(time.Microsecond), limit, st.Meets(limit))
}

// serverCounters reads the server's own batching and error counters.
func serverCounters(s *obs.Snapshot) (itemsPerFlush float64, shed, expired, errs int64) {
	if b := s.Counter(serve.CtrBatches); b > 0 {
		itemsPerFlush = float64(s.Counter(serve.CtrBatchItems)) / float64(b)
	}
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, serve.CtrErrPrefix) {
			errs += c.Value
		}
	}
	return itemsPerFlush, s.Counter(serve.CtrShed), s.Counter(serve.CtrExpired), errs
}

func logServerCounters(r *Run, s *obs.Snapshot) {
	items, shed, expired, errs := serverCounters(s)
	r.Logf("server: %.3f items/flush, shed %d, expired %d, errors %d", items, shed, expired, errs)
}

// traceServe is the traced run of serve_mixed: the base rung untraced
// (overhead reference) and traced, then in-process replays of the same
// request bodies through the handler and the layers under it.
func traceServe(r *Run, fx *serveFixture) error {
	tr := r.Tracer
	var sums reportSums
	sums.add(fx.clf.TrainReport())
	sums.set(r)
	var layers layerSums
	root := tr.Open("bench.replay", 0, 0)
	replayLayers(tr, root, 0, fx.clf, fx.split, &layers)
	tr.Close(root)
	layers.set(r)

	dur := time.Duration(baseShare / 2 * float64(r.Budget))
	tf, err := newTraffic(fx.clf, fx.split.Test, r.Seed)
	if err != nil {
		return err
	}
	pc, ac := newConn(), newConn()
	defer pc.t.CloseIdleConnections()
	defer ac.t.CloseIdleConnections()
	if nproc() < 2 {
		ac = pc
	}
	plain, plainA := tf.rung(fx.live, pc, ac, nil, basePredict, baseAppend, dur, false, 0, 0)
	fx.live.wrap.on.Store(true)
	p, a := tf.rung(fx.live, pc, ac, tr, basePredict, baseAppend, dur, false, plain.Sent, plainA.Sent)
	fx.live.wrap.on.Store(false)
	r.Attempt(plain.Sent + plainA.Sent + p.Sent + a.Sent)
	sm, err := streamModel(fx.clf)
	if err != nil {
		return err
	}
	tf.check(r, sm, plain.Sent+p.Sent, plainA.Sent+a.Sent)
	r.Logf("traced rung predict: %s; untraced: %s", p.Latency.Describe("ms"), plain.Latency.Describe("ms"))
	over := p.Latency.Quantile(0.5)/plain.Latency.Quantile(0.5) - 1
	r.Set("trace.overhead_ratio", over)
	r.Logf("tracing overhead: predict p50 %+.1f%% traced vs untraced", 100*over)
	// Both generators' lags together, so the p99 rests on ten samples.
	lag := NewDist(slices.Concat(p.Lag.sorted, a.Lag.sorted))
	r.Set("gen.lag_p99_ms", lag.Quantile(0.99))
	r.Logf("generator lag: %s", lag.Describe("ms"))
	r.Set("net.client_self_us", DurDist(SpanSelf(tr.Spans(), "net.client.predict"), time.Microsecond).Quantile(0.5))

	items, shed, expired, errs := serverCounters(fx.live.srv.Obs().Snapshot())
	r.Set("serve.batch_items_per_flush", items)
	r.Set("serve.shed", float64(shed))
	r.Set("serve.flush.expired", float64(expired))
	r.Set("serve.errors", float64(errs))
	return replayServe(r, fx, tf)
}

// replayServe times the handler in process on the same request bodies:
// at the served configuration, with MaxBatch 1 (no batch wait), and the
// model and detector calls underneath, so each part's self time is a
// difference of medians.
func replayServe(r *Run, fx *serveFixture, tf *traffic) error {
	tr := r.Tracer
	unbatched, err := serve.New(serve.Config{ModelDir: fx.dir, MaxBatch: 1})
	if err != nil {
		return err
	}
	defer unbatched.Close(context.Background())
	call := func(h http.Handler, span, path string, body []byte, trace int64) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		d := tr.Time(span, 0, trace, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return d, nil
	}
	const n = 300
	var batched, single, model []time.Duration
	for i := range n {
		body := tf.predBodies[i%len(tf.predBodies)]
		var req struct{ Values []float64 }
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		d1, err := call(fx.live.srv.Handler(), "serve.replay.predict", "/v1/predict", body, int64(i))
		if err != nil {
			return err
		}
		d2, err := call(unbatched.Handler(), "serve.replay.predict_unbatched", "/v1/predict", body, int64(i))
		if err != nil {
			return err
		}
		var label int
		d3 := tr.Time("rpm.predict", 0, int64(i), func() { label, err = fx.clf.PredictChecked(req.Values) })
		if err != nil || label != tf.predWant[i%len(tf.predWant)] {
			r.Fail("replayed PredictChecked: label %d, error %v", label, err)
		}
		batched, single, model = append(batched, d1), append(single, d2), append(model, d3)
	}
	us := func(ds []time.Duration) float64 { return DurDist(ds, time.Microsecond).Quantile(0.5) }
	r.Set("rpm.predict_us", us(model))
	r.Set("serve.predict_handler_self_us", us(single)-us(model))
	r.Set("serve.batch_wait_us", us(batched)-us(single))

	sm, err := streamModel(fx.clf)
	if err != nil {
		return err
	}
	det := sm.NewDetector(streamConfig)
	var handler, detector []time.Duration
	var samples int
	var detTotal time.Duration
	for c := range n {
		body, chunk := tf.appBodies[0][c%len(tf.chunks[0])], tf.chunks[0][c%len(tf.chunks[0])]
		d1, err := call(unbatched.Handler(), "serve.replay.append", "/v1/streams/replay", body, int64(c))
		if err != nil {
			return err
		}
		d2 := tr.Time("stream.append", 0, int64(c), func() { det.Append(chunk) })
		handler, detector = append(handler, d1), append(detector, d2)
		samples += len(chunk)
		detTotal += d2
	}
	r.Set("serve.append_handler_self_us", us(handler)-us(detector))
	r.Set("stream.append_ns_per_sample", float64(detTotal.Nanoseconds())/float64(samples))
	r.Attempt(2*n + 2*len(handler))
	return nil
}
