package serve

// Focused resilience tests pinning individual failure behaviors: the
// drain readiness contract (/readyz vs /healthz), the batcher's
// queue-age admission check, and single-site fault injection through
// the HTTP surface. The chaos suite (chaos_test.go) composes these
// behaviors under randomized storms; these tests pin each one in
// isolation so a regression names the exact broken mechanism.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rpm"
	"rpm/internal/faults"
)

// TestDrainReadyzVsHealthz pins the drain readiness contract: the
// moment BeginDrain is called — long before the process exits —
// /readyz flips to 503 so load balancers stop routing here, while
// /healthz stays 200 because the process is alive and finishing its
// queued work. Killing liveness during a drain would get a draining
// pod restarted mid-drain, the exact opposite of graceful.
func TestDrainReadyzVsHealthz(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, buf[:n]
	}
	if status, body := get("/readyz"); status != http.StatusOK {
		t.Fatalf("pre-drain /readyz = %d: %s", status, body)
	}
	if status, body := get("/healthz"); status != http.StatusOK {
		t.Fatalf("pre-drain /healthz = %d: %s", status, body)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	status, body := get("/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503: %s", status, body)
	}
	if code := errCode(t, status, body); code != "draining" {
		t.Fatalf("draining /readyz code = %q, want draining", code)
	}
	if status, body := get("/healthz"); status != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness must survive the drain): %s", status, body)
	}
	// The serving endpoints reject immediately too.
	resp, rbody := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, resp.StatusCode, rbody) != "draining" {
		t.Fatalf("draining /v1/predict = %d %s, want 503 draining", resp.StatusCode, rbody)
	}
}

// TestFlushShedsExpiredQueuedRequest pins the queue-age admission check
// at the batcher layer: a request whose context expired while queued is
// answered with its context error and EXCLUDED from the PredictBatch
// call. The expired request targets a nonexistent model — if the flush
// consulted the store before shedding, the answer would be "unknown
// model", so getting the context error proves the shed happens first
// (the request is never looked up, never computed).
func TestFlushShedsExpiredQueuedRequest(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()
	expired := &predRequest{model: "ghost", values: fixProbe[0].Values, ctx: expiredCtx,
		out: make(chan predResponse, 1)}
	live := &predRequest{model: "cbf", values: fixProbe[1].Values, ctx: context.Background(),
		out: make(chan predResponse, 1)}
	s.batcher.flush([]*predRequest{expired, live})

	res := <-expired.out
	if res.err != context.Canceled {
		t.Fatalf("expired request answered %v, want its context error (it must be shed before the store lookup)", res.err)
	}
	lres := <-live.out
	if lres.err != nil {
		t.Fatalf("live batch-mate failed: %v", lres.err)
	}
	if want := fixClf1.Predict(fixProbe[1].Values); lres.label != want {
		t.Fatalf("live batch-mate label %d != direct Predict %d", lres.label, want)
	}
	if n := s.reg.Snapshot().Counter(CtrExpired); n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
}

// TestFlushShedsAllExpiredGroup: a group left with no live requests
// skips the model lookup and the predict entirely.
func TestFlushShedsAllExpiredGroup(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]*predRequest, 3)
	for i := range reqs {
		reqs[i] = &predRequest{model: "ghost", values: fixProbe[i].Values, ctx: expiredCtx,
			out: make(chan predResponse, 1)}
	}
	batchesBefore := s.reg.Snapshot().Counter(CtrBatches)
	s.batcher.flush(reqs)
	for i, r := range reqs {
		if res := <-r.out; res.err != context.Canceled {
			t.Fatalf("expired request %d answered %v, want context.Canceled", i, res.err)
		}
	}
	snap := s.reg.Snapshot()
	if n := snap.Counter(CtrExpired); n != 3 {
		t.Fatalf("expired counter = %d, want 3", n)
	}
	// The flush itself is still accounted, but nothing was computed for a
	// model that does not exist — no error escaped to any caller.
	if got := snap.Counter(CtrBatches); got != batchesBefore+1 {
		t.Fatalf("batches counter = %d, want %d", got, batchesBefore+1)
	}
}

// TestDeadlineFaultAnswers504 drives the deadline-exhaustion site
// end-to-end: the first request's context is killed before it is
// enqueued (n=1 caps the blast), so the handler answers 504
// deadline_exceeded and the flush's queue-age check counts the shed;
// the very next request serves normally.
func TestDeadlineFaultAnswers504(t *testing.T) {
	inj, err := faults.New(7, "server.deadline:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("faulted request = %d %s, want 504", resp.StatusCode, body)
	}
	if code := errCode(t, resp.StatusCode, body); code != "deadline_exceeded" {
		t.Fatalf("faulted request code = %q, want deadline_exceeded", code)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request = %d %s, want 200", resp.StatusCode, body)
	}
	// The dead request rode the queue and was shed at flush time, never
	// computed (asynchronous to the handler's own 504 answer).
	waitFor(t, func() bool { return s.reg.Snapshot().Counter(CtrExpired) == 1 })
}

// TestEnqueueFaultSheds429: injected queue saturation is answered
// exactly like the real thing — 429, "overloaded" envelope, and a
// Retry-After hint for well-behaved clients.
func TestEnqueueFaultSheds429(t *testing.T) {
	inj, err := faults.New(7, "batcher.enqueue:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("faulted request = %d %s, want 429", resp.StatusCode, body)
	}
	if code := errCode(t, resp.StatusCode, body); code != "overloaded" {
		t.Fatalf("faulted request code = %q, want overloaded", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request = %d %s, want 200", resp.StatusCode, body)
	}
}

// TestStoreLoadFaultKeepsOldModel: an injected model-load I/O failure
// during reload must leave the previous version serving (skip=1 exempts
// the initial load). The follow-up reload then picks up the new bytes.
func TestStoreLoadFaultKeepsOldModel(t *testing.T) {
	inj, err := faults.New(7, "store.load:skip=1:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, dir := newTestServer(t, func(c *Config) { c.Faults = inj })
	writeModel(t, dir, "cbf", model2)
	rep, err := s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.KeptOld) != 1 || len(rep.Loaded) != 0 {
		t.Fatalf("faulted reload: keptOld=%d loaded=%d, want 1/0", len(rep.KeptOld), len(rep.Loaded))
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after faulted reload = %d %s", resp.StatusCode, body)
	}
	// v1 (model1) must still be the one answering.
	checkIdentity(t, body, map[int]*rpm.Classifier{1: fixClf1}, fixProbe[0].Values)
	// The fault budget (n=1) is spent: the next reload loads model2.
	rep, err = s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 1 {
		t.Fatalf("post-fault reload: loaded=%d, want 1", len(rep.Loaded))
	}
	m, err := s.store.Get("cbf")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Fatalf("post-fault version = %d, want 2", m.Version)
	}
}

// TestWriteFaultAbortsConnection: an injected response-write failure
// aborts the connection (client sees a transport error) instead of
// sending a truncated or wrong 200 — and must not surface as a 500
// through the panic guard.
func TestWriteFaultAbortsConnection(t *testing.T) {
	inj, err := faults.New(7, "server.write:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	_, _, perr := rawPredict(ts, predictBody("cbf", fixProbe[0].Values))
	if perr == nil {
		t.Fatal("faulted write delivered a response; want an aborted connection")
	}
	status, body, perr := rawPredict(ts, predictBody("cbf", fixProbe[0].Values))
	if perr != nil || status != http.StatusOK {
		t.Fatalf("post-fault request: status %d err %v (%s)", status, perr, body)
	}
	if n := s.reg.Snapshot().Counter(CtrErrPrefix + "internal"); n != 0 {
		t.Fatalf("write abort surfaced as %d internal errors", n)
	}
}

// TestEveryFaultSiteFires keeps internal/faults and the serving layer in
// step: for every site faults.KnownSites declares, it arms that site
// alone (p=1), drives the request that should consult it, and requires a
// new Events() entry for it. A site whose consult was deleted from the
// serving path fails here, and so does a new site nobody wired a
// scenario for.
func TestEveryFaultSiteFires(t *testing.T) {
	predict := func(t *testing.T, _ *Server, ts *httptest.Server) {
		rawPredict(ts, predictBody("cbf", fixProbe[0].Values))
	}
	// openFeed appends series to a fresh stream, then opens and drops its
	// SSE feed: the handler replays the stream's events and flushes once.
	openFeed := func(t *testing.T, ts *httptest.Server, series []float64) {
		resp, body := postJSON(t, ts.URL+"/v1/streams/probe", streamBody("cbf", series))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d: %s", resp.StatusCode, body)
		}
		if feed, err := ts.Client().Get(ts.URL + "/v1/streams/probe/events"); err == nil {
			feed.Body.Close()
		}
	}
	scenarios := map[faults.Site]func(t *testing.T, s *Server, ts *httptest.Server){
		faults.SiteEnqueueFull: predict,
		faults.SiteFlushDelay:  predict,
		faults.SiteDeadline:    predict,
		faults.SiteWriteFail:   predict,
		faults.SiteStoreLoad: func(t *testing.T, s *Server, _ *httptest.Server) {
			if _, err := s.Reload(); err != nil {
				t.Fatal(err)
			}
		},
		faults.SiteStreamAppend: func(t *testing.T, _ *Server, ts *httptest.Server) {
			postJSON(t, ts.URL+"/v1/streams/probe", streamBody("cbf", fixProbe[0].Values))
		},
		faults.SiteSSEFlush: func(t *testing.T, _ *Server, ts *httptest.Server) {
			openFeed(t, ts, fixProbe[0].Values)
		},
		faults.SiteSSEWrite: func(t *testing.T, _ *Server, ts *httptest.Server) {
			// The write site is consulted per replayed event, so the
			// stream needs at least one committed event.
			series, _ := eventfulSeries(t, fixClf1, Config{StreamConfirm: 1}, 1)
			openFeed(t, ts, series)
		},
	}
	for _, site := range faults.KnownSites() {
		drive, ok := scenarios[site]
		if !ok {
			t.Errorf("fault site %s has no scenario: add the request that consults it", site)
			continue
		}
		t.Run(site.String(), func(t *testing.T) {
			inj, err := faults.New(7, site.String())
			if err != nil {
				t.Fatal(err)
			}
			s, ts, _ := newTestServer(t, func(c *Config) {
				c.Faults = inj
				c.StreamConfirm = 1
			})
			fired := func() (n int) {
				for _, ev := range inj.Events() {
					if ev.Site == site.String() {
						n++
					}
				}
				return n
			}
			before := fired()
			drive(t, s, ts)
			for deadline := time.Now().Add(5 * time.Second); fired() == before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never fired: the serving path that should consult it no longer does", site)
				}
			}
		})
	}
}
