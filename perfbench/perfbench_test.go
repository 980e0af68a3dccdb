package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuantilesExactOnKnownSample(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	d := NewDist(v)
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.9, 900, 100},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := d.Beyond(c.q); got != c.beyond {
			t.Errorf("Beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if !d.Supported(0.99) || d.Supported(0.999) {
		t.Errorf("p99 of 1000 samples rests on 10 samples (supported), p99.9 on 1 (not)")
	}
	small := NewDist(v[:100])
	if small.Supported(0.99) {
		t.Errorf("p99 of 100 samples reported as supported")
	}
	if !strings.Contains(small.Describe("ms"), "p99=unsupported") {
		t.Errorf("Describe shows an unsupported p99: %s", small.Describe("ms"))
	}
	if !math.IsNaN(NewDist(nil).Quantile(0.5)) {
		t.Errorf("quantile of no samples is not NaN")
	}
	// Power-of-two buckets would report one edge for all of these.
	d = NewDist([]float64{2.1, 2.5, 3.0, 3.9, 4.1})
	if d.Quantile(0.5) != 3.0 || d.Quantile(0.9) != 4.1 {
		t.Errorf("p50, p90 = %v, %v; want 3.0, 4.1", d.Quantile(0.5), d.Quantile(0.9))
	}
}

// A handler that stalls once must charge the stall to the requests
// queued behind it: they go out late, their latency counts from their
// due time, and none of that is generator lag.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate    = 1000.0 // one request due every 1ms
		stallAt = 3
		stall   = 60 * time.Millisecond
	)
	start := time.Now().Add(10 * time.Millisecond)
	dur := 1200 * time.Millisecond
	shots, unsent := OpenLoop(start, rate, dur, start.Add(dur+time.Second), func(i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if len(shots) != 1200 || unsent != 0 {
		t.Fatalf("sent %d requests, %d unsent; want 1200, 0", len(shots), unsent)
	}
	for i, s := range shots {
		if want := start.Add(time.Duration(i) * time.Millisecond); !s.Due.Equal(want) {
			t.Fatalf("request %d due %v, want %v: due times must not shift", i, s.Due.Sub(start), want.Sub(start))
		}
		if s.Latency() < s.Lateness() {
			t.Errorf("request %d: latency %v below lateness %v", i, s.Latency(), s.Lateness())
		}
	}
	// Request 4 was due 1ms after the stalled one started; it waited out
	// the remaining ~59ms.
	behind := shots[stallAt+1]
	if behind.Lateness() < stall-15*time.Millisecond {
		t.Errorf("request behind the stall went out %v late, want about %v", behind.Lateness(), stall-time.Millisecond)
	}
	if behind.Latency() < behind.Lateness() {
		t.Errorf("latency %v does not include the wait", behind.Latency())
	}
	if behind.Lag > 10*time.Millisecond {
		t.Errorf("waiting behind a slow reply counted as generator lag: %v", behind.Lag)
	}
	// The queue drains at once (the stub replies instantly), so the
	// last requests are on time again.
	if last := shots[len(shots)-1]; last.Lateness() > 10*time.Millisecond {
		t.Errorf("last request %v late after the backlog cleared", last.Lateness())
	}
	late := 0
	for _, s := range shots {
		if s.Lateness() > 20*time.Millisecond {
			late++
		}
	}
	if late < 20 {
		t.Errorf("only %d requests late by >20ms behind a %v stall", late, stall)
	}
	st := Summarize(rate, shots, unsent)
	if st.Latency.Max() < float64(stall-15*time.Millisecond)/float64(time.Millisecond) {
		t.Errorf("max latency %.1fms misses the stall", st.Latency.Max())
	}
	if !st.Latency.Supported(0.99) || st.Latency.Quantile(0.99) < 20 {
		t.Errorf("p99 %.1fms (%d beyond) misses the ~40 requests queued behind the stall",
			st.Latency.Quantile(0.99), st.Latency.Beyond(0.99))
	}
	if st.Meets(20 * time.Millisecond) {
		t.Errorf("a rung with a %v stall meets a 20ms limit", stall)
	}
	if !st.Meets(time.Second) {
		t.Errorf("rung fails a 1s limit: %+v", st)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	start := time.Now()
	shots, unsent := OpenLoop(start, 1000, 20*time.Millisecond, start.Add(time.Second), func(i int) error {
		if i%5 == 0 {
			return os.ErrDeadlineExceeded
		}
		return nil
	})
	st := Summarize(1000, shots, unsent)
	if st.Sent != 20 || st.Failed != 4 || st.Latency.N() != 16 {
		t.Errorf("sent %d failed %d timed %d, want 20 4 16", st.Sent, st.Failed, st.Latency.N())
	}
	if st.Meets(time.Hour) {
		t.Errorf("a rung with failures meets the limit")
	}
}

// A schedule faster than the handler leaves requests unsent at the
// cutoff; the achieved rate is the handler's, and the rung fails.
func TestOpenLoopCutoffMeasuresCapacity(t *testing.T) {
	start := time.Now()
	dur := 200 * time.Millisecond
	shots, unsent := OpenLoop(start, 10000, dur, start.Add(dur), func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	st := Summarize(10000, shots, unsent)
	if st.Sent+st.Unsent != 2000 || st.Unsent < 1500 {
		t.Errorf("sent %d unsent %d, want at most ~100 sent of 2000", st.Sent, st.Unsent)
	}
	if st.Achieved < 200 || st.Achieved > 520 {
		t.Errorf("achieved %.1f/s behind a 2ms handler, want at most 500/s", st.Achieved)
	}
	if st.Meets(time.Hour) {
		t.Errorf("a rung with unsent requests meets the limit")
	}
}

// A rung whose p99 rests on fewer than ten samples beyond it never
// meets a limit, however fast its replies.
func TestMeetsNeedsSupportedP99(t *testing.T) {
	start := time.Now()
	shots, unsent := OpenLoop(start, 1000, 100*time.Millisecond, start.Add(time.Second), func(int) error { return nil })
	st := Summarize(1000, shots, unsent)
	if st.Latency.Supported(0.99) || st.Meets(time.Hour) {
		t.Errorf("a %d-sample rung meets the limit with an unsupported p99", st.Latency.N())
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "rpm.train", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "core.search", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "core.fit", Start: 30 * ms, End: 60 * ms},   // overlaps 2
		{ID: 4, Parent: 1, Name: "core.late", Start: 90 * ms, End: 120 * ms}, // overruns 1
		{ID: 5, Parent: 2, Name: "dist.best", Start: 15 * ms, End: 25 * ms},
		{ID: 6, Name: "serve.other", Start: 0, End: 5 * ms},
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 40 * ms, // 100 - union{[10,60], [90,100]}
		2: 20 * ms,
		3: 30 * ms,
		4: 30 * ms,
		5: 10 * ms,
		6: 5 * ms,
	} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	rows := LayerTable(spans)
	want := []LayerRow{
		{Layer: "core", Spans: 3, Total: 90 * ms, Self: 80 * ms},
		{Layer: "rpm", Spans: 1, Total: 100 * ms, Self: 40 * ms},
		{Layer: "dist", Spans: 1, Total: 10 * ms, Self: 10 * ms},
		{Layer: "serve", Spans: 1, Total: 5 * ms, Self: 5 * ms},
	}
	if len(rows) != len(want) {
		t.Fatalf("layer table %+v, want %+v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Open("rpm.train", 0, 1)
	tr.Close(id)
	tr.Time("dist.best", id, 1, func() {})
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded spans")
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, st Stamp) {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(Result{Workload: "train_exhaustive", Stamp: st, Metrics: map[string]float64{"train_s": 1}})
		if err := os.WriteFile(filepath.Join(dir, sub, "r.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := Stamp{GOMAXPROCS: 2, NProc: 2, CPU: "x", GoVersion: "go1.24.0", GOARCH: "amd64", Commit: "a"}
	other := base
	other.Commit = "b"
	write("a", base)
	write("b", other)
	var sb strings.Builder
	if err := compareDirs(&sb, filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Errorf("two commits on one machine refused: %v", err)
	}
	moved := base
	moved.GOMAXPROCS = 1
	write("c", moved)
	if err := compareDirs(&sb, filepath.Join(dir, "a"), filepath.Join(dir, "c")); err == nil {
		t.Errorf("results from different machines compared")
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}
