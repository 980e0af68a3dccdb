package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety is the nil-handle contract ("instrumentation off costs
// nothing and steers nothing"), checked by reflection rather than by
// listing calls: starting from *Registry it follows every exported
// method result that is a pointer to an obs type, and calls each
// pointer-receiver method of every type it reaches on a nil receiver
// with zero-value arguments. Nothing may panic, and every result must be
// the zero value: a nil registry hands out nil handles and nil handles
// read 0. A new handle type or method is covered as soon as a reachable
// method returns it. Value-receiver methods are exempt: calling one
// through a nil pointer dereferences it by definition.
func TestNilSafety(t *testing.T) {
	pkg := reflect.TypeOf(Registry{}).PkgPath()
	// Nil reads whose documented result is not the zero value; their
	// values are pinned after the walk.
	nonZero := map[string]bool{"Snapshot.JSON": true, "Snapshot.Text": true}
	seen := map[reflect.Type]bool{}
	queue := []reflect.Type{reflect.TypeOf((*Registry)(nil))}
	for len(queue) > 0 {
		pt := queue[0]
		queue = queue[1:]
		if seen[pt] {
			continue
		}
		seen[pt] = true
		elem := pt.Elem()
		for i := 0; i < pt.NumMethod(); i++ {
			m := pt.Method(i)
			if _, byValue := elem.MethodByName(m.Name); byValue {
				continue
			}
			name := elem.Name() + "." + m.Name
			mt := m.Type // receiver first
			args := []reflect.Value{reflect.Zero(pt)}
			for j := 1; j < mt.NumIn(); j++ {
				args = append(args, reflect.Zero(mt.In(j)))
			}
			for k := 0; k < mt.NumOut(); k++ {
				if out := mt.Out(k); out.Kind() == reflect.Pointer && out.Elem().PkgPath() == pkg {
					queue = append(queue, out)
				}
			}
			results, panicked := callRecovered(m.Func, args, mt.IsVariadic())
			if panicked != nil {
				t.Errorf("(*%s).%s on a nil receiver panicked: %v", elem.Name(), m.Name, panicked)
				continue
			}
			for k, r := range results {
				if !nonZero[name] && !r.IsZero() {
					t.Errorf("(*%s).%s on a nil receiver: result %d = %v, want the zero value", elem.Name(), m.Name, k, r)
				}
			}
		}
	}
	// The walk must keep reaching every handle and snapshot type; a
	// result type changed to an interface or a value would silently
	// shrink it.
	for _, v := range []any{(*Counter)(nil), (*Gauge)(nil), (*Pool)(nil), (*Summary)(nil),
		(*Span)(nil), (*Snapshot)(nil), (*SpanSnapshot)(nil), (*SummarySnapshot)(nil)} {
		if typ := reflect.TypeOf(v); !seen[typ] {
			t.Errorf("nil-safety walk from *Registry never reached %v", typ)
		}
	}

	var snap *Snapshot
	if b, err := snap.JSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil snapshot JSON = %q, %v", b, err)
	}
	if got := snap.Text(); !strings.Contains(got, "no instrumentation") {
		t.Fatalf("nil snapshot text = %q", got)
	}
}

// callRecovered calls fn, turning a panic into a returned value.
func callRecovered(fn reflect.Value, args []reflect.Value, variadic bool) (out []reflect.Value, panicked any) {
	defer func() { panicked = recover() }()
	if variadic {
		return fn.CallSlice(args), nil
	}
	return fn.Call(args), nil
}

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	if c2 := r.Counter("hits"); c2 != c {
		t.Fatal("same name must return the same counter")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("level")
	g.Set(10)
	g.SetMax(7) // lower: must not stick
	if g.Value() != 10 {
		t.Fatalf("gauge = %d, want 10 after SetMax(7)", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Fatalf("gauge = %d, want 12", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counter("hits") != 5 {
		t.Fatalf("snapshot counter = %d", snap.Counter("hits"))
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "level" || snap.Gauges[0].Value != 12 {
		t.Fatalf("snapshot gauges = %+v", snap.Gauges)
	}
}

func TestSpanTreeAndAggregate(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("train")
	step := root.Start("step")
	time.Sleep(time.Millisecond)
	step.End()
	agg := root.Child("agg")
	agg.Add(3 * time.Millisecond)
	agg.Add(2 * time.Millisecond)
	agg.AddBusy(10 * time.Millisecond)
	root.End()

	snap := r.Snapshot()
	got := snap.FindSpan("agg")
	if got == nil {
		t.Fatal("agg span missing")
	}
	if got.Wall() != 5*time.Millisecond {
		t.Fatalf("agg wall = %v, want 5ms", got.Wall())
	}
	if got.Count != 2 {
		t.Fatalf("agg count = %d, want 2", got.Count)
	}
	if got.BusyNS != int64(10*time.Millisecond) {
		t.Fatalf("agg busy = %d", got.BusyNS)
	}
	tr := snap.FindSpan("train")
	if tr == nil || tr.WallNS < int64(time.Millisecond) {
		t.Fatalf("train span = %+v", tr)
	}
	if len(tr.Children) != 2 {
		t.Fatalf("train children = %d, want 2", len(tr.Children))
	}
	if snap.FindSpan("nope") != nil {
		t.Fatal("FindSpan on missing name must be nil")
	}
}

// TestRunningSpanReportsElapsed: a snapshot taken mid-span shows
// elapsed-so-far wall time so live views are useful.
func TestRunningSpanReportsElapsed(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("running")
	time.Sleep(2 * time.Millisecond)
	s := r.Snapshot().FindSpan("running")
	if s == nil || s.WallNS <= 0 {
		t.Fatalf("running span = %+v, want positive elapsed wall", s)
	}
}

func TestPoolAccounting(t *testing.T) {
	r := NewRegistry()
	p := r.Pool("work")
	p.WorkerTask(0, 2*time.Millisecond)
	p.WorkerTask(1, 3*time.Millisecond)
	p.WorkerTask(MaxPoolWorkers+5, time.Millisecond) // clamps into last slot
	p.RunDone(2, 10*time.Millisecond)

	s := r.Snapshot()
	if len(s.Pools) != 1 {
		t.Fatalf("pools = %d", len(s.Pools))
	}
	ps := s.Pools[0]
	if ps.Tasks != 3 || ps.Runs != 1 || ps.MaxWorkers != 2 {
		t.Fatalf("pool snapshot = %+v", ps)
	}
	if ps.BusyNS != int64(6*time.Millisecond) {
		t.Fatalf("busy = %d", ps.BusyNS)
	}
	// capacity 2×10ms − busy 6ms = 14ms idle
	if ps.IdleNS != int64(14*time.Millisecond) {
		t.Fatalf("idle = %d, want 14ms", ps.IdleNS)
	}
	if len(ps.TasksPerWorker) != MaxPoolWorkers {
		t.Fatalf("perWorker len = %d (clamped slot must be last)", len(ps.TasksPerWorker))
	}
	if ps.TasksPerWorker[0] != 1 || ps.TasksPerWorker[1] != 1 || ps.TasksPerWorker[MaxPoolWorkers-1] != 1 {
		t.Fatalf("perWorker = %v", ps.TasksPerWorker)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines;
// meaningful under -race, and the final counts must be exact.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("root")
	agg := root.Child("agg")
	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("n").Inc()
				r.Gauge("max").SetMax(int64(g*iters + i))
				agg.Add(time.Microsecond)
				r.Pool("p").WorkerTask(g, time.Microsecond)
				if i%50 == 0 {
					_ = r.Snapshot() // reads race-free against writes
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	s := r.Snapshot()
	if got := s.Counter("n"); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := s.FindSpan("agg").Count; got != goroutines*iters {
		t.Fatalf("agg count = %d", got)
	}
	if got := s.Pools[0].Tasks; got != goroutines*iters {
		t.Fatalf("pool tasks = %d", got)
	}
	if got := s.Gauges[0].Value; got != goroutines*iters-1 {
		t.Fatalf("gauge max = %d, want %d", got, goroutines*iters-1)
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("train")
	sp.Start("fit").End()
	sp.End()
	r.Counter("b.ctr").Inc()
	r.Counter("a.ctr").Add(2)
	r.Gauge("workers").Set(4)
	r.Pool("p").RunDone(1, time.Millisecond)
	s := r.Snapshot()

	// counters sorted by name for stable JSON
	if s.Counters[0].Name != "a.ctr" || s.Counters[1].Name != "b.ctr" {
		t.Fatalf("counters not name-sorted: %+v", s.Counters)
	}
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counter("a.ctr") != 2 {
		t.Fatal("round-tripped counter lost")
	}
	txt := s.Text()
	for _, want := range []string{"spans:", "train", "fit", "counters:", "a.ctr", "gauges:", "workers", "pools:"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, txt)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)

	h := Handler(r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler JSON invalid: %v", err)
	}
	if snap.Counter("hits") != 3 {
		t.Fatal("handler snapshot lost counter")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs?format=text", nil))
	if !strings.Contains(rec.Body.String(), "hits") {
		t.Fatalf("text format missing counter: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if strings.TrimSpace(rec.Body.String()) != "null" {
		t.Fatalf("nil registry handler = %q, want null", rec.Body.String())
	}
}
