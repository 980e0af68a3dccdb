package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"

	"rpm"
	"rpm/internal/stream"
)

// probeSlice is how long each single-predict and stream-append slice
// runs between two batch classifications. Host speed drifts over
// seconds, so the three measurements take turns for the whole phase
// instead of each getting a block of it.
const probeSlice = 50 * time.Millisecond

// probeModels measures the trained models in process: batch classify,
// single-series predicts and stream appends on the fixture, in turns,
// until the phase ends. The training garbage is collected first.
func probeModels(r *Run, models []model, splits []rpm.Split, want [][]int, fx *appendFixture, phase time.Duration) {
	runtime.GC()
	cp := &classifyProbe{models: models, splits: splits, want: want}
	pp := newPredictProbe(models, splits, want, r.Seed)
	ap := newAppendProbe(fx)
	start := time.Now()
	for cp.steps < 3 || pp.next < len(pp.qs) || time.Since(start) < phase {
		cp.step(r)
		pp.run(probeSlice)
		ap.run(probeSlice)
	}
	cp.report(r)
	pp.report(r)
	ap.report(r)
}

// classifyProbe times PredictBatch over every test set. It reports
// series classified over the total time, not a median of per-step
// rates: step times on the shared host are bimodal, and a median flips
// between the modes where the total moves with their mix.
type classifyProbe struct {
	models []model
	splits []rpm.Split
	want   [][]int
	steps  int
	series int
	busy   time.Duration
}

func (p *classifyProbe) step(r *Run) {
	got := make([][]int, len(p.models))
	t0 := time.Now()
	for i, m := range p.models {
		got[i] = m.PredictBatch(p.splits[i].Test)
		p.series += len(p.splits[i].Test)
	}
	p.busy += time.Since(t0)
	p.steps++
	for i := range got {
		if !slices.Equal(got[i], p.want[i]) {
			r.Fail("%s: PredictBatch labels changed between calls", p.splits[i].Name)
		}
	}
}

func (p *classifyProbe) report(r *Run) {
	rate := float64(p.series) / p.busy.Seconds()
	r.Set("classify_series_per_s", rate)
	r.Logf("classify: %d repetitions, %d series in %.3fs, %.1f series/s", p.steps, p.series, p.busy.Seconds(), rate)
}

// predictProbe calls Predict on one test series at a time (one caller,
// closed loop) in the seed's order, timing each call.
type predictProbe struct {
	models   []model
	splits   []rpm.Split
	want     [][]int
	qs       []struct{ m, i int }
	next     int
	lat      []time.Duration
	busy     time.Duration
	mismatch int
}

func newPredictProbe(models []model, splits []rpm.Split, want [][]int, seed int64) *predictProbe {
	p := &predictProbe{models: models, splits: splits, want: want}
	for m := range models {
		for i := range splits[m].Test {
			p.qs = append(p.qs, struct{ m, i int }{m, i})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(p.qs), func(a, b int) { p.qs[a], p.qs[b] = p.qs[b], p.qs[a] })
	return p
}

func (p *predictProbe) run(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; p.next++ {
		q := p.qs[p.next%len(p.qs)]
		t0 := time.Now()
		l := p.models[q.m].Predict(p.splits[q.m].Test[q.i].Values)
		dt := time.Since(t0)
		p.lat = append(p.lat, dt)
		p.busy += dt
		if l != p.want[q.m][q.i] {
			p.mismatch++
		}
	}
}

func (p *predictProbe) report(r *Run) {
	if p.mismatch > 0 {
		r.Fail("%d single-series Predict labels differ from PredictBatch", p.mismatch)
	}
	d := DurDist(p.lat, time.Millisecond)
	r.Set("predict_p50_ms", d.Quantile(0.5))
	r.Set("predict_max_rps", float64(len(p.lat))/p.busy.Seconds())
	r.Logf("predict (in process, one caller): %s", d.Describe("ms"))
}

// appendProbe appends fixed-size chunks round-robin over the fixture's
// streams (one caller, closed loop), timing each Detector.Append.
type appendProbe struct {
	fx      *appendFixture
	dets    []*stream.Detector
	sent    []int
	k       int
	events0 []stream.Event // stream 0's events since its last restart
	lat     []time.Duration
	busy    time.Duration
}

func newAppendProbe(fx *appendFixture) *appendProbe {
	p := &appendProbe{fx: fx, dets: make([]*stream.Detector, appendStreams), sent: make([]int, appendStreams)}
	for s := range p.dets {
		p.dets[s] = fx.sm.NewDetector(streamConfig)
	}
	return p
}

func (p *appendProbe) run(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; p.k++ {
		s := p.k % appendStreams
		c := p.sent[s] % len(p.fx.chunks[s])
		if p.sent[s] > 0 && c == 0 {
			// The signal ran out: start the stream afresh.
			p.dets[s] = p.fx.sm.NewDetector(streamConfig)
			if s == 0 {
				p.events0 = p.events0[:0]
			}
		}
		t0 := time.Now()
		ev := p.dets[s].Append(p.fx.chunks[s][c])
		dt := time.Since(t0)
		p.lat = append(p.lat, dt)
		p.busy += dt
		if s == 0 {
			p.events0 = append(p.events0, ev...)
		}
		p.sent[s]++
	}
}

// report checks stream 0's events against a fresh replay of the same
// chunks and sets the append metrics.
func (p *appendProbe) report(r *Run) {
	replay := p.fx.sm.NewDetector(streamConfig)
	var want []stream.Event
	for c := range (p.sent[0]-1)%len(p.fx.chunks[0]) + 1 {
		want = append(want, replay.Append(p.fx.chunks[0][c])...)
	}
	if !slices.Equal(p.events0, want) {
		r.Fail("stream append events differ from a fresh replay of the same chunks")
	}
	d := DurDist(p.lat, time.Millisecond)
	r.Set("append_p50_ms", d.Quantile(0.5))
	r.Set("append_max_rps", float64(len(p.lat))/p.busy.Seconds())
	r.Logf("append (in process, one caller, %d-sample chunks): %s", appendChunk, d.Describe("ms"))
}
