package main

import (
	"slices"
	"time"

	"rpm"
	"rpm/internal/dist"
	"rpm/internal/features"
	"rpm/internal/sax"
	"rpm/internal/sequitur"
	"rpm/internal/svm"
	"rpm/internal/ts"
)

// reportSums adds up TrainReports over the datasets of a pass.
type reportSums struct {
	paramSearch, step1, step2, step3, fit         time.Duration
	evals, hits, misses                           int64
	pruneKept, pruneDropped, clustKept, clustDrop int64
	cfs                                           int64
	splitsBusy, splitsIdle, transBusy, transIdle  time.Duration
}

func (s *reportSums) add(rep *rpm.TrainReport) {
	var walk func(st []rpm.StageTiming)
	walk = func(st []rpm.StageTiming) {
		for _, n := range st {
			switch n.Name {
			case rpm.StageParamSearch:
				s.paramSearch += n.Wall
			case rpm.StageStep1:
				s.step1 += n.Wall
			case rpm.StageStep2:
				s.step2 += n.Wall
			case rpm.StageStep3:
				s.step3 += n.Wall
			case rpm.StageFit:
				s.fit += n.Wall
			}
			walk(n.Children)
		}
	}
	walk(rep.Stages)
	s.evals += rep.Counter(rpm.CounterSearchEvals)
	s.hits += rep.Counter(rpm.CounterCacheHits)
	s.misses += rep.Counter(rpm.CounterCacheMisses)
	s.pruneKept += rep.Counter(rpm.CounterPruneKept)
	s.pruneDropped += rep.Counter(rpm.CounterPruneDropped)
	s.clustKept += rep.Counter(rpm.CounterClustersKept)
	s.clustDrop += rep.Counter(rpm.CounterClustersDropped)
	s.cfs += rep.Counter(rpm.CounterCFSExpansions)
	for _, p := range rep.Pools {
		switch p.Name {
		case "pool.search.splits":
			s.splitsBusy += p.Busy
			s.splitsIdle += p.Idle
		case "pool.transform":
			s.transBusy += p.Busy
			s.transIdle += p.Idle
		}
	}
}

// ratio is part over part+rest, 0 when both are 0.
func ratio[T int64 | time.Duration](part, rest T) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}

func (s *reportSums) set(r *Run) {
	r.Set("core.param_search_s", s.paramSearch.Seconds())
	r.Set("core.search.evals", float64(s.evals))
	r.Set("core.search.cache_hit_ratio", ratio(s.hits, s.misses))
	r.Set("core.step1_sax_s", s.step1.Seconds())
	r.Set("core.step2_grammar_cluster_s", s.step2.Seconds())
	r.Set("core.step3_select_s", s.step3.Seconds())
	r.Set("core.fit_s", s.fit.Seconds())
	r.Set("core.prune_kept_ratio", ratio(s.pruneKept, s.pruneDropped))
	r.Set("core.clusters_kept_ratio", ratio(s.clustKept, s.clustDrop))
	r.Set("features.cfs_expansions", float64(s.cfs))
	r.Set("parallel.search_splits_busy_ratio", ratio(s.splitsBusy, s.splitsIdle))
	r.Set("parallel.transform_busy_ratio", ratio(s.transBusy, s.transIdle))
}

// addReportSpans turns a TrainReport's stage tree into child spans of
// the measured rpm.train span. The report gives durations, not start
// times, so siblings are laid end to end from the parent's start in the
// pipeline's order; aggregate stages summed over parallel classes may
// overrun their parent and are clipped by the self-time computation.
func addReportSpans(tr *Tracer, parent int, trace int64, start time.Time, stages []rpm.StageTiming) {
	at := start
	for _, st := range stages {
		end := at.Add(st.Wall)
		id := tr.Record("core."+st.Name, parent, trace, at, end)
		addReportSpans(tr, id, trace, at, st.Children)
		at = end
	}
}

// layerSums adds up the layer replays.
type layerSums struct {
	dist, sax, seq, sel, svmTrain, transform, svmPredict time.Duration
	windows, saxWindows, tokens, series, predicts        int64
}

func (s *layerSums) set(r *Run) {
	per := func(d time.Duration, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	r.Set("dist.best_query_ns_per_window", per(s.dist, s.windows, time.Nanosecond))
	r.Set("dist.windows", float64(s.windows))
	r.Set("sax.discretize_ns_per_window", per(s.sax, s.saxWindows, time.Nanosecond))
	r.Set("sequitur.infer_ns_per_token", per(s.seq, s.tokens, time.Nanosecond))
	r.Set("features.select_ms", float64(s.sel)/float64(time.Millisecond))
	r.Set("svm.train_ms", float64(s.svmTrain)/float64(time.Millisecond))
	r.Set("core.transform_us_per_series", per(s.transform, s.series, time.Microsecond))
	r.Set("svm.predict_ns", per(s.svmPredict, s.predicts, time.Nanosecond))
}

// replayLayers feeds a trained classifier's own inputs through the
// layer functions, one span per call group: each class's SAX
// discretization and grammar induction at the class's chosen
// parameters, the best-match kernel over patterns × training series,
// the transform, CFS, the SVM fit on the selected features, and SVM
// prediction of the test vectors.
func replayLayers(tr *Tracer, parent int, trace int64, clf *rpm.Classifier, sp rpm.Split, acc *layerSums) {
	byClass := map[int]ts.Dataset{}
	for _, in := range sp.Train {
		byClass[in.Label] = append(byClass[in.Label], ts.Instance{Label: in.Label, Values: in.Values})
	}
	params := clf.PerClassParams()
	classes := make([]int, 0, len(params))
	for c := range params {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		p := sax.Params{Window: params[c].Window, PAA: params[c].PAA, Alphabet: params[c].Alphabet}
		concat := ts.ConcatDataset(byClass[c])
		if p.Validate(len(concat.Values)) != nil {
			continue
		}
		var words []sax.WordAt
		acc.sax += tr.Time("sax.discretize", parent, trace, func() {
			words = sax.Discretize(concat.Values, p, true, func(start int) bool { return concat.SpansJunction(start, p.Window) })
		})
		acc.saxWindows += int64(ts.NumWindows(len(concat.Values), p.Window))
		tokens := make([]int, len(words))
		intern := map[string]int{}
		for i, w := range words {
			id, ok := intern[w.Word]
			if !ok {
				id = len(intern)
				intern[w.Word] = id
			}
			tokens[i] = id
		}
		acc.seq += tr.Time("sequitur.infer", parent, trace, func() { sequitur.Infer(tokens) })
		acc.tokens += int64(len(tokens))
	}

	pats := clf.Patterns()
	matchers := make([]*dist.Matcher, len(pats))
	for i, p := range pats {
		matchers[i] = dist.NewMatcher(p.Values)
	}
	acc.dist += tr.Time("dist.best_query", parent, trace, func() {
		for _, in := range sp.Train {
			q := dist.NewQuery(in.Values)
			for _, m := range matchers {
				m.BestQuery(q)
			}
		}
	})
	for _, in := range sp.Train {
		for _, m := range matchers {
			acc.windows += int64(max(len(in.Values)-m.Len()+1, 0))
		}
	}

	xTrain := make([][]float64, len(sp.Train))
	xTest := make([][]float64, len(sp.Test))
	acc.transform += tr.Time("core.transform", parent, trace, func() {
		for i, in := range sp.Train {
			xTrain[i] = clf.Transform(in.Values)
		}
		for i, in := range sp.Test {
			xTest[i] = clf.Transform(in.Values)
		}
	})
	acc.series += int64(len(sp.Train) + len(sp.Test))

	y := make([]int, len(sp.Train))
	for i, in := range sp.Train {
		y[i] = in.Label
	}
	var sel []int
	acc.sel += tr.Time("features.select", parent, trace, func() { sel = features.Select(xTrain, y) })
	pick := func(x []float64) []float64 {
		out := make([]float64, len(sel))
		for j, f := range sel {
			out[j] = x[f]
		}
		return out
	}
	xs := make([][]float64, len(xTrain))
	for i, x := range xTrain {
		xs[i] = pick(x)
	}
	var model *svm.Model
	acc.svmTrain += tr.Time("svm.train", parent, trace, func() { model = svm.Train(xs, y, svm.Config{C: 1}) })
	vs := make([][]float64, len(xTest))
	for i, x := range xTest {
		vs[i] = pick(x)
	}
	acc.svmPredict += tr.Time("svm.predict", parent, trace, func() {
		for _, v := range vs {
			model.Predict(v)
		}
	})
	acc.predicts += int64(len(vs))
}

// traceTraining is the traced run of a training workload. Each dataset
// trains once untraced, as the overhead reference, and once with
// Instrument and spans, followed by its batch classify and its layer
// replays.
func traceTraining(r *Run, spec trainSpec, td *trainingData) error {
	tr := r.Tracer
	var untraced, traced time.Duration
	var sums reportSums
	var layers layerSums
	for i, sp := range td.splits {
		// Each dataset trains untraced and then traced, back to back, so
		// host speed drift falls on both sides of the overhead alike.
		t, _, err := trainPass(spec, td.splits[i:i+1], spec.opts())
		if err != nil {
			return err
		}
		untraced += t
		trace := int64(i + 1)
		o := spec.opts()
		o.Instrument = true
		root := tr.Open("bench.dataset", 0, trace)
		t0 := time.Now()
		m, err := spec.train(sp.Train, o)
		t1 := time.Now()
		if err != nil {
			return err
		}
		traced += t1.Sub(t0)
		id := tr.Record("rpm.train", root, trace, t0, t1)
		rep := m.TrainReport()
		addReportSpans(tr, id, trace, t0, rep.Stages)
		sums.add(rep)
		tr.Time("rpm.predict_batch", root, trace, func() { m.PredictBatch(sp.Test) })
		tr.Close(root)
		clf, ok := m.(*rpm.Classifier)
		if !ok {
			// An ensemble exposes no patterns or parameters: replay a
			// single model trained, outside any span, with the same
			// sampled options.
			if clf, err = rpm.Train(sp.Train, spec.opts()); err != nil {
				return err
			}
		}
		root = tr.Open("bench.replay", 0, trace)
		replayLayers(tr, root, trace, clf, sp, &layers)
		tr.Close(root)
		checkModel(r, spec.key, sp.Name, m, sp.Test, o.Workers)
		r.Attempt(1)
	}
	sums.set(r)
	layers.set(r)
	r.Set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds()-1)
	r.Logf("tracing overhead: %.3fs traced vs %.3fs untraced, each dataset trained both ways back to back (%+.1f%%)",
		traced.Seconds(), untraced.Seconds(), 100*(traced.Seconds()/untraced.Seconds()-1))
	for _, name := range []string{"serve.predict_handler_self_us", "serve.batch_wait_us", "rpm.predict_us",
		"serve.append_handler_self_us", "stream.append_ns_per_sample", "net.client_self_us",
		"serve.batch_items_per_flush", "serve.shed", "serve.flush.expired", "serve.errors", "gen.lag_p99_ms"} {
		r.Set(name, 0) // this workload never serves
	}
	return nil
}
