package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rpm"
	"rpm/internal/stream"
)

// dataSeed generates the suite's datasets. Like the UCR archive's, they
// are fixed: the reference hashes are recorded for them, and training
// time varies by tens of percent between generated variants, which
// would drown the change a comparison looks for. --seed orders the
// datasets, the queries and the served traffic instead.
const dataSeed = 1

var (
	exhaustiveSets = []string{"SynTwoPatterns", "SynTrace", "SynCinCECG"}
	sampledSets    = []string{"SynAdiac", "SynMALLAT", "SynWordsSynonyms", "SynMedicalImages", "SynLightning7", "SynFacesUCR"}
)

// suiteOptions are the suite's settings (benchtab -exp main): DIRECT,
// 3 splits, 40 evaluations, γ 0.2, τ 30.
func suiteOptions() rpm.Options {
	o := rpm.DefaultOptions()
	o.Splits, o.MaxEvals = 3, 40
	return o
}

// model is what both rpm.Classifier and rpm.Ensemble offer.
type model interface {
	Predict(values []float64) int
	PredictBatch(test rpm.Dataset) []int
	NumPatterns() int
	TrainReport() *rpm.TrainReport
}

// trainSpec is one training workload.
type trainSpec struct {
	key   string // reference section
	sets  []string
	opts  func() rpm.Options
	train func(rpm.Dataset, rpm.Options) (model, error)
}

var exhaustiveSpec = trainSpec{
	key:  "exhaustive",
	sets: exhaustiveSets,
	opts: func() rpm.Options {
		o := suiteOptions()
		o.Workers = 1 // the paper's Table 2 setting
		return o
	},
	train: func(d rpm.Dataset, o rpm.Options) (model, error) { return rpm.Train(d, o) },
}

var sampledSpec = trainSpec{
	key:  "sampled",
	sets: sampledSets,
	opts: func() rpm.Options {
		o := suiteOptions()
		o.Workers = nproc()
		o.Sample.Rate = 0.2
		o.Bags = 7
		return o
	},
	train: func(d rpm.Dataset, o rpm.Options) (model, error) { return rpm.TrainEnsemble(d, o) },
}

func runTrainExhaustive(r *Run) error { return runTraining(r, exhaustiveSpec) }
func runTrainSampled(r *Run) error    { return runTraining(r, sampledSpec) }

// fingerprint identifies a trained model: the sha256 of its snapshot,
// or, for an ensemble (which has no snapshot), of its shape and its
// labels on the test set. The snapshot records the Workers option,
// which never changes the model but follows the machine's core count,
// so it is saved with Workers 1 and then set back to workers.
func fingerprint(m model, test rpm.Dataset, workers int) (string, error) {
	h := sha256.New()
	switch m := m.(type) {
	case *rpm.Classifier:
		m.SetWorkers(1)
		err := m.Save(h)
		m.SetWorkers(workers)
		if err != nil {
			return "", err
		}
	case *rpm.Ensemble:
		fmt.Fprintf(h, "bags=%d patterns=%d labels=%v", m.Bags(), m.NumPatterns(), m.PredictBatch(test))
	default:
		return "", fmt.Errorf("fingerprint: unexpected model %T", m)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func testErrors(labels []int, test rpm.Dataset) int {
	n := 0
	for i, l := range labels {
		if l != test[i].Label {
			n++
		}
	}
	return n
}

// checkModel compares a model against the recorded reference and
// returns its test labels, which later checks reuse.
func checkModel(r *Run, section, name string, m model, test rpm.Dataset, workers int) []int {
	labels := m.PredictBatch(test)
	fp, err := fingerprint(m, test, workers)
	if err != nil {
		r.Fail("%s: %v", name, err)
		return labels
	}
	want, ok := refs[runtime.GOARCH][section][name]
	switch {
	case !ok:
		r.Fail("%s/%s: no reference recorded for GOARCH %s", section, name, runtime.GOARCH)
	case want.Fingerprint != fp || want.TestErrors != testErrors(labels, test) || want.TestSize != len(test):
		r.Fail("%s/%s: model %s with %d/%d test errors, reference %s with %d/%d",
			section, name, short(fp), testErrors(labels, test), len(test), short(want.Fingerprint), want.TestErrors, want.TestSize)
	}
	return labels
}

func short(s string) string { return s[:min(12, len(s))] }

// trainingData is the set-up state of a training workload.
type trainingData struct {
	splits  []rpm.Split // in the seed's order
	fixture *appendFixture
}

func setupTraining(r *Run, spec trainSpec) (*trainingData, error) {
	td := &trainingData{}
	rng := rand.New(rand.NewSource(r.Seed))
	order := rng.Perm(len(spec.sets))
	d, err := timeSetup(func() error {
		td.splits = td.splits[:0]
		for _, i := range order {
			td.splits = append(td.splits, rpm.GenerateDataset(spec.sets[i], dataSeed))
		}
		var err error
		td.fixture, err = newAppendFixture(r.Seed)
		return err
	})
	r.Set("setup_s", d.Seconds())
	if err == nil {
		checkModel(r, "fixture", "SynCinCECG", td.fixture.clf, rpm.GenerateDataset("SynCinCECG", dataSeed).Test, 1)
	}
	return td, err
}

func runTraining(r *Run, spec trainSpec) error {
	td, err := setupTraining(r, spec)
	if err != nil {
		return err
	}
	if r.Traced() {
		return traceTraining(r, spec, td)
	}
	// Training passes fill 60% of the budget (at least one pass); the
	// rest, and never less than 30%, probes the trained models.
	var passes []float64
	var models []model
	var labels [][]int
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+time.Duration(passes[len(passes)-1]*float64(time.Second)) <= r.Budget*6/10 {
		t, ms, err := trainPass(spec, td.splits, spec.opts())
		if err != nil {
			return err
		}
		passes = append(passes, t.Seconds())
		models = ms
		labels = labels[:0]
		for i, m := range ms {
			labels = append(labels, checkModel(r, spec.key, td.splits[i].Name, m, td.splits[i].Test, spec.opts().Workers))
		}
		r.Attempt(len(ms))
		r.Logf("train pass %d: %.3fs over %d datasets", len(passes), t.Seconds(), len(ms))
	}
	r.Set("train_s", median(passes))
	probeModels(r, models, td.splits, labels, td.fixture, max(r.Budget-time.Since(start), r.Budget*3/10))
	return nil
}

// trainPass trains every dataset once and returns the summed wall time.
func trainPass(spec trainSpec, splits []rpm.Split, o rpm.Options) (time.Duration, []model, error) {
	var total time.Duration
	var ms []model
	for _, sp := range splits {
		t0 := time.Now()
		m, err := spec.train(sp.Train, o)
		total += time.Since(t0)
		if err != nil {
			return 0, nil, fmt.Errorf("training %s: %w", sp.Name, err)
		}
		ms = append(ms, m)
	}
	return total, ms, nil
}

// appendFixture is a fixed-parameter SynCinCECG model, streamed in
// process by the training workloads: their append metrics isolate the
// stream layer with no HTTP in the way.
type appendFixture struct {
	clf    *rpm.Classifier
	sm     *stream.Model
	chunks [][][]float64 // per stream, in send order
}

// The stream traffic shape is scripts/stream_smoke.sh's: 32 streams
// fed round-robin with 128-sample chunks.
const (
	appendStreams = 32
	appendChunk   = 128
	// streamSeries is how many test series, in a seeded order, make up
	// each stream's signal; appends cycle through its chunks.
	streamSeries = 30
)

func newAppendFixture(seed int64) (*appendFixture, error) {
	sp := rpm.GenerateDataset("SynCinCECG", dataSeed)
	o := rpm.DefaultOptions()
	o.Mode = rpm.ParamFixed
	o.Params = rpm.SAXParams{Window: 80, PAA: 6, Alphabet: 4}
	o.Workers = 1
	clf, err := rpm.Train(sp.Train, o)
	if err != nil {
		return nil, fmt.Errorf("training the append fixture: %w", err)
	}
	sm, err := streamModel(clf)
	if err != nil {
		return nil, err
	}
	return &appendFixture{clf: clf, sm: sm, chunks: streamChunks(sp.Test, seed, appendStreams)}, nil
}

// streamModel builds the shared streaming state of a classifier, as the
// server does for a stream's model.
func streamModel(clf *rpm.Classifier) (*stream.Model, error) {
	pats := clf.Patterns()
	raw := make([][]float64, len(pats))
	for i, p := range pats {
		raw[i] = p.Values
	}
	return stream.NewModel(raw, clf)
}

// streamChunks cuts, for each stream, streamSeries test series in a
// seeded order into fixed-size chunks.
func streamChunks(test rpm.Dataset, seed int64, streams int) [][][]float64 {
	out := make([][][]float64, streams)
	for s := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(s)))
		var sig []float64
		for _, i := range rng.Perm(len(test))[:min(streamSeries, len(test))] {
			sig = append(sig, test[i].Values...)
		}
		for c := 0; c+appendChunk <= len(sig); c += appendChunk {
			out[s] = append(out[s], sig[c:c+appendChunk])
		}
	}
	return out
}

// streamConfig is the server's default stream configuration.
var streamConfig = stream.Config{ConfirmWindows: 3}
