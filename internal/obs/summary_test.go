package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestSummaryNilSafety drives the Summary handle on nil receivers and a
// nil registry: nothing panics, reads return zero values.
func TestSummaryNilSafety(t *testing.T) {
	var r *Registry
	if r.Summary("s") != nil {
		t.Fatal("nil registry must hand out a nil summary")
	}
	var s *Summary
	s.Observe(time.Millisecond)
	if s.Count() != 0 {
		t.Fatal("nil summary count")
	}
	var snap *Snapshot
	if snap.Summary("s") != nil || snap.Gauge("g") != 0 {
		t.Fatal("nil snapshot summary/gauge reads")
	}
}

// TestSummaryBuckets pins the log-linear bucket mapping: exact buckets
// below 8 ns, then 8 equal sub-buckets per octave, with every bucket's
// upper edge one below the next bucket's first value.
func TestSummaryBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 1}, {7, 7}, {8, 8}, {15, 15},
		{16, 16}, {17, 16}, {18, 17}, {31, 23}, {32, 24},
		{1023, 63}, {1024, 64}, {1152, 65},
		{math.MaxInt64, summaryBuckets - 1},
	}
	for _, c := range cases {
		if got := summaryBucket(c.ns); got != c.want {
			t.Errorf("summaryBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for i := 0; i < summaryBuckets-1; i++ {
		hi := summaryBucketMax(i)
		if summaryBucket(hi) != i || summaryBucket(hi+1) != i+1 {
			t.Fatalf("bucket %d: upper edge %d maps to %d, next value to %d",
				i, hi, summaryBucket(hi), summaryBucket(hi+1))
		}
	}
	if got := summaryBucketMax(summaryBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("last bucket upper edge = %d, want MaxInt64", got)
	}
}

// TestSummaryQuantileBound checks the documented accuracy: on known
// distributions every reported quantile lies in [true, true×1.125],
// where true is the value at the quantile's rank in sorted order.
func TestSummaryQuantileBound(t *testing.T) {
	const n = 10000
	cases := []struct {
		name string
		at   func(i int) time.Duration // i-th of n values, ascending
	}{
		{"uniform 1us-10ms", func(i int) time.Duration {
			return time.Microsecond + time.Duration(i)*(10*time.Millisecond-time.Microsecond)/n
		}},
		{"exponential 1.7ms", func(i int) time.Duration {
			return time.Duration(-math.Log(1-float64(i)/n) * 1.7e6)
		}},
		{"log-uniform 100ns-1s", func(i int) time.Duration {
			return time.Duration(100 * math.Pow(1e7, float64(i)/n))
		}},
		{"constant 1.7ms", func(int) time.Duration { return 1700 * time.Microsecond }},
		{"small exact 0-7ns", func(i int) time.Duration { return time.Duration(i * 8 / n) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			s := r.Summary("q")
			for i := 0; i < n; i++ {
				s.Observe(c.at(i))
			}
			snap := r.Snapshot().Summary("q")
			for _, q := range []struct {
				name string
				got  int64
				p    float64
			}{{"p50", snap.P50NS, 0.50}, {"p90", snap.P90NS, 0.90}, {"p99", snap.P99NS, 0.99}} {
				want := int64(c.at(int(q.p * n)))
				if q.got < want || float64(q.got) > 1.125*float64(want) {
					t.Errorf("%s = %d ns, want within [%d, %d]", q.name, q.got, want, int64(1.125*float64(want)))
				}
			}
		})
	}
}

// TestSummaryStatistics checks count/sum/min/max/mean and that the
// approximate quantiles bracket the true ones within the 12.5% bound.
func TestSummaryStatistics(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("lat")
	// 100 observations: 1..100 µs.
	for i := 1; i <= 100; i++ {
		s.Observe(time.Duration(i) * time.Microsecond)
	}
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	snap := r.Snapshot().Summary("lat")
	if snap == nil {
		t.Fatal("summary missing from snapshot")
	}
	if snap.Count != 100 || snap.MinNS != int64(time.Microsecond) || snap.MaxNS != int64(100*time.Microsecond) {
		t.Fatalf("count/min/max = %d/%d/%d", snap.Count, snap.MinNS, snap.MaxNS)
	}
	wantSum := int64(100 * 101 / 2 * int(time.Microsecond))
	if snap.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", snap.SumNS, wantSum)
	}
	if snap.MeanNS != wantSum/100 {
		t.Fatalf("mean = %d, want %d", snap.MeanNS, wantSum/100)
	}
	// The value at rank q·100 is (q·100+1) µs; the bucket's upper edge
	// over-reports it by at most 12.5% and never under-reports it.
	check := func(name string, got int64, trueQ time.Duration) {
		if got < int64(trueQ) || float64(got) > 1.125*float64(trueQ) {
			t.Errorf("%s = %s, want within 12.5%% above %s", name, time.Duration(got), trueQ)
		}
	}
	check("p50", snap.P50NS, 51*time.Microsecond)
	check("p90", snap.P90NS, 91*time.Microsecond)
	check("p99", snap.P99NS, 100*time.Microsecond)
	// Quantiles are monotone and never exceed the maximum.
	if snap.P50NS > snap.P90NS || snap.P90NS > snap.P99NS || snap.P99NS > snap.MaxNS {
		t.Fatalf("quantiles not monotone: %d %d %d (max %d)", snap.P50NS, snap.P90NS, snap.P99NS, snap.MaxNS)
	}
}

// TestSummaryEmptySnapshot: a created-but-unobserved summary reports all
// zeros (no MaxInt64 sentinel leaking).
func TestSummaryEmptySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Summary("empty")
	snap := r.Snapshot().Summary("empty")
	if snap == nil {
		t.Fatal("summary missing")
	}
	if snap.Count != 0 || snap.MinNS != 0 || snap.MaxNS != 0 || snap.P50NS != 0 || snap.MeanNS != 0 {
		t.Fatalf("empty summary leaked values: %+v", snap)
	}
}

// TestSummaryNegativeClamps: negative durations count as zero.
func TestSummaryNegativeClamps(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("neg")
	s.Observe(-time.Second)
	snap := r.Snapshot().Summary("neg")
	if snap.Count != 1 || snap.SumNS != 0 || snap.MinNS != 0 || snap.MaxNS != 0 {
		t.Fatalf("negative observation not clamped: %+v", snap)
	}
}

// TestSummaryConcurrent exercises Observe from many goroutines under
// -race and checks the totals add up.
func TestSummaryConcurrent(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("conc")
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	// Concurrent snapshot must not race with recording.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot().Summary("conc")
	if snap.Count != workers*per {
		t.Fatalf("count = %d, want %d", snap.Count, workers*per)
	}
	if snap.MinNS != int64(time.Microsecond) || snap.MaxNS != int64(workers*int(time.Microsecond)) {
		t.Fatalf("min/max = %d/%d", snap.MinNS, snap.MaxNS)
	}
}
