package faults

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilInjectorIsNoOp pins the chaos-off contract: every method of a
// nil *Injector is a safe no-op, so production code can thread the
// injector unconditionally.
func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Fire(SiteStoreLoad) {
		t.Error("nil injector fired")
	}
	if err := in.Err(SiteStoreLoad); err != nil {
		t.Errorf("nil injector injected error %v", err)
	}
	if d := in.Sleep(SiteFlushDelay); d != 0 {
		t.Errorf("nil injector slept %v", d)
	}
	if ev := in.Events(); ev != nil {
		t.Errorf("nil injector has events %v", ev)
	}
	if a := in.Armed(); a != nil {
		t.Errorf("nil injector is armed: %v", a)
	}
	if s := in.String(); s != "chaos off" {
		t.Errorf("nil injector String = %q", s)
	}
}

// TestEmptySpecMeansOff: an empty or blank spec returns a nil injector,
// not an armed-with-nothing one.
func TestEmptySpecMeansOff(t *testing.T) {
	for _, spec := range []string{"", "  ", "\t"} {
		in, err := New(1, spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if in != nil {
			t.Fatalf("New(%q) = %v, want nil", spec, in)
		}
	}
}

// TestSpecParsing covers the option grammar and its error cases.
func TestSpecParsing(t *testing.T) {
	in, err := New(7, "store.load:p=0.5:n=3:skip=2; batcher.flush:d=30ms , server.deadline")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{SiteFlushDelay.String(), SiteStoreLoad.String(), SiteDeadline.String()}
	if got := in.Armed(); !reflect.DeepEqual(got, sortedCopy(want)) {
		t.Fatalf("Armed = %v, want %v", got, sortedCopy(want))
	}
	if s := in.String(); !strings.Contains(s, "store.load p=0.5 n=3 skip=2") || !strings.Contains(s, "d=30ms") {
		t.Fatalf("String = %q", s)
	}

	for _, bad := range []string{
		"nope.site",              // unknown site
		"store.load:p",           // malformed option
		"store.load:p=2",         // p out of range
		"store.load:p=0",         // p out of range
		"store.load:p=NaN",       // p not a probability
		"store.load:n=-1",        // negative n
		"store.load:skip=-2",     // negative skip
		"batcher.flush:d=-5ms",   // negative delay
		"store.load:zap=1",       // unknown key
		"store.load;store.load",  // duplicate site
		"store.load:p=abc",       // unparsable float
		"batcher.flush:d=potato", // unparsable duration
	} {
		if _, err := New(1, bad); err == nil {
			t.Errorf("New(%q) accepted a bad spec", bad)
		}
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// TestDeterministicSequence is the core contract: the same seed and the
// same per-site hit order produce an identical event log, bit for bit;
// a different seed produces a different decision sequence.
func TestDeterministicSequence(t *testing.T) {
	run := func(seed int64) []Event {
		in, err := New(seed, "store.load:p=0.4; server.deadline:p=0.6:n=5")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			in.Err(SiteStoreLoad)
			in.Fire(SiteDeadline)
		}
		return in.Events()
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different logs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("p=0.4/0.6 over 40 hits fired nothing; injector is inert")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical logs")
	}
	// n=5 caps the deadline site.
	deadline := 0
	for _, ev := range a {
		if ev.Site == SiteDeadline.String() {
			deadline++
		}
	}
	if deadline != 5 {
		t.Fatalf("deadline site fired %d times, n=5", deadline)
	}
}

// TestPerSiteStreamsAreIndependent: interleaving hits of another site
// does not shift a site's own decision sequence.
func TestPerSiteStreamsAreIndependent(t *testing.T) {
	seq := func(interleave bool) []int {
		in, err := New(9, "store.load:p=0.5; server.deadline:p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		var fired []int
		for i := 0; i < 30; i++ {
			if interleave {
				in.Fire(SiteDeadline)
			}
			if in.Fire(SiteStoreLoad) {
				fired = append(fired, i)
			}
		}
		return fired
	}
	if a, b := seq(false), seq(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("store.load decisions shifted when another site interleaved:\n%v\n%v", a, b)
	}
}

// TestSkipAndAlwaysFire: skip passes early hits through, p omitted
// means every decided hit fires, and Err returns a typed *Fault.
func TestSkipAndAlwaysFire(t *testing.T) {
	in, err := New(1, "store.load:skip=3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := in.Err(SiteStoreLoad); err != nil {
			t.Fatalf("hit %d inside skip window fired: %v", i, err)
		}
	}
	err = in.Err(SiteStoreLoad)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("post-skip hit = %v, want *Fault", err)
	}
	if f.Site != SiteStoreLoad.String() || f.Hit != 3 {
		t.Fatalf("fault = %+v", f)
	}
	if !strings.Contains(f.Error(), "store.load") {
		t.Fatalf("fault message %q does not name the site", f.Error())
	}
}

// TestUnarmedSiteNeverFires: consulting a site the spec did not arm is
// free and silent.
func TestUnarmedSiteNeverFires(t *testing.T) {
	in, err := New(1, "store.load")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if in.Fire(SiteWriteFail) {
			t.Fatal("unarmed site fired")
		}
	}
	if n := len(in.Events()); n != 0 {
		t.Fatalf("unarmed consults logged %d events", n)
	}
}

// TestSleepInjectsDelay: an armed delay site actually blocks for d and
// reports it; Events record kind "delay".
func TestSleepInjectsDelay(t *testing.T) {
	in, err := New(1, "batcher.flush:d=20ms:n=1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if d := in.Sleep(SiteFlushDelay); d != 20*time.Millisecond {
		t.Fatalf("Sleep returned %v", d)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want ≥ ~20ms", elapsed)
	}
	if d := in.Sleep(SiteFlushDelay); d != 0 {
		t.Fatalf("n=1 site slept twice (%v)", d)
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Kind != "delay" || ev[0].Site != SiteFlushDelay.String() {
		t.Fatalf("events = %v", ev)
	}
}

// TestConcurrentConsults: the injector is safe under concurrent hits
// (exercised with -race by the repo-wide race gate) and the log stays
// consistent: sequential Seq, per-site Hit indices each seen once.
func TestConcurrentConsults(t *testing.T) {
	in, err := New(3, "store.load:p=0.5; server.write:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Err(SiteStoreLoad)
				in.Fire(SiteWriteFail)
			}
		}()
	}
	wg.Wait()
	ev := in.Events()
	seenHit := map[string]map[int]bool{}
	for i, e := range ev {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
		if seenHit[e.Site] == nil {
			seenHit[e.Site] = map[int]bool{}
		}
		if seenHit[e.Site][e.Hit] {
			t.Fatalf("site %s hit %d fired twice", e.Site, e.Hit)
		}
		seenHit[e.Site][e.Hit] = true
	}
	if len(ev) == 0 {
		t.Fatal("nothing fired over 800 hits at p=0.5")
	}
}

// TestKnownSitesSorted pins that KnownSites is sorted (it renders into
// error messages and docs).
func TestKnownSitesSorted(t *testing.T) {
	var ks []string
	for _, s := range KnownSites() {
		ks = append(ks, s.String())
	}
	if !reflect.DeepEqual(ks, sortedCopy(ks)) {
		t.Fatalf("KnownSites not sorted: %v", ks)
	}
	if len(ks) != 8 {
		t.Fatalf("expected the 8 documented sites, got %v", ks)
	}
}
