// Package faults is a deterministic, seeded fault injector for the
// serving stack: named injection sites threaded through internal/serve
// decide — from per-site seeded random streams, never from wall-clock
// state — whether to fail, delay, or fire at each hit. A nil *Injector
// is the canonical "chaos off" value (mirroring internal/obs): every
// method is a nil-guarded no-op, so production code pays one nil check
// per site and the bench gate cannot see the difference.
//
// Determinism contract: each armed site owns an independent rand stream
// seeded from (seed, site name), so the k-th hit of a site decides the
// same way in every run with that seed, regardless of how other sites
// interleave. When the workload drives sites with a deterministic
// per-site hit order (the chaos suite issues requests sequentially),
// the full injected-fault sequence — the Events log — is reproducible
// bit for bit. Decisions never read clocks or global rand, keeping the
// injector compatible with rpmlint's nondeterm discipline.
//
// Sites are armed by a spec string (see New):
//
//	store.load:p=0.5;batcher.flush:d=30ms:n=3
//
// arms a 50%-probability load error and three 30ms flush delays.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Site names one injection point. Its only values are the Site* vars
// below: the name field is unexported, so code outside this package
// cannot mint a site from a string, and consulting a site the serving
// layer does not know about is a compile error rather than a silent
// no-op. The zero Site is never armed.
type Site struct{ name string }

// String returns the site's spec name, e.g. "store.load".
func (s Site) String() string { return s.name }

// The injection sites internal/serve consults. Arming any other name is
// a spec error, so typos fail fast instead of silently injecting
// nothing.
var (
	// SiteStoreLoad fails a model snapshot read during Store.Reload,
	// exercising the corrupt-reload path (old version keeps serving).
	SiteStoreLoad = Site{"store.load"}
	// SiteFlushDelay stalls the batcher's flush for the configured d
	// before any prediction runs: a latency spike (small d) or a wedged
	// flush (large d).
	SiteFlushDelay = Site{"batcher.flush"}
	// SiteEnqueueFull makes the batcher report a saturated queue, so the
	// server sheds the request with 429 + Retry-After.
	SiteEnqueueFull = Site{"batcher.enqueue"}
	// SiteDeadline expires a request's deadline before it is enqueued,
	// exercising the queue-age admission check (504, never computed).
	SiteDeadline = Site{"server.deadline"}
	// SiteWriteFail aborts the response write of a successful
	// prediction, simulating a client connection dying at write time.
	SiteWriteFail = Site{"server.write"}
	// SiteStreamAppend sheds a stream append with 429 as if the stream
	// layer were saturated, exercising client retry against a live
	// detector (a shed append must change nothing: no samples consumed,
	// no events committed).
	SiteStreamAppend = Site{"stream.append"}
	// SiteSSEFlush stalls an SSE event flush for the configured d, a slow
	// or congested subscriber connection (events must coalesce, never
	// duplicate or drop).
	SiteSSEFlush = Site{"stream.sse.flush"}
	// SiteSSEWrite aborts an SSE connection mid-feed, a subscriber dying
	// at write time; the stream itself must be unaffected and a
	// reconnecting subscriber resumes losslessly via Last-Event-ID.
	SiteSSEWrite = Site{"stream.sse.write"}
)

// KnownSites lists every site New accepts, sorted by name.
func KnownSites() []Site {
	return []Site{
		SiteEnqueueFull,
		SiteFlushDelay,
		SiteDeadline,
		SiteWriteFail,
		SiteStoreLoad,
		SiteStreamAppend,
		SiteSSEFlush,
		SiteSSEWrite,
	}
}

// Event is one injected fault, in global injection order. Seq is
// 0-based; Hit is the 0-based per-site hit index at which the site
// fired (so per-site sequences can be compared across runs even when
// global interleaving differs).
type Event struct {
	Seq  int    `json:"seq"`
	Site string `json:"site"`
	Kind string `json:"kind"` // "error", "delay" or "fire"
	Hit  int    `json:"hit"`
}

// site is the armed configuration and mutable state of one injection
// point.
type site struct {
	name  string
	p     float64       // fire probability per hit, (0,1]
	n     int           // max fires; 0 = unlimited
	skip  int           // hits to pass through before the first decision
	delay time.Duration // Sleep duration when fired

	rng   *rand.Rand
	hits  int
	fired int
}

// Injector decides fault injection at named sites. Construct with New;
// nil means "no chaos" and every method no-ops.
type Injector struct {
	mu    sync.Mutex
	sites map[string]*site
	log   []Event
}

// Fault is the error an armed error-site injects. It unwraps to
// nothing: the serving layer treats it exactly like the I/O failure it
// stands in for.
type Fault struct {
	Site string
	Hit  int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected failure at %s (hit %d)", f.Site, f.Hit)
}

// New parses a spec and returns an armed injector. The spec is a ';'-
// or ','-separated list of sites, each "name[:key=value]...":
//
//	p=0.5    fire with probability 0.5 per hit (default 1: every hit)
//	n=3      stop after 3 fires (default 0: unlimited)
//	skip=2   pass the first 2 hits through undecided
//	d=30ms   delay injected by Sleep sites (default 0)
//
// An empty spec returns (nil, nil): chaos off. Unknown site names and
// malformed options are errors.
func New(seed int64, spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	known := map[string]bool{}
	var names []string
	for _, s := range KnownSites() {
		known[s.name] = true
		names = append(names, s.name)
	}
	in := &Injector{sites: map[string]*site{}}
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		name := strings.TrimSpace(fields[0])
		if !known[name] {
			return nil, fmt.Errorf("faults: unknown site %q (known: %s)", name, strings.Join(names, ", "))
		}
		if _, dup := in.sites[name]; dup {
			return nil, fmt.Errorf("faults: site %q armed twice", name)
		}
		st := &site{name: name, p: 1}
		for _, opt := range fields[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faults: site %q: malformed option %q (want key=value)", name, opt)
			}
			var err error
			switch k {
			case "p":
				st.p, err = strconv.ParseFloat(v, 64)
				// Written so NaN, which fails every comparison, is
				// rejected too.
				if err == nil && !(st.p > 0 && st.p <= 1) {
					err = fmt.Errorf("out of range (0,1]")
				}
			case "n":
				st.n, err = strconv.Atoi(v)
				if err == nil && st.n < 0 {
					err = fmt.Errorf("negative")
				}
			case "skip":
				st.skip, err = strconv.Atoi(v)
				if err == nil && st.skip < 0 {
					err = fmt.Errorf("negative")
				}
			case "d":
				st.delay, err = time.ParseDuration(v)
				if err == nil && st.delay < 0 {
					err = fmt.Errorf("negative")
				}
			default:
				err = fmt.Errorf("unknown key")
			}
			if err != nil {
				return nil, fmt.Errorf("faults: site %q: option %s=%s: %v", name, k, v, err)
			}
		}
		// Independent per-site stream: the same seed gives the same
		// decision sequence at this site no matter what other sites do.
		h := fnv.New64a()
		h.Write([]byte(st.name))
		st.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		in.sites[name] = st
	}
	return in, nil
}

// decide runs one hit of a site under the injector lock and returns
// (fired, per-site hit index, armed delay).
func (in *Injector) decide(s Site, kind string) (bool, int, time.Duration) {
	if in == nil {
		return false, 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.sites[s.name]
	if !ok {
		return false, 0, 0
	}
	hit := st.hits
	st.hits++
	if hit < st.skip {
		return false, hit, 0
	}
	if st.n > 0 && st.fired >= st.n {
		return false, hit, 0
	}
	// Consume one variate even at p=1 so lowering p in a spec never
	// shifts the stream alignment of later hits.
	if st.rng.Float64() >= st.p {
		return false, hit, 0
	}
	st.fired++
	in.log = append(in.log, Event{Seq: len(in.log), Site: s.name, Kind: kind, Hit: hit})
	return true, hit, st.delay
}

// Fire reports whether the site injects at this hit. No-op (false) on a
// nil injector or an unarmed site.
func (in *Injector) Fire(s Site) bool {
	fired, _, _ := in.decide(s, "fire")
	return fired
}

// Err returns the injected *Fault when the site fires, else nil.
func (in *Injector) Err(s Site) error {
	fired, hit, _ := in.decide(s, "error")
	if !fired {
		return nil
	}
	return &Fault{Site: s.name, Hit: hit}
}

// Sleep blocks for the site's configured delay when it fires and
// returns the injected duration (0 when it did not fire). The decision
// is taken under the injector lock; the sleep itself is not, so
// concurrent flushes stall independently.
func (in *Injector) Sleep(s Site) time.Duration {
	fired, _, d := in.decide(s, "delay")
	if !fired || d <= 0 {
		return 0
	}
	time.Sleep(d)
	return d
}

// Events returns a copy of the injected-fault log in injection order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}

// Armed returns the armed site names, sorted.
func (in *Injector) Armed() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.sites))
	for n := range in.sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the armed sites and their fire counts, sorted by site
// name ("chaos off" for a nil injector).
func (in *Injector) String() string {
	if in == nil {
		return "chaos off"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for n := range in.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString("; ")
		}
		st := in.sites[n]
		fmt.Fprintf(&b, "%s p=%g", n, st.p)
		if st.n > 0 {
			fmt.Fprintf(&b, " n=%d", st.n)
		}
		if st.skip > 0 {
			fmt.Fprintf(&b, " skip=%d", st.skip)
		}
		if st.delay > 0 {
			fmt.Fprintf(&b, " d=%s", st.delay)
		}
		fmt.Fprintf(&b, " (fired %d/%d hits)", st.fired, st.hits)
	}
	return b.String()
}
