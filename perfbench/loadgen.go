package main

import "time"

// Shot is one open-loop request: when it was due, when it went out,
// when its reply was in, and how late the generator itself was.
type Shot struct {
	Due, Sent, Done time.Time
	// Lag is how late the generator sent the request once a connection
	// was free: Sent minus the later of Due and the moment the
	// connection came free. Waiting behind a slow earlier reply is
	// backlog, not lag.
	Lag time.Duration
	Err error
}

// Latency is timed from the due time, so a stall also charges the
// requests queued behind it.
func (s Shot) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Lateness is how long after its due time the request went out.
func (s Shot) Lateness() time.Duration { return s.Sent.Sub(s.Due) }

// OpenLoop sends the floor(rate×dur) requests due at start + i/rate over
// one connection. It sleeps until a request is due if the connection is
// free earlier, sends it, and waits for the reply. Due times never
// shift: a late reply makes the following requests late, and their
// latency counts that wait. No request goes out after cutoff; the ones
// still waiting then are returned as unsent, the backlog the schedule
// left behind.
func OpenLoop(start time.Time, rate float64, dur time.Duration, cutoff time.Time, op func(i int) error) (shots []Shot, unsent int) {
	n := int(rate * dur.Seconds())
	for i := range n {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		free := time.Now()
		if free.After(cutoff) {
			return shots, n - i
		}
		if d := due.Sub(free); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := op(i)
		shots = append(shots, Shot{Due: due, Sent: sent, Done: time.Now(), Lag: sent.Sub(laterOf(due, free)), Err: err})
	}
	return shots, 0
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// RungStats summarizes one rung of a schedule.
type RungStats struct {
	Target   float64 // requests per second asked for
	Achieved float64 // successful replies per second, first due to last reply
	Sent     int
	Unsent   int // still due when the rung was cut off
	Failed   int
	Latency  Dist // ms, successful requests only
	Lag      Dist // ms, generator lag
	// EndLateness is how late the rung's last request went out: the
	// backlog left when the schedule ended.
	EndLateness time.Duration
}

// Summarize computes a rung's statistics from its shots.
func Summarize(target float64, shots []Shot, unsent int) RungStats {
	st := RungStats{Target: target, Sent: len(shots), Unsent: unsent}
	if len(shots) == 0 {
		return st
	}
	var lat, lag []time.Duration
	last := shots[0].Done
	for _, s := range shots {
		lag = append(lag, s.Lag)
		if s.Err != nil {
			st.Failed++
			continue
		}
		lat = append(lat, s.Latency())
		if s.Done.After(last) {
			last = s.Done
		}
	}
	st.Latency = DurDist(lat, time.Millisecond)
	st.Lag = DurDist(lag, time.Millisecond)
	st.EndLateness = shots[len(shots)-1].Lateness()
	if span := last.Sub(shots[0].Due).Seconds(); span > 0 {
		st.Achieved = float64(len(lat)) / span
	}
	return st
}

// Meets reports whether the rung kept its p99 within limit with no
// failures and no backlog left behind: a failed request misses the
// limit, a p99 resting on fewer than ten samples beyond it proves
// nothing, and an unsent request or a last request sent later than the
// limit means the queue was still growing.
func (r RungStats) Meets(limit time.Duration) bool {
	limitMS := float64(limit) / float64(time.Millisecond)
	return r.Sent > 0 && r.Failed == 0 && r.Unsent == 0 && r.Latency.Supported(0.99) &&
		r.Latency.Quantile(0.99) <= limitMS && r.EndLateness <= limit
}
