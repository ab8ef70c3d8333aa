package main

import "time"

// openStats is the generator's own account of one open-loop phase: how late
// it sent each operation and how many due operations were waiting.
type openStats struct {
	late       []time.Duration // per operation sent: send time minus due time
	backlogMax int             // most operations due but not yet sent
	backlogEnd int             // the same, when the last operation was sent
	unsent     int             // operations abandoned because the schedule overran
}

// openLoop issues n = rate*dur operations on a fixed schedule starting at
// start: operation k is due at start + k/rate and is sent then, or as soon
// after as the previous call returned — one connection, so a stalled call
// delays the sends behind it, and the caller times every operation from its
// due time so the stall is charged to the operations that were due during
// it. Operations still unsent applyDeadline after the phase should have
// ended are abandoned.
func openLoop(start time.Time, rate float64, dur time.Duration, call func(k int, due time.Time)) openStats {
	n := int(rate * dur.Seconds())
	var st openStats
	giveUp := start.Add(dur + applyDeadline)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		if now.After(giveUp) {
			st.unsent = n - k
			break
		}
		st.late = append(st.late, now.Sub(due))
		// Operations due by now, minus those already sent and this one.
		st.backlogEnd = max(0, min(n, int(now.Sub(start).Seconds()*rate)+1)-k-1)
		st.backlogMax = max(st.backlogMax, st.backlogEnd)
		call(k, due)
	}
	return st
}

// closedLoop calls fn back-to-back until dur has passed or fn returns false.
func closedLoop(dur time.Duration, fn func(k int) bool) {
	start := time.Now()
	for k := 0; time.Since(start) < dur && fn(k); k++ {
	}
}
