package main

import (
	"testing"
	"time"
)

// A 200 ms stall in the target must be charged to the operations that were
// due during it — each is timed from its due time, not from when the single
// connection got round to sending it — and must show in the generator's own
// lateness.
func TestOpenLoopChargesStallToDueOps(t *testing.T) {
	const (
		rate    = 100.0
		stallAt = 20
		stall   = 200 * time.Millisecond
	)
	interval := time.Duration(float64(time.Second) / rate)
	latency := map[int]time.Duration{}
	start := time.Now().Add(5 * time.Millisecond)
	st := openLoop(start, rate, time.Second, func(k int, due time.Time) {
		if k == stallAt {
			time.Sleep(stall)
		}
		latency[k] = time.Since(due)
	})
	if len(st.late) != 100 || st.unsent != 0 {
		t.Fatalf("sent %d, unsent %d; want 100, 0", len(st.late), st.unsent)
	}
	// Operation stallAt+i was due i intervals into the stall and could only
	// be sent when it ended.
	for i := 1; i <= 10; i++ {
		want := stall - time.Duration(i)*interval
		if got := latency[stallAt+i]; got < want-2*time.Millisecond {
			t.Errorf("op %d: latency %v from its due time, want at least %v", stallAt+i, got, want)
		}
	}
	for k := 60; k < 100; k++ { // long after the backlog drained
		if latency[k] > 20*time.Millisecond {
			t.Errorf("op %d: latency %v after recovery", k, latency[k])
		}
	}
	if late, _ := tail(durationsMillis(st.late)); late < 50 {
		t.Errorf("gen.late tail = %.1f ms, want the stall to show (>= 50)", late)
	}
	if st.backlogMax < 15 {
		t.Errorf("backlogMax = %d, want about 19 operations waiting when the stall ended", st.backlogMax)
	}
	if st.backlogEnd > 1 {
		t.Errorf("backlogEnd = %d, want a drained backlog", st.backlogEnd)
	}
}

func TestOpenLoopAbandonsAnOverrunSchedule(t *testing.T) {
	// 10 operations due within 100 ms, each taking past the give-up time.
	start := time.Now().Add(-applyDeadline - 200*time.Millisecond)
	called := 0
	st := openLoop(start, 100, 100*time.Millisecond, func(int, time.Time) { called++ })
	if called != 0 || st.unsent != 10 {
		t.Errorf("called %d, unsent %d; want 0, 10", called, st.unsent)
	}
}
