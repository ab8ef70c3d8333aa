package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Live spans were observed
// while the traced phase ran; replay spans time one call into a layer's
// public entry point, made after the phase with the op's captured input,
// and hang under the live span they explain.
type span struct {
	ID     int
	Parent int    // 0 = none
	Op     string // shared by every span of one operation: "doc URI @ version" or "query #k"
	Name   string
	Start  time.Time
	End    time.Time
	Replay bool
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: live spans are built from the tracker's records after a phase.
type tracer struct {
	spans []span
}

// add appends a span and returns its id.
func (t *tracer) add(parent int, op, name string, start, end time.Time, replay bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end, Replay: replay})
	return id
}

// timed runs fn as one replay span under parent.
func (t *tracer) timed(parent int, op, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, op, name, start, end, true)
	return end.Sub(start)
}

// selfTimes returns each span's self time by id: its duration minus the
// part its children cover. Live children cover the union of their intervals
// clipped to the parent; replay children ran at another time, so each
// covers its own duration. Cover never exceeds the parent's duration.
func (t *tracer) selfTimes() map[int]time.Duration {
	type iv struct{ a, b time.Time }
	live := map[int][]iv{}
	replay := map[int]time.Duration{}
	byID := map[int]*span{}
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	for i := range t.spans {
		c := &t.spans[i]
		p := byID[c.Parent]
		if p == nil {
			continue
		}
		if c.Replay {
			replay[p.ID] += c.dur()
			continue
		}
		a, b := c.Start, c.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			live[p.ID] = append(live[p.ID], iv{a, b})
		}
	}
	out := make(map[int]time.Duration, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		ivs := live[s.ID]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var end time.Time
		for _, v := range ivs {
			if v.a.After(end) {
				covered += v.b.Sub(v.a)
				end = v.b
			} else if v.b.After(end) {
				covered += v.b.Sub(end)
				end = v.b
			}
		}
		covered += replay[s.ID]
		out[s.ID] = max(0, s.dur()-covered)
	}
	return out
}

// write stores the spans as JSON lines, times in microseconds from the
// first span's start.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := t.selfTimes()
	var zero time.Time
	if len(t.spans) > 0 {
		zero = t.spans[0].Start
		for i := range t.spans {
			if t.spans[i].Start.Before(zero) {
				zero = t.spans[i].Start
			}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		err := enc.Encode(struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent,omitempty"`
			Op      string  `json:"op,omitempty"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
			SelfUS  float64 `json:"self_us"`
			Replay  bool    `json:"replay,omitempty"`
		}{s.ID, s.Parent, s.Op, s.Name, micros(s.Start.Sub(zero)), micros(s.dur()), micros(self[s.ID]), s.Replay})
		if err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
