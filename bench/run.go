package main

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mdv/internal/metrics"
)

// Phase shares of the -seconds budget. An untraced run spends it on a closed
// registration phase, a closed query phase and the open phase; a traced run
// on an untraced open phase for reference and the traced open phase (long
// enough for 200 samples at 25/s and the committed 15 s). The layer replays
// that follow are bounded by replayOps calls per layer, not by time.
const (
	closedRegisterShare = 0.2
	closedQueryShare    = 0.2
	openShare           = 0.6
	referenceOpenShare  = 0.45
	tracedOpenShare     = 0.55

	// setUps is how many times an untraced run sets the system up; setup_s
	// is their median.
	setUps = 3
	// replayOps bounds the operations each layer replay repeats.
	replayOps = 64
)

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// environment stamps a record with what it was measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SyncPolicy string `json:"sync_policy"`
	Shards     int    `json:"engine_shards"`
}

// phases are the literal durations and rates a record was measured with.
type phases struct {
	Seconds         float64 `json:"seconds"`
	SetUps          int     `json:"set_ups"`
	ClosedRegisterS float64 `json:"closed_register_s,omitempty"`
	ClosedQueryS    float64 `json:"closed_query_s,omitempty"`
	OpenS           float64 `json:"open_s"`
	BatchSize       int     `json:"closed_batch_docs"`
	RegisterRate    int     `json:"open_register_per_s"`
	QueryRate       int     `json:"open_query_per_s"`
}

// record is the full result of one run, written to bench/out and read back
// by -compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Env       environment       `json:"env"`
	Phases    phases            `json:"phases"`
	Flags     []string          `json:"flags,omitempty"`

	order []string // metric names in the order they were set
}

func (r *record) set(name string, value float64, unit string, samples int, note string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, Samples: samples, Note: note}
}

// print writes every metric by name with its unit and sample count.
func (r *record) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-36s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, f := range r.Flags {
		fmt.Fprintln(w, "FLAG:", f)
	}
}

type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	workDir string // the MDP's data directories are created here
	outDir  string // span files are written here
	log     io.Writer
}

// runner carries one run's state between its phases.
type runner struct {
	cfg runConfig
	st  *stack
	rec *record
	cal *calibration
}

func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload sets the system up, measures it, checks its outputs and tears
// it down.
func runWorkload(cfg runConfig) (*record, error) {
	s := cfg.spec
	rec := &record{
		Workload: s.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metric{},
		Env: environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), SyncPolicy: syncPolicyName, Shards: engineOptions().Shards},
		Phases: phases{Seconds: cfg.seconds, SetUps: setUps, BatchSize: min(batchSize, s.docs),
			RegisterRate: s.regRate, QueryRate: s.queryRate},
	}
	if cfg.trace {
		rec.Phases.SetUps = 1 // setup_s is an untraced metric
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d rules, %d docs, %d LMRs in %d interest groups; nproc %d GOMAXPROCS %d %s wal-sync %s\n",
		s.name, cfg.seed, s.ruleCount(), s.docs, s.lmrs, s.groups,
		rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, syncPolicyName)

	expect := make([][]int, s.docs) // the oracle's model, built off the clock
	for d := range expect {
		expect[d] = s.expectedLMRs(d)
	}
	var st *stack
	var setups, slowdowns []float64
	cal := newCalibration()
	for i := 0; i < rec.Phases.SetUps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		// Every set-up starts from the same seeded inputs, so the system
		// measured is the same whichever set-up it came from.
		if st, err = setUp(s, newInputs(s, cfg.seed), expect, cfg.workDir, cal); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		took := time.Since(t0).Seconds()
		slow := cal.slowdown()
		setups, slowdowns = append(setups, took/slow), append(slowdowns, slow)
	}
	defer st.close()
	r := &runner{cfg: cfg, st: st, rec: rec, cal: cal}
	var err error
	if cfg.trace {
		err = r.traced()
	} else {
		rec.set("setup_s", median(setups), "s", len(setups), fmt.Sprintf("median; box slowdowns %.3f", slowdowns))
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	if problems := r.oracle(); len(problems) > 0 {
		rec.Correct = false
		for _, p := range problems {
			rec.Flags = append(rec.Flags, "oracle: "+p)
		}
	}
	return rec, nil
}

// closedWindow is how many batches the closed phase keeps in flight: the
// registrar sends the next batch as soon as the previous one is acknowledged,
// unless closedWindow batches have not yet reached all their LMRs. Without
// the bound a registrar faster than the LMRs' apply builds a backlog for as
// long as the phase lasts, and the rate would be the MDP's alone, not the
// register → LMR-applied pipeline's.
const closedWindow = 4

// queryGroup is how many consecutive closed-phase queries make one
// throughput sample: one of each shape of the full mix.
const queryGroup = 3

// closedRegister sends batches of changed documents back-to-back for dur and
// waits for the last to be applied.
func (r *runner) closedRegister(dur time.Duration) (ops []*op) {
	n := min(batchSize, r.cfg.spec.docs)
	var inFlight [][]*op
	closedLoop(dur, func(int) bool {
		for len(inFlight) >= closedWindow {
			if r.st.track.applied(inFlight[0]) {
				inFlight = inFlight[1:]
			} else if time.Since(inFlight[0][0].sent) > applyDeadline {
				return false
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
		batch, err := r.st.register(time.Now(), r.st.in.nextDocs(n), false)
		ops = append(ops, batch...)
		inFlight = append(inFlight, batch)
		if len(ops)/n%2 == 0 {
			r.cal.run()
		}
		return err == nil
	})
	r.st.track.quiesce(time.Now().Add(applyDeadline))
	return ops
}

// completionIntervals returns the seconds between successive moments a
// closed-phase batch had been applied at every LMR.
func (r *runner) completionIntervals(ops []*op, batch int) []float64 {
	r.st.track.mu.Lock()
	defer r.st.track.mu.Unlock()
	var done []time.Time
	for i := 0; i+batch <= len(ops); i += batch {
		var last time.Time
		for _, o := range ops[i : i+batch] {
			if o.failed() {
				last = time.Time{}
				break
			}
			if t := o.last(); t.After(last) {
				last = t
			}
		}
		if !last.IsZero() {
			done = append(done, last)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	var out []float64
	for i := 1; i < len(done); i++ {
		out = append(out, done[i].Sub(done[i-1]).Seconds())
	}
	return out
}

// queryOp is one query sent over the query connection.
type queryOp struct {
	q          question
	due        time.Time
	start, end time.Time
	err        error
}

// ask sends q to LMR 0 and checks the answer against the expected URIs.
func (r *runner) ask(q question, due time.Time) queryOp {
	qo := queryOp{q: q, due: due, start: time.Now()}
	res, err := r.st.querier.Query(q.text)
	qo.end = time.Now()
	if err != nil {
		qo.err = err
		return qo
	}
	got := make([]string, len(res))
	for i, x := range res {
		got[i] = x.URIRef
	}
	if err := sameURIs(got, q.want); err != nil {
		qo.err = fmt.Errorf("query %q: %w", q.text, err)
	}
	return qo
}

func sameURIs(got, want []string) error {
	got, want = append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		return fmt.Errorf("got %d resources %v, want %d %v", len(got), got, len(want), want)
	}
	return nil
}

// closedQuery asks queries back-to-back for dur with no writes running.
func (r *runner) closedQuery(dur time.Duration) (asked []queryOp) {
	cached := r.st.cachedAt(0)
	last := time.Now()
	closedLoop(dur, func(k int) bool {
		asked = append(asked, r.ask(r.st.in.nextQuery(k, r.cfg.spec.shapes, cached), time.Now()))
		if k%queryGroup == queryGroup-1 && time.Since(last) > 100*time.Millisecond {
			r.cal.run()
			last = time.Now()
		}
		return true
	})
	return asked
}

// openPhase is what one open phase produced.
type openPhase struct {
	ops      []*op
	queries  []queryOp
	gen      openStats // registrar
	queryGen openStats
	// cpuMarks is the process CPU time when each second's first update was
	// sent, and when the last update had been acknowledged.
	cpuMarks []cpuMark
}

type cpuMark struct {
	sent int           // updates sent before the mark
	cpu  time.Duration // less the calibration kernel's own time
}

// open runs the open phase: single-document registrations at the workload's
// fixed rate on the registrar connection, each timed from its due time, and
// beside them queries on the query connection — on their own fixed schedule,
// or back-to-back where the workload has no query rate. It returns once every
// update reached its LMRs or timed out.
func (r *runner) open(dur time.Duration) *openPhase {
	s := r.cfg.spec
	ph := &openPhase{}
	cached := r.st.cachedAt(0)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the only user of the seeded query source while the phase runs
		defer wg.Done()
		ask := func(k int, due time.Time) {
			ph.queries = append(ph.queries, r.ask(r.st.in.nextQuery(k, s.shapes, cached), due))
		}
		if s.queryRate > 0 {
			ph.queryGen = openLoop(start, float64(s.queryRate), dur, ask)
			return
		}
		time.Sleep(time.Until(start))
		closedLoop(dur, func(k int) bool {
			ask(k, time.Now())
			return true
		})
	}()
	ph.gen = openLoop(start, float64(s.regRate), dur, func(k int, due time.Time) {
		if k%s.regRate == 0 {
			ph.cpuMarks = append(ph.cpuMarks, cpuMark{k, cpuTime() - r.cal.total})
		}
		ops, _ := r.st.register(due, r.st.in.nextDocs(1), false)
		if r.cfg.trace {
			ops[0].logSeq = r.st.prov.LogSeq()
		}
		ph.ops = append(ph.ops, ops...)
		if k%5 == 0 {
			r.cal.run()
		}
	})
	ph.cpuMarks = append(ph.cpuMarks, cpuMark{len(ph.ops), cpuTime() - r.cal.total})
	wg.Wait()
	r.st.track.quiesce(start.Add(dur + applyDeadline))
	return ph
}

// tally counts operations and failures into the record.
func (r *runner) tally(ops []*op, queries []queryOp, unsent int) {
	r.st.track.mu.Lock()
	defer r.st.track.mu.Unlock()
	r.rec.Attempted += len(ops) + len(queries) + unsent
	r.rec.Failed += unsent
	for _, o := range ops {
		if o.failed() {
			r.rec.Failed++
			if o.err != nil {
				r.flagOnce(fmt.Sprintf("registration failed: %v", o.err))
			} else {
				r.flagOnce(fmt.Sprintf("%s@%d did not reach every LMR within %v", docURI(o.doc), o.version, applyDeadline))
			}
		}
	}
	for _, q := range queries {
		if q.err != nil {
			r.rec.Failed++
			r.rec.Correct = false
			r.flagOnce(q.err.Error())
		}
	}
}

// flagOnce keeps the first few distinct problems; a broken run would
// otherwise print thousands.
func (r *runner) flagOnce(msg string) {
	if len(r.rec.Flags) < 8 {
		r.rec.Flags = append(r.rec.Flags, msg)
	}
}

// latencies extracts the open phase's per-op samples, in milliseconds, from
// the ops that succeeded.
func (r *runner) latencies(ph *openPhase) (ack, propagate, query []float64) {
	r.st.track.mu.Lock()
	defer r.st.track.mu.Unlock()
	for _, o := range ph.ops {
		if o.failed() {
			continue
		}
		ack = append(ack, millis(o.acked.Sub(o.due)))
		propagate = append(propagate, millis(o.last().Sub(o.due)))
	}
	for _, q := range ph.queries {
		if q.err == nil {
			query = append(query, millis(q.end.Sub(q.due)))
		}
	}
	return ack, propagate, query
}

// setTail reports the tail percentile the sample supports.
func (r *runner) setTail(name string, samples []float64) {
	v, q := tail(samples)
	note := ""
	if q != 0.95 {
		note = fmt.Sprintf("p%.1f: fewer than %d samples beyond p95", q*100, tailSamples)
	}
	r.rec.set(name, v, "ms", len(samples), note)
}

// sustainable flags an open phase whose rate the system could not sustain (it
// ended with operations waiting), and one whose generator ran late: the
// latencies stay valid, being timed from the due times, but they then
// include the generator's own wait for a core.
func (r *runner) sustainable(ph *openPhase, propagateP50 float64) {
	lateP95, _ := tail(durationsMillis(ph.gen.late))
	if lateP95 > 0.1*propagateP50 {
		r.rec.Flags = append(r.rec.Flags, fmt.Sprintf(
			"late generator: send lateness p95 %.3f ms exceeds 10%% of the measured propagate p50 %.3f ms", lateP95, propagateP50))
	}
	if ph.gen.backlogEnd > 1 || ph.gen.unsent > 0 {
		r.rec.Flags = append(r.rec.Flags, fmt.Sprintf(
			"unsustainable: open phase ended with %d operations waiting and %d unsent at %d/s",
			ph.gen.backlogEnd, ph.gen.unsent, r.cfg.spec.regRate))
	}
}

func durationsMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() error {
	rec, sec := r.rec, r.cfg.seconds
	rec.Correct = true
	rec.Phases.ClosedRegisterS = share(sec, closedRegisterShare).Seconds()
	rec.Phases.ClosedQueryS = share(sec, closedQueryShare).Seconds()
	rec.Phases.OpenS = share(sec, openShare).Seconds()

	// Rates and CPU are medians over small slices of a phase, not phase
	// totals: a stall of the box (a neighbour's burst, a slow fsync) then
	// spoils one slice instead of the run. Every time and rate is then put
	// at the reference box speed by the slowdown its phase saw.
	closedOps := r.closedRegister(share(sec, closedRegisterShare))
	slow := r.cal.slowdown()
	r.tally(closedOps, nil, 0)
	batch := rec.Phases.BatchSize
	intervals := r.completionIntervals(closedOps, batch)
	if len(intervals) == 0 {
		return fmt.Errorf("closed phase completed fewer than two batches: %v", rec.Flags)
	}
	rec.set("register_docs_per_s", float64(batch)/median(intervals)*slow, "1/s", len(closedOps),
		fmt.Sprintf("closed, batch %d, at most %d batches not yet applied; median over %d batch completions; box slowdown %.3f",
			batch, closedWindow, len(intervals), slow))

	asked := r.closedQuery(share(sec, closedQueryShare))
	slow = r.cal.slowdown()
	r.tally(nil, asked, 0)
	var groups []float64
	for i := 0; i+queryGroup <= len(asked); i += queryGroup {
		groups = append(groups, asked[i+queryGroup-1].end.Sub(asked[i].start).Seconds())
	}
	if len(groups) == 0 {
		return fmt.Errorf("closed phase answered fewer than %d queries: %v", queryGroup, rec.Flags)
	}
	rec.set("queries_per_s", queryGroup/median(groups)*slow, "1/s", len(asked),
		fmt.Sprintf("closed, no writes; median over %d groups of %d queries; box slowdown %.3f", len(groups), queryGroup, slow))

	ph := r.open(share(sec, openShare))
	slow = r.cal.slowdown()
	r.tally(ph.ops, ph.queries, ph.gen.unsent+ph.queryGen.unsent)
	ack, propagate, query := r.latencies(ph)
	if len(ack) == 0 || len(query) == 0 {
		return fmt.Errorf("open phase completed too few operations: %v", rec.Flags)
	}
	r.sustainable(ph, median(propagate))
	note := fmt.Sprintf("box slowdown %.3f", slow)
	rec.set("register_ack_p50_ms", median(ack)/slow, "ms", len(ack), note)
	rec.set("propagate_p50_ms", median(propagate)/slow, "ms", len(propagate), note)
	rec.set("query_p50_ms", median(query)/slow, "ms", len(query), note)
	var cpu []float64
	for i := 1; i < len(ph.cpuMarks); i++ {
		if a, b := ph.cpuMarks[i-1], ph.cpuMarks[i]; b.sent > a.sent {
			cpu = append(cpu, millis(b.cpu-a.cpu)/float64(b.sent-a.sent))
		}
	}
	// The open phase's fixed schedule makes each second the same work:
	// regRate updates applied at every LMR, beside the queries.
	rec.set("cpu_ms_per_doc", median(cpu)/slow, "ms", len(ph.ops),
		fmt.Sprintf("user+sys, open phase; median over %d one-second slices; %s", len(cpu), note))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 0, "HeapAlloc after forced GC")
	return nil
}

// traced measures the per-layer metrics: an untraced open phase for
// reference, the same phase again with the MDP's registries enabled and
// LMR 0's pushes captured, then the captured inputs replayed through each
// layer's public entry point.
func (r *runner) traced() error {
	rec, sec := r.rec, r.cfg.seconds
	rec.Correct = true
	dur := share(sec, tracedOpenShare)
	rec.Phases.OpenS = dur.Seconds()

	ref := r.open(share(sec, referenceOpenShare))
	r.tally(ref.ops, ref.queries, ref.gen.unsent+ref.queryGen.unsent)
	_, refPropagate, _ := r.latencies(ref)

	reg := metrics.NewRegistry()
	r.st.prov.EnableMetrics(reg)
	before := scrape(reg)
	bytesBefore := r.bytesRead()
	seqBefore := r.st.prov.LogSeq()
	r.st.track.startCapture()
	ph := r.open(dur)
	pushes := r.st.track.stopCapture()
	after := scrape(reg)
	r.tally(ph.ops, ph.queries, ph.gen.unsent+ph.queryGen.unsent)
	ack, propagate, query := r.latencies(ph)
	if len(refPropagate) == 0 || len(propagate) == 0 || len(query) == 0 {
		return fmt.Errorf("open phase completed no operation: %v", rec.Flags)
	}
	r.sustainable(ph, median(propagate))

	rec.set("failed_share", float64(rec.Failed)/float64(rec.Attempted), "share", rec.Attempted, "both open phases")
	lateP95, _ := tail(durationsMillis(ph.gen.late))
	rec.set("gen.late_p95_ms", lateP95, "ms", len(ph.gen.late), "")
	rec.set("gen.open_backlog_max", float64(ph.gen.backlogMax), "count", len(ph.gen.late), "")
	r.setTail("register_ack_p95_ms", ack)
	r.setTail("propagate_p95_ms", propagate)
	r.setTail("query_p95_ms", query)
	rec.set("box.slowdown", r.cal.slowdown(), "share", 0,
		"calibration kernel time over its reference during the traced phase; per-layer metrics are as measured")

	tr := &tracer{}
	live := r.liveSpans(tr, ph)
	lay := &layers{r: r, tr: tr, live: live, ph: ph, pushes: pushes}
	lay.liveMetrics()
	lay.registryMetrics(before, after, float64(r.bytesRead()-bytesBefore))
	if err := lay.replay(seqBefore); err != nil {
		return err
	}
	rec.set("trace.overhead_share", (median(propagate)-median(refPropagate))/median(refPropagate), "share", len(propagate),
		fmt.Sprintf("propagate_p50_ms traced %.3f vs untraced %.3f", median(propagate), median(refPropagate)))
	rec.set("trace.unattributed_share", 1-lay.blockingMS/median(propagate), "share", 0,
		fmt.Sprintf("layer replay p50s on the blocking path sum to %.3f ms of %.3f", lay.blockingMS, median(propagate)))
	path := filepath.Join(r.cfg.outDir, "trace-"+r.cfg.spec.name+".jsonl")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(r.cfg.log, "%d spans written to %s\n", len(tr.spans), path)
	return nil
}

// bytesRead sums the bytes every LMR connection has read from the MDP.
func (r *runner) bytesRead() uint64 {
	var n uint64
	for _, c := range r.st.conns {
		n += c.BytesRead()
	}
	return n
}
