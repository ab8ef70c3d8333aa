package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/client"
	"mdv/internal/core"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
)

// applyDeadline is how long after its due time an update may take to reach
// every expected LMR before it counts as failed.
const applyDeadline = 5 * time.Second

// op is one registered document version, followed from its due time to its
// application at every expected LMR.
type op struct {
	doc, version int
	due          time.Time
	sent, acked  time.Time
	err          error
	logSeq       uint64 // changelog tail after the ack (traced runs only)
	expect       []int  // LMRs that must apply this version
	// arrive and applied are indexed like expect: when the decoded push
	// was handed to the node, and when the node had applied it.
	arrive, applied []time.Time
	pending         int
}

// last is when the last expected LMR had applied the version.
func (o *op) last() time.Time {
	var t time.Time
	for _, a := range o.applied {
		if a.After(t) {
			t = a
		}
	}
	return t
}

// failed reports whether the call erred or an expected LMR missed the
// deadline.
func (o *op) failed() bool {
	return o.err != nil || o.pending > 0 || o.last().Sub(o.due) > applyDeadline
}

// push is one changeset delivered to an LMR, kept for the layer replays.
type push struct {
	seq          uint64
	cs           *core.Changeset
	arrive, done time.Time
}

// tracker matches pushed changesets back to the ops that caused them. The
// version in serverPort identifies the op; versions are unique per run.
type tracker struct {
	mu          sync.Mutex
	ops         map[int]*op
	outstanding int
	// capture keeps the pushes of LMR 0 while set.
	capture  bool
	captured []push
}

func newTracker() *tracker { return &tracker{ops: map[int]*op{}} }

func (t *tracker) add(o *op) {
	t.mu.Lock()
	t.ops[o.version] = o
	t.outstanding++
	t.mu.Unlock()
}

// fail marks an op whose registration call erred as settled.
func (t *tracker) fail(o *op, err error) {
	t.mu.Lock()
	o.err = err
	if o.pending > 0 {
		t.outstanding--
	}
	t.mu.Unlock()
}

// observe records one applied push at LMR j.
func (t *tracker) observe(j int, seq uint64, cs *core.Changeset, arrive, done time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capture && j == 0 {
		t.captured = append(t.captured, push{seq, cs, arrive, done})
	}
	for _, version := range versionsOf(cs) {
		o := t.ops[version]
		if o == nil || o.err != nil {
			continue
		}
		for x, lmr := range o.expect {
			if lmr == j && o.applied[x].IsZero() {
				o.arrive[x], o.applied[x] = arrive, done
				if o.pending--; o.pending == 0 {
					t.outstanding--
				}
			}
		}
	}
}

// quiesce waits until every tracked op has reached all its LMRs, or until
// the deadline.
func (t *tracker) quiesce(deadline time.Time) bool {
	for {
		t.mu.Lock()
		n := t.outstanding
		t.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// applied reports whether every op of a batch has reached all its LMRs (or
// failed).
func (t *tracker) applied(batch []*op) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range batch {
		if o.err == nil && o.pending > 0 {
			return false
		}
	}
	return true
}

func (t *tracker) startCapture() {
	t.mu.Lock()
	t.capture, t.captured = true, nil
	t.mu.Unlock()
}

func (t *tracker) stopCapture() []push {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capture = false
	return t.captured
}

// tap is the lmr.ProviderAPI a node is given: the wire client, with the
// Attach callback wrapped so the benchmark sees each decoded push enter the
// node and the node finish applying it. Resume and Ack pass through.
type tap struct {
	*client.MDP
	lmr   int
	track *tracker
}

func (t tap) Attach(subscriber string, apply func(seq uint64, reset bool, cs *core.Changeset) error) error {
	return t.MDP.Attach(subscriber, func(seq uint64, reset bool, cs *core.Changeset) error {
		arrive := time.Now()
		err := apply(seq, reset, cs)
		t.track.observe(t.lmr, seq, cs, arrive, time.Now())
		return err
	})
}

// stack is one booted system: a durable MDP served on loopback, the LMR
// nodes attached to it over wire connections, one registrar connection and
// one query connection to LMR 0.
type stack struct {
	spec      spec
	schema    *rdf.Schema
	dir       string
	prov      *provider.Provider
	nodes     []*lmr.Node
	conns     []*client.MDP // one per node, index-aligned
	registrar *client.MDP
	querier   *client.LMR
	track     *tracker
	in        *inputs
	expect    [][]int // per document, the LMRs that cache it
	latest    []int   // per document, the last version registered
}

// engineOptions are cmd/mdp's defaults: one triggering shard per core.
func engineOptions() core.Options { return core.Options{Shards: runtime.GOMAXPROCS(0)} }

// syncPolicy is cmd/mdp's default flush policy.
const (
	syncPolicy     = changelog.SyncGroup
	syncPolicyName = "group"
)

// setUp boots the system and brings it to the measured steady state: rules
// subscribed through Node.AddSubscription, every document registered once,
// one warm-up pass of updates at both batch sizes, all deliveries applied.
// It runs the calibration kernel as it goes.
func setUp(s spec, in *inputs, expect [][]int, workDir string, cal *calibration) (st *stack, err error) {
	dir, err := os.MkdirTemp(workDir, "mdp-"+s.name+"-")
	if err != nil {
		return nil, err
	}
	st = &stack{spec: s, schema: s.schema(), dir: dir, track: newTracker(), in: in,
		expect: expect, latest: make([]int, s.docs)}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.prov, err = provider.OpenDurable("mdp", st.schema, dir,
		provider.DurableOptions{Sync: syncPolicy, EngineOptions: engineOptions()})
	if err != nil {
		return st, err
	}
	addr, err := st.prov.Serve("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	if st.registrar, err = client.DialMDP(addr); err != nil {
		return st, err
	}
	if s.payload > 0 {
		// Registered before any subscription: it matches no rule, but every
		// upsert carries it in its strong closure.
		if err := st.registrar.RegisterDocuments([]*rdf.Document{s.payloadDocument()}); err != nil {
			return st, err
		}
	}
	for j := 0; j < s.lmrs; j++ {
		conn, err := client.DialMDP(addr)
		if err != nil {
			return st, err
		}
		st.conns = append(st.conns, conn)
		node, err := lmr.New(fmt.Sprintf("lmr-%d", j), st.schema, tap{conn, j, st.track})
		if err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, node)
	}
	for k := 0; k < s.ruleCount(); k++ {
		rule := s.rule(k)
		for _, j := range s.owners(k) {
			if _, err := st.nodes[j].AddSubscription(rule); err != nil {
				return st, fmt.Errorf("subscribe rule %d at lmr-%d: %w", k, j, err)
			}
		}
		if k%50 == 0 {
			cal.run()
		}
	}
	queryAddr, err := st.nodes[0].Serve("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	if st.querier, err = client.DialLMR(queryAddr); err != nil {
		return st, err
	}

	// Preload in document order, then warm both batch sizes so the measured
	// phases see only updates of cached documents on warmed code paths.
	for d := 0; d < s.docs; d += 100 {
		n := min(100, s.docs-d)
		docs := make([]int, n)
		for i := range docs {
			docs[i] = d + i
		}
		if _, err := st.register(time.Now(), docs, false); err != nil {
			return st, err
		}
		cal.run()
	}
	for i := 0; i < 2; i++ {
		if _, err := st.register(time.Now(), in.nextDocs(min(batchSize, s.docs)), false); err != nil {
			return st, err
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := st.register(time.Now(), in.nextDocs(1), false); err != nil {
			return st, err
		}
	}
	if !st.track.quiesce(time.Now().Add(30 * time.Second)) {
		return st, fmt.Errorf("set-up deliveries did not reach every LMR")
	}
	for i := 0; i < 3; i++ { // a small rule base leaves few samples above
		cal.run()
	}
	return st, nil
}

// register sends one registration of fresh versions of docs — over the
// registrar connection, or in-process for the provider layer replay — and
// returns its ops. A failed call is recorded on the ops and returned.
func (st *stack) register(due time.Time, docs []int, inProcess bool) ([]*op, error) {
	batch := make([]*rdf.Document, len(docs))
	ops := make([]*op, len(docs))
	for i, d := range docs {
		v := st.in.nextVersion()
		batch[i] = st.spec.document(d, v)
		n := len(st.expect[d])
		ops[i] = &op{doc: d, version: v, due: due, expect: st.expect[d],
			arrive: make([]time.Time, n), applied: make([]time.Time, n), pending: n}
		st.track.add(ops[i])
		st.latest[d] = v
	}
	sent := time.Now()
	var err error
	if inProcess {
		err = st.prov.RegisterDocuments(batch)
	} else {
		err = st.registrar.RegisterDocuments(batch)
	}
	acked := time.Now()
	for _, o := range ops {
		o.sent, o.acked = sent, acked
		if err != nil {
			st.track.fail(o, err)
		}
	}
	return ops, err
}

// cachedAt lists, ascending, the documents LMR j must cache.
func (st *stack) cachedAt(j int) []int {
	var out []int
	for d, lmrs := range st.expect {
		for _, l := range lmrs {
			if l == j {
				out = append(out, d)
			}
		}
	}
	return out
}

// close stops every connection, node and the MDP, and removes the MDP's
// data directory.
func (st *stack) close() {
	if st.querier != nil {
		st.querier.Close()
	}
	if st.registrar != nil {
		st.registrar.Close()
	}
	for _, c := range st.conns {
		c.Close()
	}
	for _, n := range st.nodes {
		n.Close()
	}
	if st.prov != nil {
		st.prov.Close()
	}
	os.RemoveAll(st.dir)
}
