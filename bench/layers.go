package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/query"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/rules"
	"mdv/internal/wire"
)

// opSpans are the live span ids of one registration.
type opSpans struct {
	register      int
	arrive, apply []int // indexed like op.expect
}

// liveSet maps the traced phase's operations to their live spans.
type liveSet struct {
	ops     map[*op]opSpans
	queries []int // client.query span per openPhase.queries index
}

func opName(o *op) string { return fmt.Sprintf("%s@%d", docURI(o.doc), o.version) }

// liveSpans builds the boundary spans of the traced phase from what the
// generator and the LMR taps recorded: per registration, gen.wait (due to
// send), client.register (send to durable ack), and per expected LMR
// lmr.push_arrive (send to the decoded push entering the node) and
// lmr.apply (the node's apply call), all under one span from the due time to
// the last LMR's apply; per query, gen.wait and client.query.
func (r *runner) liveSpans(tr *tracer, ph *openPhase) liveSet {
	r.st.track.mu.Lock()
	defer r.st.track.mu.Unlock()
	live := liveSet{ops: map[*op]opSpans{}}
	for _, o := range ph.ops {
		if o.failed() {
			continue
		}
		name := opName(o)
		root := tr.add(0, name, "op.propagate", o.due, o.last(), false)
		tr.add(root, name, "gen.wait", o.due, o.sent, false)
		sp := opSpans{register: tr.add(root, name, "client.register", o.sent, o.acked, false)}
		for x, j := range o.expect {
			lmr := fmt.Sprintf("[lmr-%d]", j)
			sp.arrive = append(sp.arrive, tr.add(root, name, "lmr.push_arrive"+lmr, o.sent, o.arrive[x], false))
			sp.apply = append(sp.apply, tr.add(root, name, "lmr.apply"+lmr, o.arrive[x], o.applied[x], false))
		}
		live.ops[o] = sp
	}
	for k, q := range ph.queries {
		name := fmt.Sprintf("query #%d", k)
		root := tr.add(0, name, "op.query", q.due, q.end, false)
		tr.add(root, name, "gen.wait", q.due, q.start, false)
		live.queries = append(live.queries, tr.add(root, name, "client.query", q.start, q.end, false))
	}
	return live
}

// layers computes the per-layer metrics of a traced run.
type layers struct {
	r      *runner
	tr     *tracer
	live   liveSet
	ph     *openPhase
	pushes []push // LMR 0's pushes during the traced phase
	// blockingMS sums the replay medians of the layers a single update
	// passes through in sequence.
	blockingMS float64
}

func (l *layers) set(name string, value float64, unit string, samples int) {
	l.r.rec.set(name, value, unit, samples, "")
}

// liveMetrics reports what the boundary spans show directly.
func (l *layers) liveMetrics() {
	var rtt, arrive, apply, queryRTT []float64
	l.r.st.track.mu.Lock()
	for _, o := range l.ph.ops {
		if o.failed() {
			continue
		}
		rtt = append(rtt, millis(o.acked.Sub(o.sent)))
		for x := range o.expect {
			arrive = append(arrive, millis(o.arrive[x].Sub(o.sent)))
			apply = append(apply, micros(o.applied[x].Sub(o.arrive[x])))
		}
	}
	l.r.st.track.mu.Unlock()
	for _, q := range l.ph.queries {
		if q.err == nil {
			queryRTT = append(queryRTT, millis(q.end.Sub(q.start)))
		}
	}
	l.set("client.register_rtt_p50_ms", median(rtt), "ms", len(rtt))
	l.set("client.query_rtt_p50_ms", median(queryRTT), "ms", len(queryRTT))
	l.set("lmr.push_arrive_p50_ms", median(arrive), "ms", len(arrive))
	l.set("lmr.apply_us_per_push", mean(apply), "us", len(apply))
	p95, _ := tail(apply)
	l.set("lmr.apply_p95_us", p95, "us", len(apply))
}

// scrape reads every sample of a registry, keyed as the text exposition
// prints it: name{labels}.
func scrape(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(reg.Text(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// registryMetrics reports the program's own instruments over the traced
// phase: the difference between the two scrapes, per registered document or
// per observation.
func (l *layers) registryMetrics(before, after map[string]float64, pushBytes float64) {
	delta := func(key string) float64 { return after[key] - before[key] }
	sum := func(prefix string) float64 { // over every label set of one family
		var s float64
		for k := range after {
			if k == prefix || strings.HasPrefix(k, prefix+"{") {
				s += delta(k)
			}
		}
		return s
	}
	perObs := func(family string) float64 { // histogram mean
		if n := sum(family + "_count"); n > 0 {
			return sum(family+"_sum") / n
		}
		return 0
	}
	docs := float64(len(l.ph.ops))
	n := len(l.ph.ops)
	for _, stage := range []string{"prepare", "lock_wait", "triggering", "join", "changeset"} {
		l.set("core.stage_"+stage+"_us", delta(`mdv_publish_stage_seconds_sum{stage="`+stage+`"}`)*1e6/docs, "us", n)
	}
	l.set("rdb.sql_stmts_per_doc", sum("mdv_sql_statements_total")/docs, "count", n)
	l.set("rdb.sql_us_per_doc", sum("mdv_sql_statement_seconds_sum")*1e6/docs, "us", n)
	hit, miss := delta(`mdv_sql_plan_cache_total{result="hit"}`), delta(`mdv_sql_plan_cache_total{result="miss"}`)
	share := 0.0
	if hit+miss > 0 {
		share = hit / (hit + miss)
	}
	l.set("rdb.plan_cache_hit_share", share, "share", int(hit+miss))
	l.set("changelog.fsyncs_per_doc", delta("mdv_changelog_fsyncs_total")/docs, "count", n)
	l.set("changelog.group_commit_records", perObs("mdv_changelog_group_commit_records"), "count", int(sum("mdv_changelog_group_commit_records_count")))
	l.set("provider.fanout_us", perObs("mdv_delivery_fanout_seconds")*1e6, "us", int(sum("mdv_delivery_fanout_seconds_count")))
	l.set("provider.turnstile_wait_us", perObs("mdv_delivery_turnstile_wait_seconds")*1e6, "us", int(sum("mdv_delivery_turnstile_wait_seconds_count")))
	l.set("provider.groups_per_publish", perObs("mdv_delivery_groups_per_publish"), "count", int(sum("mdv_delivery_groups_per_publish_count")))
	var deliveries float64
	for _, o := range l.ph.ops {
		deliveries += float64(len(o.expect))
	}
	l.set("wire.push_bytes_per_lmr_doc", pushBytes/deliveries, "B", int(deliveries))
}

// versionsOf lists the document versions a changeset upserts.
func versionsOf(cs *core.Changeset) []int {
	var out []int
	for i := range cs.Upserts {
		res := cs.Upserts[i].Resource
		if res.Class != "CycleProvider" {
			continue
		}
		port, _ := res.Get("serverPort")
		if v, err := strconv.Atoi(port.Literal); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// replay runs the captured inputs of the traced phase's first replayOps
// updates through each layer's public entry point, one call at a time on
// this goroutine, one span per call under the live span it explains.
// seqBefore is the changelog tail when the traced phase began.
func (l *layers) replay(seqBefore uint64) error {
	var ops []*op
	for _, o := range l.ph.ops {
		if _, ok := l.live.ops[o]; ok && len(ops) < replayOps {
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("no update of the traced phase succeeded")
	}
	steps := []func([]*op) error{l.replayRDF, l.replayRules, l.replayCore,
		func(ops []*op) error { return l.replayChangelog(ops, seqBefore) },
		l.replayProvider, l.replayWire, l.replayRepository, l.replayQueries}
	for _, step := range steps {
		if err := step(ops); err != nil {
			return err
		}
	}
	return nil
}

// block adds a layer's replay median to the blocking-path sum.
func (l *layers) block(us []float64) { l.blockingMS += median(us) / 1000 }

func (l *layers) replayRDF(ops []*op) error {
	var write, parse []float64
	for _, o := range ops {
		doc := l.r.cfg.spec.document(o.doc, o.version)
		var buf bytes.Buffer
		var err error
		write = append(write, micros(l.tr.timed(l.live.ops[o].register, opName(o), "rdf.write", func() {
			err = rdf.WriteDocument(&buf, doc)
		})))
		if err != nil {
			return err
		}
		parse = append(parse, micros(l.tr.timed(l.live.ops[o].register, opName(o), "rdf.parse", func() {
			_, err = rdf.ParseDocument(doc.URI, &buf)
		})))
		if err != nil {
			return err
		}
	}
	l.set("rdf.write_us_per_doc", mean(write), "us", len(write))
	l.set("rdf.parse_us_per_doc", mean(parse), "us", len(parse))
	l.block(write)
	l.block(parse)
	return nil
}

// replayRules times the set-up layers: rule parsing and normalisation, and
// subscribing the rule base to a bare engine in the live order.
func (l *layers) replayRules([]*op) error {
	s, schema := l.r.cfg.spec, l.r.st.schema
	var err error
	d := l.tr.timed(0, "", "rules.parse_normalize", func() {
		for k := 0; k < s.ruleCount() && err == nil; k++ {
			var rule *rules.Rule
			if rule, err = rules.Parse(s.rule(k)); err == nil {
				_, err = rules.Normalize(rule, schema, nil)
			}
		}
	})
	if err != nil {
		return err
	}
	l.set("rules.parse_normalize_us_per_rule", micros(d)/float64(s.ruleCount()), "us", s.ruleCount())

	eng, err := core.NewEngineWithOptions(schema, engineOptions())
	if err != nil {
		return err
	}
	subs := 0
	d = l.tr.timed(0, "", "core.subscribe", func() {
		for k := 0; k < s.ruleCount() && err == nil; k++ {
			for _, j := range s.owners(k) {
				if _, _, err = eng.Subscribe(l.r.st.nodes[j].Name(), s.rule(k)); err != nil {
					break
				}
				subs++
			}
		}
	})
	if err != nil {
		return err
	}
	l.set("core.subscribe_us_per_rule", micros(d)/float64(subs), "us", subs)
	return nil
}

// replayCore clones the live engine through its snapshot and re-registers
// the captured updates on the clone at batch 1 and at the closed phase's
// batch size; the engine's work counters over the batch-1 replay repeat
// exactly for a given seed.
func (l *layers) replayCore(ops []*op) error {
	st := l.r.st
	var snap bytes.Buffer
	var err error
	save := l.tr.timed(0, "", "core.save", func() { err = st.prov.SaveSnapshot(&snap) })
	if err != nil {
		return err
	}
	size := snap.Len()
	var eng *core.Engine
	load := l.tr.timed(0, "", "core.load", func() {
		eng, err = core.LoadWithOptions(&snap, st.schema, engineOptions())
	})
	if err != nil {
		return err
	}
	l.set("core.snapshot_mb", float64(size)/(1<<20), "MB", 0)
	l.set("core.save_ms", millis(save), "ms", 1)
	l.set("core.load_ms", millis(load), "ms", 1)

	// Versions above anything registered keep every replayed document a
	// real update; the clone is private, so they never reach the live MDP.
	version := st.in.version + 1_000_000
	before := eng.Stats()
	var b1 []float64
	for _, o := range ops {
		version++
		doc := st.spec.document(o.doc, version)
		b1 = append(b1, micros(l.tr.timed(l.live.ops[o].register, opName(o), "core.register_b1", func() {
			_, err = eng.RegisterDocuments([]*rdf.Document{doc})
		})))
		if err != nil {
			return err
		}
	}
	after := eng.Stats()
	n := float64(len(ops))
	l.set("core.register_b1_us_per_doc", mean(b1), "us", len(b1))
	l.block(b1)
	count := func(name string, a, b int) { l.set(name, float64(a-b)/n, "count", len(ops)) }
	count("core.trig_matches_per_doc", after.TriggeringMatches, before.TriggeringMatches)
	count("core.join_evals_per_doc", after.JoinEvaluations, before.JoinEvaluations)
	count("core.join_matches_per_doc", after.JoinMatches, before.JoinMatches)
	count("core.filter_iters_per_doc", after.FilterIterations, before.FilterIterations)
	count("core.upserts_built_per_doc", after.UpsertsBuilt, before.UpsertsBuilt)
	count("core.changesets_built_per_doc", after.ChangesetsBuilt, before.ChangesetsBuilt)
	runs, sharded := after.FilterRuns-before.FilterRuns, after.ShardedFilterRuns-before.ShardedFilterRuns
	l.set("core.sharded_runs_share", float64(sharded)/float64(max(1, runs)), "share", runs)
	l.set("core.shard_sections_per_run", float64(after.ShardSectionsRun-before.ShardSectionsRun)/float64(max(1, sharded)), "count", sharded)

	batch := min(batchSize, st.spec.docs)
	var b16 time.Duration
	docs := 0
	for i := 0; i+batch <= len(ops); i += batch {
		in := make([]*rdf.Document, batch)
		for x, o := range ops[i : i+batch] {
			version++
			in[x] = st.spec.document(o.doc, version)
		}
		b16 += l.tr.timed(0, "", "core.register_b16", func() { _, err = eng.RegisterDocuments(in) })
		if err != nil {
			return err
		}
		docs += batch
	}
	l.set("core.register_b16_us_per_doc", micros(b16)/float64(max(1, docs)), "us", docs)
	return nil
}

// replayChangelog appends the WAL records the traced updates wrote to a
// fresh log under the MDP's flush policy: per update, its records appended
// one by one and then one wait for durability, as the provider does.
func (l *layers) replayChangelog(ops []*op, seqBefore uint64) error {
	st := l.r.st
	lastReplayed := ops[len(ops)-1].logSeq
	lastTraced := l.ph.ops[len(l.ph.ops)-1].logSeq
	type rec struct {
		seq     uint64
		payload []byte
	}
	var recs []rec
	var tracedBytes float64
	err := st.prov.ReplayLog(seqBefore+1, func(seq uint64, payload []byte) error {
		if seq <= lastTraced {
			tracedBytes += float64(len(payload))
		}
		if seq <= lastReplayed {
			recs = append(recs, rec{seq, append([]byte(nil), payload...)})
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("changelog.bytes_per_doc", tracedBytes/float64(len(l.ph.ops)), "B", len(l.ph.ops))

	dir, err := os.MkdirTemp(l.r.cfg.workDir, "wal-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := changelog.Open(dir, changelog.Options{Sync: syncPolicy})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendUS, appendPerOp, waitUS []float64
	next := 0
	for _, o := range ops {
		var seq uint64
		var opAppend float64
		for ; next < len(recs) && recs[next].seq <= o.logSeq; next++ {
			payload := recs[next].payload
			us := micros(l.tr.timed(l.live.ops[o].register, opName(o), "changelog.append", func() {
				seq, err = log.Append(payload)
			}))
			if err != nil {
				return err
			}
			appendUS = append(appendUS, us)
			opAppend += us
		}
		if seq == 0 {
			continue // the op's records were attributed to a neighbour
		}
		appendPerOp = append(appendPerOp, opAppend)
		waitUS = append(waitUS, micros(l.tr.timed(l.live.ops[o].register, opName(o), "changelog.wait_durable", func() {
			err = log.WaitDurable(seq)
		})))
		if err != nil {
			return err
		}
	}
	l.set("changelog.append_us", mean(appendUS), "us", len(appendUS))
	l.set("changelog.wait_durable_us", mean(waitUS), "us", len(waitUS))
	l.block(appendPerOp)
	l.block(waitUS)
	return nil
}

// replayProvider registers fresh versions of the captured documents on the
// live MDP in-process; the wire round trip of client.register_rtt_p50_ms
// minus this is the wire and dispatch share.
func (l *layers) replayProvider(ops []*op) error {
	var us []float64
	for _, o := range ops {
		var err error
		us = append(us, micros(l.tr.timed(l.live.ops[o].register, opName(o), "provider.register_inproc", func() {
			_, err = l.r.st.register(time.Now(), []int{o.doc}, true)
		})))
		if err != nil {
			return err
		}
	}
	if !l.r.st.track.quiesce(time.Now().Add(applyDeadline)) {
		return fmt.Errorf("in-process registrations did not reach every LMR")
	}
	l.set("provider.register_inproc_us_per_doc", mean(us), "us", len(us))
	return nil
}

// pushSpans finds the live lmr.push_arrive and lmr.apply spans at LMR 0 of
// the update a captured push carried.
func (l *layers) pushSpans(p push) (label string, arrive, apply int) {
	l.r.st.track.mu.Lock()
	defer l.r.st.track.mu.Unlock()
	for _, v := range versionsOf(p.cs) {
		o := l.r.st.track.ops[v]
		sp, ok := l.live.ops[o]
		if !ok {
			continue
		}
		for x, j := range o.expect {
			if j == 0 {
				return opName(o), sp.arrive[x], sp.apply[x]
			}
		}
	}
	return "", 0, 0
}

func (l *layers) replayPushes() []push { return l.pushes[:min(len(l.pushes), replayOps)] }

// replayWire encodes and decodes LMR 0's captured pushes the way the
// provider's fan-out and the client's read loop do.
func (l *layers) replayWire([]*op) error {
	var enc, dec []float64
	for _, p := range l.replayPushes() {
		name, parent, _ := l.pushSpans(p)
		var frame []byte
		var err error
		enc = append(enc, micros(l.tr.timed(parent, name, "wire.encode", func() {
			var body []byte
			if body, err = json.Marshal(&wire.ChangesetPush{Seq: p.seq, Changeset: p.cs}); err == nil {
				frame, err = wire.EncodeMessage(&wire.Message{Kind: wire.KindChangeset, Body: body})
			}
		})))
		if err != nil {
			return err
		}
		dec = append(dec, micros(l.tr.timed(parent, name, "wire.decode", func() {
			var m *wire.Message
			if m, err = wire.ReadMessage(bytes.NewReader(frame)); err == nil {
				err = json.Unmarshal(m.Body, new(wire.ChangesetPush))
			}
		})))
		if err != nil {
			return err
		}
	}
	l.set("wire.encode_us_per_frame", mean(enc), "us", len(enc))
	l.set("wire.decode_us_per_frame", mean(dec), "us", len(dec))
	l.block(enc)
	l.block(dec)
	return nil
}

// replayRepository applies LMR 0's captured pushes to a fresh repository
// that was first filled with LMR 0's whole interest, so each replayed push
// is an update of cached resources, as it was live.
func (l *layers) replayRepository([]*op) error {
	st := l.r.st
	name := st.nodes[0].Name()
	repo, err := repository.New(name, st.schema)
	if err != nil {
		return err
	}
	fill, err := st.prov.Engine().ResubscribeFill(name)
	if err != nil {
		return err
	}
	if err := repo.ApplyPush(0, true, fill); err != nil {
		return err
	}
	before := repo.Stats()
	var us []float64
	for _, p := range l.replayPushes() {
		label, _, parent := l.pushSpans(p)
		us = append(us, micros(l.tr.timed(parent, label, "repository.apply", func() {
			err = repo.ApplyPush(0, false, p.cs)
		})))
		if err != nil {
			return err
		}
	}
	after := repo.Stats()
	rows := (after.UpsertsApplied - before.UpsertsApplied) + (after.ClosureUpserts - before.ClosureUpserts) +
		(after.RemovalsApplied - before.RemovalsApplied) + (after.ForcedDeletes - before.ForcedDeletes)
	var gc time.Duration
	const gcRuns = 8
	for i := 0; i < gcRuns; i++ {
		gc += l.tr.timed(0, "", "repository.gc", func() { _, err = repo.GC() })
		if err != nil {
			return err
		}
	}
	l.set("repository.apply_us_per_push", mean(us), "us", len(us))
	l.set("repository.rows_per_push", float64(rows)/float64(max(1, len(us))), "count", len(us))
	l.set("repository.gc_us", micros(gc)/gcRuns, "us", gcRuns)
	l.block(us)
	return nil
}

// queryReplays is how many queries of each shape the query replay makes: a
// path query costs half a second at 800 cached documents.
const queryReplays = 4

// replayQueries evaluates fresh queries of every shape — also those the
// workload's own mix leaves out — on LMR 0's cache without the wire: through
// the query evaluator alone, and through Node.Query, which adds the
// repository's read lock. A replayed query hangs under the live query at the
// same position when that one had the same shape.
func (l *layers) replayQueries([]*op) error {
	st := l.r.st
	node := st.nodes[0]
	ev := query.NewEvaluator(node.Repository().DB(), st.schema)
	cached := st.cachedAt(0)
	byShape := map[string][]float64{}
	var inproc []float64
	for k := 0; k < queryReplays*len(allShapes); k++ {
		q := st.in.nextQuery(k, allShapes, cached)
		parent, name := 0, ""
		if k < len(l.ph.queries) && l.ph.queries[k].q.shape == q.shape {
			parent, name = l.live.queries[k], fmt.Sprintf("query #%d", k)
		}
		var err error
		var got []*rdf.Resource
		byShape[q.shape] = append(byShape[q.shape], micros(l.tr.timed(parent, name, "query.eval_"+q.shape, func() {
			got, err = ev.Evaluate(q.text)
		})))
		if err == nil {
			uris := make([]string, len(got))
			for i, res := range got {
				uris[i] = res.URIRef
			}
			err = sameURIs(uris, q.want)
		}
		if err != nil {
			return fmt.Errorf("query %q: %w", q.text, err)
		}
		inproc = append(inproc, micros(l.tr.timed(parent, name, "lmr.query_inproc", func() {
			_, err = node.Query(q.text)
		})))
		if err != nil {
			return err
		}
	}
	for _, shape := range allShapes {
		l.set("query.eval_"+shape+"_us", mean(byShape[shape]), "us", len(byShape[shape]))
	}
	l.set("lmr.query_inproc_us", mean(inproc), "us", len(inproc))
	return nil
}
