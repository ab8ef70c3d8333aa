package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdv/internal/atoms"
	"mdv/internal/rdb"
	"mdv/internal/rdf"
)

// RegisterDocument registers a single document. See RegisterDocuments.
func (e *Engine) RegisterDocument(doc *rdf.Document) (*PublishSet, error) {
	return e.RegisterDocuments([]*rdf.Document{doc})
}

// RegisterDocuments registers (or re-registers) a batch of RDF documents
// and runs the publish & subscribe filter over the batch. Re-registering a
// document with the same URI updates it: the engine diffs the versions
// (§3.5) and treats resources as added, updated, or deleted accordingly.
//
// The returned PublishSet contains the per-subscriber changesets: upserts
// for resources that newly or still match subscribed rules (with their
// strong-reference closures), removals for resources that no longer match
// a subscription, and forced deletes for resources removed at the source.
func (e *Engine) RegisterDocuments(docs []*rdf.Document) (*PublishSet, error) {
	tStart := time.Now()
	prep, err := e.prepareDocuments(docs)
	if err != nil {
		return nil, err
	}
	e.observeStage(stagePrepare, tStart)

	tLock := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observeStage(stageLockWait, tLock)
	return e.registerLocked(docs, prep, tStart)
}

// prepareDocuments is the unlocked half of a registration: the CPU-bound
// per-document work — schema validation, atom decomposition (§3.2),
// numeric-shadow parsing — fanned out across a worker pool BEFORE
// the exclusive section, so the engine lock covers only the stored-version
// diff, table mutation, and the filter run, and concurrent readers are
// blocked for less of each registration.
func (e *Engine) prepareDocuments(docs []*rdf.Document) ([]preparedDoc, error) {
	seen := map[string]bool{}
	for _, doc := range docs {
		if seen[doc.URI] {
			return nil, fmt.Errorf("core: duplicate document %s in batch", doc.URI)
		}
		seen[doc.URI] = true
	}
	prep := e.prepareBatch(docs)
	for _, pd := range prep {
		if pd.err != nil {
			return nil, pd.err
		}
	}
	return prep, nil
}

// registerLocked is the exclusive half of a registration; the caller holds
// e.mu. prep is prepareDocuments' result for docs, tStart when the
// operation began.
func (e *Engine) registerLocked(docs []*rdf.Document, prep []preparedDoc, tStart time.Time) (*PublishSet, error) {
	// Slow-publish attribution: arm the per-statement trace for this
	// registration only when the slow log is configured (the trace maps cost
	// allocations the hot path should not pay otherwise).
	sl := e.obs.slow.Load()
	if sl != nil {
		e.obs.trace = &publishTrace{trig: map[string]time.Duration{}, group: map[int64]time.Duration{}}
		defer func() { e.obs.trace = nil }()
	}
	defer func() {
		total := time.Since(tStart)
		if m := e.obs.met.Load(); m != nil {
			m.publish.Observe(total.Seconds())
			m.batchDocs.Observe(float64(len(docs)))
		}
		if sl != nil && total >= sl.threshold {
			logSlowPublish(sl, len(docs), total, e.obs.trace)
		}
	}()

	var added, deleted []*rdf.Resource
	var updates []resourceDelta
	var changes []docChange
	// current holds the decomposition of every resource of the batch's new
	// document versions, by URI: the full new atoms phase 3 re-runs for a
	// resource that phase 1 retracted something from.
	current := map[string][]atoms.Atom{}

	for i, doc := range docs {
		old, isNew, err := e.loadStoredDocument(doc.URI)
		if err != nil {
			return nil, err
		}
		diff := rdf.DiffDocuments(old, doc)
		added = append(added, diff.Added...)
		deleted = append(deleted, diff.Deleted...)
		for j, r := range diff.Updated {
			updates = append(updates, e.diffResource(diff.OldUpdated[j], r, prep[i].atoms[r]))
		}
		changes = append(changes, docChange{doc: doc, isNew: isNew})
		for r, pa := range prep[i].atoms {
			current[r.URIRef] = pa
		}
	}

	// Reject cross-document URI collisions for added resources.
	for _, r := range added {
		rows, err := e.db.Query(`SELECT class, doc_uri FROM Resources WHERE uri_reference = ?`, rdb.NewText(r.URIRef))
		if err != nil {
			return nil, err
		}
		if !rows.Empty() {
			return nil, fmt.Errorf("core: resource %s is already registered by document %s",
				r.URIRef, rows.Data[0][1].Str)
		}
	}

	e.stats.DocumentsRegistered += len(docs)
	e.stats.ResourcesRegistered += len(added) + len(updates)

	// Capture, before any state changes, which subscribers may cache the
	// soon-to-change resources via strong references: the reverse closure
	// must be computed while the old statements and materializations are
	// still in place.
	holders := map[string]map[string]bool{}
	for _, d := range updates {
		h, err := e.strongHolders(d.uri)
		if err != nil {
			return nil, err
		}
		holders[d.uri] = h
	}
	for _, r := range deleted {
		h, err := e.strongHolders(r.URIRef)
		if err != nil {
			return nil, err
		}
		holders[r.URIRef] = h
	}

	// A changed atom of a join property reaches the join groups that read it
	// through the resource's own input matches, which its triggering matches
	// may not move (a re-pointed reference, a changed join value). Both
	// filter executions seed them, so the first retracts the joins over the
	// old value and the third derives those over the new one.
	var seeds []seedKey
	for _, d := range updates {
		seeds = e.joinSeeds(d, seeds)
	}

	// Phase 1 (§3.5, first filter execution): run the filter over the atoms
	// that left (Δ⁻): those of updated resources missing from their new
	// version and every atom of a deleted resource. The matches are the
	// candidate set — every (rule, resource) pair whose support may involve
	// the old data — and their materializations are retracted.
	var minus []atoms.Atom
	for _, d := range updates {
		minus = append(minus, d.minus...)
	}
	for _, r := range deleted {
		minus = append(minus, atoms.Decompose(e.schema, r)...)
	}
	before := newMatchSet()
	if len(minus)+len(seeds) > 0 {
		m, err := e.runFilter(minus, seeds, modeCollect)
		if err != nil {
			return nil, err
		}
		if err := e.unmaterializeAll(m); err != nil {
			return nil, err
		}
		before = m
	}

	// Phase 2 (§3.5: "the modified metadata is written into the database"):
	// apply the data changes — for an updated resource, only its changed
	// Statements rows.
	for _, r := range deleted {
		if err := atoms.Statements.Delete(e.db, r.URIRef); err != nil {
			return nil, err
		}
		if _, err := e.db.Exec(deleteResource, rdb.NewText(r.URIRef)); err != nil {
			return nil, err
		}
	}
	for _, d := range updates {
		if err := atoms.Statements.Apply(e.db, d.rows); err != nil {
			return nil, err
		}
		if d.old.Class != d.new.Class {
			if _, err := e.db.Exec(deleteResource, rdb.NewText(d.uri)); err != nil {
				return nil, err
			}
			if err := e.insertResource(changes, d.new); err != nil {
				return nil, err
			}
		}
	}
	for _, ch := range changes {
		if ch.isNew {
			if _, err := e.db.Exec(`INSERT INTO Documents (uri) VALUES (?)`, rdb.NewText(ch.doc.URI)); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range added {
		if err := e.insertResource(changes, r); err != nil {
			return nil, err
		}
		if err := atoms.Statements.Insert(e.db, current[r.URIRef]); err != nil {
			return nil, err
		}
	}

	// Phase 3 (§3.5, final filter execution; for new documents this is the
	// only effective one): run the filter over the atoms that came (Δ⁺), and
	// over every current atom of a resource phase 1 retracted something
	// from, materializing the derived matches.
	var plus []atoms.Atom
	for _, r := range added {
		plus = append(plus, current[r.URIRef]...)
	}
	retractedFrom := before.uriList()
	touched := make(map[string]bool, len(retractedFrom))
	for _, uri := range retractedFrom {
		touched[uri] = true
	}
	for _, d := range updates {
		if !touched[d.uri] {
			plus = append(plus, d.plus...)
		}
	}
	retracted, err := e.currentAtoms(retractedFrom, current)
	if err != nil {
		return nil, err
	}
	plus = append(plus, retracted...)
	after := newMatchSet()
	if len(plus)+len(seeds) > 0 {
		m, err := e.runFilter(plus, seeds, modeMaterialize)
		if err != nil {
			return nil, err
		}
		after = m
	}

	// Phase 4 (§3.5, second execution): a candidate that is not materialized
	// again may still be supported by data the changed atoms never reached —
	// another host referencing the same ServerInformation. Re-check such
	// candidates against the current data; what comes back was a wrong
	// candidate, what stays out is a true one.
	lost, err := e.rederive(before, after, current)
	if err != nil {
		return nil, err
	}

	tCS := time.Now()
	ps, err := e.buildPublishSet(before, after, lost, updates, deleted, holders)
	if err != nil {
		return nil, err
	}
	e.observeStage(stageChangeset, tCS)
	return ps, nil
}

// rederive is §3.5's second execution. A triggering candidate reads only
// its own resource's atoms, which phase 3 ran in full, so one that is still
// retracted is a true candidate. A join candidate may still be supported by
// data the changed atoms never reached — another host referencing the same
// ServerInformation. rederive re-runs the filter over the current atoms of
// every resource with such a candidate, in modeRecheck: each of those
// resources' matches reaches the join groups it feeds even when it is
// materialized already, so a join match whose other support never changed
// is derived again. Re-derived candidates join after (they publish as
// upserts). It repeats until a pass brings no candidate back and returns
// the candidates that stay retracted.
func (e *Engine) rederive(before, after *matchSet, current map[string][]atoms.Atom) (*matchSet, error) {
	lost, joins := newMatchSet(), newMatchSet()
	for rule, uris := range before.byRule {
		isJoin, err := e.isJoinRule(rule)
		if err != nil {
			return nil, err
		}
		for uri := range uris {
			has, err := e.hasResult(rule, uri)
			if err != nil {
				return nil, err
			}
			if !has {
				lost.add(rule, uri)
				if isJoin {
					joins.add(rule, uri)
				}
			}
		}
	}
	for len(joins.byRule) > 0 {
		atoms, err := e.currentAtoms(joins.uriList(), current)
		if err != nil {
			return nil, err
		}
		if len(atoms) == 0 {
			break // every remaining candidate's resource is gone
		}
		back, err := e.runFilter(atoms, nil, modeRecheck)
		if err != nil {
			return nil, err
		}
		returned := false
		for rule, uris := range back.byRule {
			for uri := range uris {
				after.add(rule, uri)
				lost.remove(rule, uri)
				if joins.remove(rule, uri) {
					returned = true
				}
			}
		}
		if !returned {
			break
		}
	}
	return lost, nil
}

// isJoinRule reports whether an atomic rule is a join rule.
func (e *Engine) isJoinRule(rule int64) (bool, error) {
	rows, err := e.db.Query(`SELECT kind FROM AtomicRules WHERE rule_id = ?`, rdb.NewInt(rule))
	if err != nil {
		return false, err
	}
	return !rows.Empty() && rows.Data[0][0].Str == kindJoin, nil
}

// deleteResource removes a resource from the Resources catalog.
const deleteResource = `DELETE FROM Resources WHERE uri_reference = ?`

// currentAtoms returns the current atoms of the given resources, in order:
// the batch's decomposition where the resource is part of it, the stored
// Statements rows otherwise. A resource that no longer exists has none.
func (e *Engine) currentAtoms(uris []string, current map[string][]atoms.Atom) ([]atoms.Atom, error) {
	var out []atoms.Atom
	for _, uri := range uris {
		if as, ok := current[uri]; ok {
			out = append(out, as...)
			continue
		}
		as, err := atoms.Statements.Atoms(e.db, uri)
		if err != nil {
			return nil, err
		}
		out = append(out, as...)
	}
	return out, nil
}

// insertResource records a batch resource in the Resources catalog.
func (e *Engine) insertResource(changes []docChange, r *rdf.Resource) error {
	docURI, err := e.docURIOf(changes, r.URIRef)
	if err != nil {
		return err
	}
	_, err = e.db.Exec(`INSERT INTO Resources (uri_reference, doc_uri, class) VALUES (?, ?, ?)`,
		rdb.NewText(r.URIRef), rdb.NewText(docURI), rdb.NewText(r.Class))
	return err
}

// resourceDelta is the atom-level difference between the stored and the
// new version of an updated resource.
type resourceDelta struct {
	uri      string
	old, new *rdf.Resource
	// rows is what phase 2 writes to Statements: every atom whose
	// multiplicity changed.
	rows atoms.Delta
	// minus (Δ⁻) and plus (Δ⁺) are the distinct atoms only the old and only
	// the new version has: what the first and the third filter execution
	// run over.
	minus, plus []atoms.Atom
}

// diffResource computes the atom-level delta of an updated resource. newAtoms
// is the new version's decomposition. An atom whose multiplicity changed is
// in both rows.Drop and rows.Add unless one version lacks it, so Δ⁻ is the
// dropped atoms never added and Δ⁺ the added ones never dropped.
func (e *Engine) diffResource(old, new *rdf.Resource, newAtoms []atoms.Atom) resourceDelta {
	d := resourceDelta{uri: new.URIRef, old: old, new: new,
		rows: atoms.Diff(atoms.Decompose(e.schema, old), newAtoms)}
	dropped := make(map[rdf.Statement]bool, len(d.rows.Drop))
	for _, a := range d.rows.Drop {
		dropped[a.Statement] = true
	}
	added := make(map[rdf.Statement]bool, len(d.rows.Add))
	for _, a := range d.rows.Add {
		if !added[a.Statement] && !dropped[a.Statement] {
			d.plus = append(d.plus, a)
		}
		added[a.Statement] = true
	}
	for _, a := range d.rows.Drop {
		if !added[a.Statement] {
			d.minus = append(d.minus, a)
		}
	}
	return d
}

// DeleteDocument removes a registered document and all its resources
// (§2.2: "removing the complete document with all its content").
func (e *Engine) DeleteDocument(uri string) (*PublishSet, error) {
	tStart := time.Now()
	// Re-register an empty version: every resource becomes deleted.
	docs := []*rdf.Document{rdf.NewDocument(uri)}
	prep, err := e.prepareDocuments(docs)
	if err != nil {
		return nil, err
	}
	e.observeStage(stagePrepare, tStart)

	// One critical section across the existence check, the empty
	// re-registration and the row delete: a registration of the same URI
	// slipping between them would lose its Documents row and keep its
	// Resources.
	tLock := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observeStage(stageLockWait, tLock)
	registered, err := e.isRegistered(uri)
	if err != nil {
		return nil, err
	}
	if !registered {
		return nil, fmt.Errorf("core: document %s is not registered", uri)
	}
	ps, err := e.registerLocked(docs, prep, tStart)
	if err != nil {
		return nil, err
	}
	if _, err := e.db.Exec(`DELETE FROM Documents WHERE uri = ?`, rdb.NewText(uri)); err != nil {
		return nil, err
	}
	return ps, nil
}

// isRegistered reports whether a document of that URI is registered.
func (e *Engine) isRegistered(uri string) (bool, error) {
	rows, err := e.db.Query(`SELECT uri FROM Documents WHERE uri = ?`, rdb.NewText(uri))
	if err != nil {
		return false, err
	}
	return !rows.Empty(), nil
}

// loadStoredDocument rebuilds the registered version of a document from its
// Resources and Statements rows, resources sorted by URI reference and
// properties in atoms.Table.Read's canonical order: the stored form of a
// document is its statements, and the re-registration diff compares
// resources by Fingerprint, which ignores property order. isNew reports
// that no version is registered yet.
func (e *Engine) loadStoredDocument(uri string) (doc *rdf.Document, isNew bool, err error) {
	registered, err := e.isRegistered(uri)
	if err != nil {
		return nil, false, err
	}
	if !registered {
		return nil, true, nil
	}
	if e.storedVersion != nil {
		doc, err = e.storedVersion(uri)
		return doc, false, err
	}
	rows, err := e.db.Query(`SELECT uri_reference FROM Resources WHERE doc_uri = ? ORDER BY uri_reference`,
		rdb.NewText(uri))
	if err != nil {
		return nil, false, err
	}
	doc = rdf.NewDocument(uri)
	for _, row := range rows.Data {
		res, ok, err := atoms.Statements.Read(e.db, row[0].Str)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, fmt.Errorf("core: resource %s of document %s has no statements", row[0].Str, uri)
		}
		doc.Resources = append(doc.Resources, res)
	}
	return doc, false, nil
}

// docChange is one document of a registration batch.
type docChange struct {
	doc   *rdf.Document
	isNew bool
}

// docURIOf resolves which batch document owns a resource.
func (e *Engine) docURIOf(changes []docChange, uriRef string) (string, error) {
	for _, ch := range changes {
		if _, ok := ch.doc.Find(uriRef); ok {
			return ch.doc.URI, nil
		}
	}
	return "", fmt.Errorf("core: resource %s not found in batch", uriRef)
}

// preparedDoc is the per-document output of prepareBatch: everything a
// registration needs that does not depend on engine state.
type preparedDoc struct {
	atoms map[*rdf.Resource][]atoms.Atom
	err   error
}

// prepareBatch fans the CPU-bound per-document work of a registration
// batch — schema validation and atom decomposition with numeric parsing —
// across a runtime.NumCPU() worker pool. It touches no engine state, so it
// runs outside the lock.
func (e *Engine) prepareBatch(docs []*rdf.Document) []preparedDoc {
	out := make([]preparedDoc, len(docs))
	workers := runtime.NumCPU()
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		for i, doc := range docs {
			out[i] = e.prepareDoc(doc)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.prepareDoc(docs[i])
			}
		}()
	}
	for i := range docs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

func (e *Engine) prepareDoc(doc *rdf.Document) preparedDoc {
	pd := preparedDoc{}
	if err := e.schema.ValidateDocument(doc); err != nil {
		pd.err = err
		return pd
	}
	pd.atoms = make(map[*rdf.Resource][]atoms.Atom, len(doc.Resources))
	for _, r := range doc.Resources {
		pd.atoms[r] = atoms.Decompose(e.schema, r)
	}
	return pd
}

// GetResource reconstructs a resource from the Statements table.
func (e *Engine) GetResource(uriRef string) (*rdf.Resource, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return atoms.Statements.Read(e.db, uriRef)
}

// DocumentURIs lists all registered document URIs.
func (e *Engine) DocumentURIs() ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows, err := e.db.Query(`SELECT uri FROM Documents ORDER BY uri`)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Str)
	}
	return out, nil
}

// StoredDocument returns the registered version of a document, rebuilt
// from its statements (see loadStoredDocument).
func (e *Engine) StoredDocument(uri string) (*rdf.Document, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	doc, isNew, err := e.loadStoredDocument(uri)
	if err != nil {
		return nil, err
	}
	if isNew {
		return nil, fmt.Errorf("core: document %s is not registered", uri)
	}
	return doc, nil
}

// Browse lists resources of a class with a simple substring filter over
// their serialized properties — the MDP-side browsing facility real users
// use to select metadata for caching (paper §2.2, Figure 2).
//
// Contract (deliberately broader than a rule-level `contains`, which tests
// exactly one (class, property) value): a resource matches when the filter
// occurs byte-wise and case-sensitively — the same strings.Contains
// semantics as the SQL CONTAINS operator and the triggering text index — in
// its URI reference OR in any property value's lexical form (for reference
// properties, the target URI). An empty filter matches every resource of
// the class. Browse never consults the filter tables or the text index:
// it is a read-only catalog scan, not a subscription evaluation.
func (e *Engine) Browse(class, contains string) ([]*rdf.Resource, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows, err := e.db.Query(`SELECT uri_reference FROM Resources WHERE class = ? ORDER BY uri_reference`,
		rdb.NewText(class))
	if err != nil {
		return nil, err
	}
	var out []*rdf.Resource
	for _, row := range rows.Data {
		res, ok, err := atoms.Statements.Read(e.db, row[0].Str)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if contains != "" {
			match := strings.Contains(res.URIRef, contains)
			for _, p := range res.Props {
				if strings.Contains(p.Value.String(), contains) {
					match = true
					break
				}
			}
			if !match {
				continue
			}
		}
		out = append(out, res)
	}
	return out, nil
}
