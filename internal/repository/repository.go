// Package repository implements the Local Metadata Repository (LMR) tier of
// MDV (paper §2.2): a cache of global metadata close to the applications,
// fed by the publish & subscribe mechanism of an MDP, plus local (private)
// metadata that is never forwarded to the backbone.
//
// The cache is itself a relational database (the same engine the MDP runs
// on): resources live in Cache/CacheStatements tables so that the MDV query
// language can be evaluated locally as SQL joins — the whole point of the
// middle tier is that "queries can be evaluated locally, i.e., no expensive
// communication across the Internet is necessary".
//
// Cache consistency bookkeeping follows §2.4/§3.5: every cached global
// resource carries credits (the subscriptions it matches) and
// strong-reference edges; a garbage collector removes resources with no
// credits that are no longer reachable from credited or local resources
// over strong references.
package repository

import (
	"fmt"
	"slices"
	"sync"

	"mdv/internal/atoms"
	"mdv/internal/core"
	"mdv/internal/rdb"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
)

// Repository is one LMR's cache and bookkeeping state.
//
// Concurrency: mu is an RWMutex. Changeset application, local-document
// registration, unsubscription, and GC take it exclusively; reads (Len,
// Has, Get, CreditsOf, Resources, Stats, LastSeq, View) take it shared, so
// any number of client queries run concurrently and block only while a
// changeset is being applied.
type Repository struct {
	mu     sync.RWMutex
	name   string
	schema *rdf.Schema
	db     *sql.DB

	// deadSubs tombstones unsubscribed subscription ids: a changeset
	// published before the unsubscribe may still arrive afterwards, and
	// its credits must not resurrect cache entries.
	deadSubs map[int64]bool

	// lastSeq is the highest changelog sequence applied (the resume
	// cursor of this subscriber's changeset stream). Pushes at or below
	// it are duplicates from an at-least-once replay and are skipped.
	lastSeq uint64

	// gcDue is set by every mutation that can leave a cached global resource
	// unreachable — a credit or a resource removed, a strong edge that a
	// rewrite did not keep, a global resource entering the cache (whether a
	// credit or an edge holds it is its caller's business) — and cleared by
	// the collector. While it is clear, roots and edges have only grown since
	// the last sweep, so another sweep would drop nothing and ApplyPush
	// skips it: an update that rewrites what is already cached, the steady
	// state of a subscription, costs no walk over the whole cache.
	gcDue bool

	stats Stats
}

// Stats counts repository activity.
type Stats struct {
	UpsertsApplied    int
	RemovalsApplied   int
	ForcedDeletes     int
	ClosureUpserts    int
	ResourcesDropped  int // by the garbage collector
	GCRuns            int
	DuplicatesSkipped int // sequenced pushes at or below the cursor
	Resets            int // full-state reset changesets applied
}

var ddl = slices.Concat(
	[]string{
		// Cached resources. local marks LMR-private metadata (§2.2).
		`CREATE TABLE Cache (
			uri_reference TEXT PRIMARY KEY,
			class TEXT NOT NULL,
			local BOOL NOT NULL
		)`,
		`CREATE INDEX idx_cache_class ON Cache (class)`,
	},
	// Property atoms of cached resources; the query language evaluates as
	// SQL joins over them.
	atoms.CacheStatements.DDL(),
	[]string{
		// Credits: which subscriptions a cached resource matches (the
		// LMR-side view of §3.5's per-rule matching).
		`CREATE TABLE CacheCredits (uri_reference TEXT NOT NULL, sub_id INT NOT NULL)`,
		`CREATE UNIQUE INDEX idx_credit_pk ON CacheCredits (uri_reference, sub_id)`,
		`CREATE INDEX idx_credit_uri ON CacheCredits (uri_reference)`,

		// Strong-reference edges among cached resources, for the garbage
		// collector (§2.4).
		`CREATE TABLE CacheRefs (holder TEXT NOT NULL, target TEXT NOT NULL, property TEXT NOT NULL)`,
		`CREATE INDEX idx_refs_holder ON CacheRefs (holder)`,
		`CREATE INDEX idx_refs_target ON CacheRefs (target)`,
	},
)

// SQL texts run from more than one place.
const (
	cacheEntry      = `SELECT class, local FROM Cache WHERE uri_reference = ?`
	creditsOf       = `SELECT sub_id FROM CacheCredits WHERE uri_reference = ?`
	deleteCache     = `DELETE FROM Cache WHERE uri_reference = ?`
	edgesFrom       = `SELECT target, property FROM CacheRefs WHERE holder = ?`
	deleteEdgesFrom = `DELETE FROM CacheRefs WHERE holder = ?`
)

// New creates an empty repository.
func New(name string, schema *rdf.Schema) (*Repository, error) {
	r := &Repository{name: name, schema: schema, db: sql.Open(), deadSubs: map[int64]bool{}}
	if err := CreateTables(r.db); err != nil {
		return nil, err
	}
	return r, nil
}

// CreateTables creates the cache's tables in db: the layout the query
// evaluator translates to.
func CreateTables(db *sql.DB) error {
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("repository: bootstrap: %w", err)
		}
	}
	return nil
}

// Name returns the repository's name (its subscriber identity at the MDP).
func (r *Repository) Name() string { return r.name }

// Schema returns the metadata schema.
func (r *Repository) Schema() *rdf.Schema { return r.schema }

// DB exposes the cache database for the query evaluator.
func (r *Repository) DB() *sql.DB { return r.db }

// Stats returns a copy of the counters.
func (r *Repository) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// View runs fn under the repository's shared lock: no changeset is applied
// while fn executes, so multi-statement reads (query evaluation) see one
// consistent cache state. fn must not call locking Repository methods
// (Get/Has/ApplyPush/...) — the lock is not reentrant.
func (r *Repository) View(fn func() error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fn()
}

// Len returns the number of cached resources (global + local).
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, err := r.db.Raw().Table("Cache")
	if err != nil {
		return -1
	}
	return t.Len()
}

// Get reconstructs a cached resource.
func (r *Repository) Get(uriRef string) (*rdf.Resource, bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return atoms.CacheStatements.Read(r.db, uriRef)
}

// CreditsOf returns the subscription ids crediting a cached resource.
func (r *Repository) CreditsOf(uriRef string) ([]int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rows, err := r.db.Query(creditsOf, rdb.NewText(uriRef))
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, rows.Len())
	for _, row := range rows.Data {
		out = append(out, row[0].Int)
	}
	return out, nil
}

// storeResource writes (or rewrites) a resource's cache entry, statements,
// and strong-reference edges. Credits are managed by the caller. A rewrite
// writes only what changed, as the MDP's phase 2 does (§3.5): an update
// usually changes one atom of a resource, and every CacheStatements row
// written costs an entry in each of its three indexes.
func (r *Repository) storeResource(res *rdf.Resource, local bool) error {
	uri := rdb.NewText(res.URIRef)
	was, err := r.db.Query(cacheEntry, uri)
	if err != nil {
		return err
	}
	if !local && (was.Empty() || was.Data[0][1].Bool) {
		r.gcDue = true // enters the cache as a global resource
	}
	if was.Empty() || was.Data[0][0].Str != res.Class || was.Data[0][1].Bool != local {
		if _, err := r.db.Exec(deleteCache, uri); err != nil {
			return err
		}
		if _, err := r.db.Exec(`INSERT INTO Cache (uri_reference, class, local) VALUES (?, ?, ?)`,
			uri, rdb.NewText(res.Class), rdb.NewBool(local)); err != nil {
			return err
		}
	}
	if err := r.storeStatements(res); err != nil {
		return err
	}
	return r.storeEdges(res)
}

// storeStatements writes the statements of a resource whose multiplicity
// differs between the cached version and res.
func (r *Repository) storeStatements(res *rdf.Resource) error {
	old, err := atoms.CacheStatements.Atoms(r.db, res.URIRef)
	if err != nil {
		return err
	}
	return atoms.CacheStatements.Apply(r.db, atoms.Diff(old, atoms.Decompose(r.schema, res)))
}

// storeEdges rewrites a resource's strong-reference edges unless they are
// unchanged, and marks the collector due when an edge is not kept.
func (r *Repository) storeEdges(res *rdf.Resource) error {
	uri := rdb.NewText(res.URIRef)
	old, err := r.db.Query(edgesFrom, uri)
	if err != nil {
		return err
	}
	var targets, props []string
	for _, p := range res.Props {
		if p.Value.Kind == rdf.ResourceRef && r.schema.IsStrongReference(res.Class, p.Name) {
			targets, props = append(targets, p.Value.Ref), append(props, p.Name)
		}
	}
	same := len(old.Data) == len(targets)
	kept := make(map[string]bool, len(targets))
	for i, target := range targets {
		kept[target] = true
		same = same && old.Data[i][0].Str == target && old.Data[i][1].Str == props[i]
	}
	for _, row := range old.Data {
		if !kept[row[0].Str] {
			r.gcDue = true
		}
	}
	if same {
		return nil
	}
	if _, err := r.db.Exec(deleteEdgesFrom, uri); err != nil {
		return err
	}
	for i, target := range targets {
		if _, err := r.db.Exec(`INSERT INTO CacheRefs (holder, target, property) VALUES (?, ?, ?)`,
			uri, rdb.NewText(target), rdb.NewText(props[i])); err != nil {
			return err
		}
	}
	return nil
}

// dropResource removes a resource entirely from the cache.
func (r *Repository) dropResource(uriRef string) error {
	r.gcDue = true
	if err := atoms.CacheStatements.Delete(r.db, uriRef); err != nil {
		return err
	}
	for _, text := range []string{
		deleteEdgesFrom,
		`DELETE FROM CacheCredits WHERE uri_reference = ?`,
		deleteCache,
	} {
		if _, err := r.db.Exec(text, rdb.NewText(uriRef)); err != nil {
			return err
		}
	}
	return nil
}

// LastSeq returns the highest changelog sequence applied: the cursor a
// reconnecting LMR resumes the changeset stream from.
func (r *Repository) LastSeq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastSeq
}

// ApplyChangeset applies a published changeset (paper §2.2: MDPs "publish
// updates, insertions, or deletions in the metadata to LMRs") and then, if
// it removed anything that held a resource (gcDue), runs the garbage
// collector. Application is idempotent: re-applying a changeset
// (an at-least-once redelivery) leaves the cache unchanged.
func (r *Repository) ApplyChangeset(cs *core.Changeset) error {
	return r.ApplyPush(0, false, cs)
}

// ApplyPush applies one sequenced changeset push. seq is the publish
// record's changelog sequence (0 = unsequenced: always applied); pushes at
// or below the cursor are duplicates and are skipped. reset first drops
// all cached global metadata (local metadata is untouched) so the
// changeset rebuilds the cache from scratch — the recovery path when the
// provider cannot replay the exact missed changesets. A reset also
// rebases the cursor to seq, even backwards: a recovered provider may
// have restarted its sequence numbering below the old cursor.
func (r *Repository) ApplyPush(seq uint64, reset bool, cs *core.Changeset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reset {
		if err := r.resetGlobalLocked(); err != nil {
			return err
		}
		r.stats.Resets++
	} else if seq != 0 && seq <= r.lastSeq {
		r.stats.DuplicatesSkipped++
		return nil
	}
	if err := r.applyLocked(cs); err != nil {
		return err
	}
	if reset {
		// A reset defines a new baseline: the provider may have restarted
		// with a shorter (recovered) log, so the cursor must rewind with it
		// — otherwise live pushes in the reused sequence range would be
		// skipped as duplicates against the freshly rebuilt cache.
		r.lastSeq = seq
	} else if seq > r.lastSeq {
		r.lastSeq = seq
	}
	if !r.gcDue {
		return nil
	}
	return r.gcLocked()
}

// resetGlobalLocked drops every cached global resource, its statements,
// credits, and reference edges. Local (LMR-private) metadata stays.
func (r *Repository) resetGlobalLocked() error {
	rows, err := r.db.Query(`SELECT uri_reference FROM Cache WHERE local = FALSE`)
	if err != nil {
		return err
	}
	for _, row := range rows.Data {
		if err := r.dropResource(row[0].Str); err != nil {
			return err
		}
	}
	return nil
}

func (r *Repository) applyLocked(cs *core.Changeset) error {
	// A changeset shared by an interest group carries the union of the
	// members' credits; MemberCredits says which belong to this repository.
	// Claiming foreign credits would wrongly pin resources against the
	// garbage collector, so upsert credits are intersected with the owned
	// set (nil MemberCredits = single-receiver changeset, apply everything).
	var owned map[int64]bool
	if cs.MemberCredits != nil {
		owned = map[int64]bool{}
		for _, id := range cs.MemberCredits[r.name] {
			owned[id] = true
		}
	}
	for _, up := range cs.Upserts {
		if owned != nil {
			mine := make([]int64, 0, len(up.SubIDs))
			for _, id := range up.SubIDs {
				if owned[id] {
					mine = append(mine, id)
				}
			}
			up.SubIDs = mine
		}
		if err := r.applyUpsert(up); err != nil {
			return err
		}
		r.stats.UpsertsApplied++
	}
	// A closure entry refreshes a cached resource, or enters the cache when
	// a cached resource strongly references it: a new closure member of an
	// updated resource (§2.4). No credit changes. Entries are retried until
	// a pass stores none, so a member may come before its holder.
	pending := cs.ClosureUpserts
	for len(pending) > 0 {
		var rest []*rdf.Resource
		for _, res := range pending {
			held, err := r.heldLocked(res.URIRef)
			if err != nil {
				return err
			}
			if !held {
				rest = append(rest, res)
				continue
			}
			if err := r.storeResource(res, false); err != nil {
				return err
			}
			r.stats.ClosureUpserts++
		}
		if len(rest) == len(pending) {
			break
		}
		pending = rest
	}
	for _, rm := range cs.Removals {
		if owned != nil && !owned[rm.SubID] {
			continue // another member's credit (would be a no-op anyway)
		}
		n, err := r.db.Exec(`DELETE FROM CacheCredits WHERE uri_reference = ? AND sub_id = ?`,
			rdb.NewText(rm.URIRef), rdb.NewInt(rm.SubID))
		if err != nil {
			return err
		}
		if n > 0 {
			r.gcDue = true
		}
		r.stats.RemovalsApplied++
	}
	for _, uri := range cs.ForcedDeletes {
		has, err := r.hasLocked(uri)
		if err != nil {
			return err
		}
		if has {
			if err := r.dropResource(uri); err != nil {
				return err
			}
			r.stats.ForcedDeletes++
		}
	}
	return nil
}

func (r *Repository) hasLocked(uriRef string) (bool, error) {
	rows, err := r.db.Query(cacheEntry, rdb.NewText(uriRef))
	if err != nil {
		return false, err
	}
	return !rows.Empty(), nil
}

// heldLocked reports whether a resource is cached or strongly referenced by
// a cached one.
func (r *Repository) heldLocked(uriRef string) (bool, error) {
	if has, err := r.hasLocked(uriRef); has || err != nil {
		return has, err
	}
	rows, err := r.db.Query(`SELECT holder FROM CacheRefs WHERE target = ? LIMIT 1`, rdb.NewText(uriRef))
	if err != nil {
		return false, err
	}
	return !rows.Empty(), nil
}

func (r *Repository) applyUpsert(up core.Upsert) error {
	live := make([]int64, 0, len(up.SubIDs))
	for _, subID := range up.SubIDs {
		if !r.deadSubs[subID] {
			live = append(live, subID)
		}
	}
	if len(live) == 0 {
		has, err := r.hasLocked(up.Resource.URIRef)
		if err != nil || !has {
			// Every credit is tombstoned and the resource is not otherwise
			// cached: do not admit it at all.
			return err
		}
	}
	if err := r.storeResource(up.Resource, false); err != nil {
		return err
	}
	if err := r.addCredits(up.Resource.URIRef, live); err != nil {
		return err
	}
	for _, c := range up.Closure {
		if err := r.storeResource(c, false); err != nil {
			return err
		}
	}
	return nil
}

// addCredits credits a cached resource to subscriptions as one set: one
// statement reads the credits it has, one batch inserts the missing ones,
// each once however often subIDs lists it.
func (r *Repository) addCredits(uri string, subIDs []int64) error {
	if len(subIDs) == 0 {
		return nil
	}
	key := rdb.NewText(uri)
	has := map[int64]bool{}
	err := r.db.QueryFunc(creditsOf, []rdb.Value{key}, func(row []rdb.Value) error {
		has[row[0].Int] = true
		return nil
	})
	if err != nil {
		return err
	}
	var rows [][]rdb.Value
	for _, subID := range subIDs {
		if !has[subID] {
			has[subID] = true
			rows = append(rows, []rdb.Value{key, rdb.NewInt(subID)})
		}
	}
	_, err = r.db.ExecBatch(`INSERT INTO CacheCredits (uri_reference, sub_id) VALUES (?, ?)`, rows)
	return err
}

// DropSubscriptionCredits removes every credit of a subscription (when the
// LMR unsubscribes), tombstones the id against late-arriving changesets,
// and garbage-collects.
func (r *Repository) DropSubscriptionCredits(subID int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deadSubs[subID] = true
	if _, err := r.db.Exec(`DELETE FROM CacheCredits WHERE sub_id = ?`, rdb.NewInt(subID)); err != nil {
		return err
	}
	return r.gcLocked()
}

// RegisterLocalDocument stores LMR-private metadata (paper §2.2: "LMRs
// store local metadata that should not be accessible to the public and
// therefore is not forwarded to the backbone"). Local resources are GC
// roots; re-registration replaces the previous resources of the document's
// URI references.
func (r *Repository) RegisterLocalDocument(doc *rdf.Document) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.schema.ValidateDocument(doc); err != nil {
		return err
	}
	for _, res := range doc.Resources {
		if err := r.storeResource(res, true); err != nil {
			return err
		}
	}
	return nil
}

// DeleteLocalResource removes a local resource.
func (r *Repository) DeleteLocalResource(uriRef string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows, err := r.db.Query(cacheEntry, rdb.NewText(uriRef))
	if err != nil {
		return err
	}
	if rows.Empty() || !rows.Data[0][1].Bool {
		return fmt.Errorf("repository: %s is not a local resource", uriRef)
	}
	if err := r.dropResource(uriRef); err != nil {
		return err
	}
	return r.gcLocked()
}

// GC runs the garbage collector (paper §2.4): cached global resources stay
// only while they have subscription credits or are reachable from credited
// or local resources over strong references. The paper suggests reference
// counting; this implementation marks from the roots and sweeps, which
// additionally reclaims strong-reference cycles that pure reference
// counting would leak.
func (r *Repository) GC() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := r.stats.ResourcesDropped
	if err := r.gcLocked(); err != nil {
		return 0, err
	}
	return r.stats.ResourcesDropped - dropped, nil
}

func (r *Repository) gcLocked() error {
	r.stats.GCRuns++
	// Roots: credited resources and local resources.
	live := map[string]bool{}
	var queue []string
	addRoot := func(uri string) {
		if !live[uri] {
			live[uri] = true
			queue = append(queue, uri)
		}
	}
	rows, err := r.db.Query(`SELECT DISTINCT uri_reference FROM CacheCredits`)
	if err != nil {
		return err
	}
	for _, row := range rows.Data {
		addRoot(row[0].Str)
	}
	rows, err = r.db.Query(`SELECT uri_reference FROM Cache WHERE local = TRUE`)
	if err != nil {
		return err
	}
	for _, row := range rows.Data {
		addRoot(row[0].Str)
	}
	// Mark over strong-reference edges.
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		targets, err := r.db.Query(edgesFrom, rdb.NewText(cur))
		if err != nil {
			return err
		}
		for _, row := range targets.Data {
			t := row[0].Str
			if !live[t] {
				live[t] = true
				queue = append(queue, t)
			}
		}
	}
	// Sweep.
	all, err := r.db.Query(`SELECT uri_reference FROM Cache`)
	if err != nil {
		return err
	}
	for _, row := range all.Data {
		uri := row[0].Str
		if live[uri] {
			continue
		}
		if err := r.dropResource(uri); err != nil {
			return err
		}
		r.stats.ResourcesDropped++
	}
	r.gcDue = false
	return nil
}

// Resources lists all cached resources of a class (empty class = all).
func (r *Repository) Resources(class string) ([]*rdf.Resource, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	q := `SELECT uri_reference FROM Cache ORDER BY uri_reference`
	var params []rdb.Value
	if class != "" {
		q = `SELECT uri_reference FROM Cache WHERE class = ? ORDER BY uri_reference`
		params = append(params, rdb.NewText(class))
	}
	rows, err := r.db.Query(q, params...)
	if err != nil {
		return nil, err
	}
	var out []*rdf.Resource
	for _, row := range rows.Data {
		res, ok, err := atoms.CacheStatements.Read(r.db, row[0].Str)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, res)
		}
	}
	return out, nil
}
