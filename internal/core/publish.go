package core

import (
	"sort"
	"strings"

	"mdv/internal/atoms"
	"mdv/internal/rdb"
	"mdv/internal/rdf"
)

// Upsert is a resource delivered to a subscriber because it newly or still
// matches one of its subscriptions, together with the strong-reference
// closure resources that must travel with it (paper §2.4).
type Upsert struct {
	Resource *rdf.Resource
	// SubIDs are the subscriptions this resource matches; the LMR uses them
	// as cache credits for its garbage collector. On a shared group
	// changeset this is the union across members — Changeset.MemberCredits
	// says which of them belong to which member.
	SubIDs []int64
	// Closure holds the resources reached from Resource over strong
	// references, transitively.
	Closure []*rdf.Resource
}

// Removal tells a subscriber that a resource no longer matches one of its
// subscriptions. The LMR drops the credit and garbage-collects the resource
// if nothing else holds it (§3.5 "true candidate resources").
type Removal struct {
	URIRef string
	SubID  int64
}

// Changeset is what an MDP publishes after a batch — to one subscriber, or
// to every member of an interest group when their changesets coincide.
type Changeset struct {
	Upserts  []Upsert
	Removals []Removal
	// ClosureUpserts carry new versions of resources the subscriber may
	// hold only via strong references (they match none of its rules).
	ClosureUpserts []*rdf.Resource
	// ForcedDeletes are resources deleted at the source; the subscriber
	// must drop them regardless of credits.
	ForcedDeletes []string
	// MemberCredits is set only on changesets shared by a multi-member
	// interest group: it maps each member subscriber to the subscription
	// IDs (credits) in this changeset that belong to it. A receiver applies
	// only its own credits and removal entries. Nil means the changeset was
	// built for a single receiver, which applies everything (the pre-group
	// wire format).
	MemberCredits map[string][]int64 `json:"member_credits,omitempty"`
}

// Empty reports whether the changeset carries nothing.
func (c *Changeset) Empty() bool {
	return len(c.Upserts) == 0 && len(c.Removals) == 0 &&
		len(c.ClosureUpserts) == 0 && len(c.ForcedDeletes) == 0
}

// PublishGroup is one interest group of a batch: subscribers whose
// changesets for the batch are identical, sharing a single Changeset.
type PublishGroup struct {
	// Members are the group's subscribers, sorted.
	Members []string
	// Changeset is shared by every member. MemberCredits is non-nil iff
	// the group has more than one member.
	Changeset *Changeset
}

// PublishSet carries the changesets of one batch: the distinct non-empty
// changesets with their members, ordered by first member. A subscriber is a
// member of at most one group.
type PublishSet struct {
	Groups []PublishGroup
}

// NewSingleSubscriberSet wraps one subscriber's changeset (initial fills,
// replay paths) as a PublishSet.
func NewSingleSubscriberSet(subscriber string, cs *Changeset) *PublishSet {
	ps := &PublishSet{}
	if cs != nil && !cs.Empty() {
		ps.Groups = []PublishGroup{{Members: []string{subscriber}, Changeset: cs}}
	}
	return ps
}

// interest is one subscriber's raw match outcome for a batch, collected
// before any changeset is materialized: URI and subscription-ID sets only.
// Its signature decides interest-group membership.
type interest struct {
	upserts  map[string]map[int64]bool // uri -> subIDs now matching
	removals map[string]map[int64]bool // uri -> subIDs no longer matching
	closures map[string]bool           // uris updated behind strong refs
	forced   map[string]bool           // uris force-deleted at the source
}

func (in *interest) upsertIDs(uri string) map[int64]bool {
	ids := in.upserts[uri]
	if ids == nil {
		ids = map[int64]bool{}
		in.upserts[uri] = ids
	}
	return ids
}

func (in *interest) removalIDs(uri string) map[int64]bool {
	ids := in.removals[uri]
	if ids == nil {
		ids = map[int64]bool{}
		in.removals[uri] = ids
	}
	return ids
}

// signature fingerprints the changeset this interest will produce. Two
// subscribers with equal signatures receive byte-identical changesets up to
// credit ownership (per-URI subID sets may differ; the union travels with
// MemberCredits recording ownership), so they form one interest group.
func (in *interest) signature() string {
	var b strings.Builder
	section := func(uris map[string]bool) {
		keys := make([]string, 0, len(uris))
		for u := range uris {
			keys = append(keys, u)
		}
		sort.Strings(keys)
		for _, u := range keys {
			b.WriteString(u)
			b.WriteByte(0x1f)
		}
		b.WriteByte(0x1e)
	}
	up := make(map[string]bool, len(in.upserts))
	for u := range in.upserts {
		up[u] = true
	}
	rm := make(map[string]bool, len(in.removals))
	for u := range in.removals {
		rm[u] = true
	}
	section(up)
	section(rm)
	section(in.closures)
	section(in.forced)
	return b.String()
}

// builtUpsert caches the expensive half of an upsert — the resource fetch
// and its strong-reference closure — shared across every group (and every
// subscriber) that delivers the URI in this batch.
type builtUpsert struct {
	res     *rdf.Resource
	closure []*rdf.Resource
}

// buildPublishSet turns the outcome of a registration batch into
// changesets, one per interest group: subscribers whose batch outcome is
// identical share a single changeset built once (compute-once), with the
// union of their credits and a MemberCredits ownership map. before holds
// phase 1's candidates, after the matches phases 3 and 4 derived, lost the
// candidates that stayed retracted; updates are the updated resources whose
// content changed.
func (e *Engine) buildPublishSet(before, after, lost *matchSet, updates []resourceDelta, deleted []*rdf.Resource,
	holders map[string]map[string]bool) (*PublishSet, error) {
	ps := &PublishSet{}

	// Phase 1: collect per-subscriber interests (URI/ID sets only; nothing
	// expensive is built yet).
	interests := map[string]*interest{}
	interestOf := func(subscriber string) *interest {
		in := interests[subscriber]
		if in == nil {
			in = &interest{
				upserts:  map[string]map[int64]bool{},
				removals: map[string]map[int64]bool{},
				closures: map[string]bool{},
				forced:   map[string]bool{},
			}
			interests[subscriber] = in
		}
		return in
	}

	// Upserts: derived matches of subscribed end rules.
	for rule := range after.byRule {
		subs := e.endSubs[rule]
		if len(subs) == 0 {
			continue
		}
		for _, uri := range after.uris(rule) {
			for _, s := range subs {
				interestOf(s.subscriber).upsertIDs(uri)[s.subID] = true
			}
		}
	}
	// An updated resource travels to every subscription it matches now,
	// whether or not the update moved that match: its content changed.
	for _, d := range updates {
		subs, err := e.subscriptionsMatching(d.uri)
		if err != nil {
			return nil, err
		}
		for _, s := range subs {
			interestOf(s.subscriber).upsertIDs(d.uri)[s.subID] = true
		}
	}

	// Removals: candidates of subscribed end rules that stayed retracted
	// (the "true candidates" of §3.5) — unless the subscription still
	// matches the resource through another of its end rules (an OR rule):
	// a removal drops the subscription's credit, not one end rule's.
	still := map[string]map[int64]bool{}
	for rule := range lost.byRule {
		subs := e.endSubs[rule]
		if len(subs) == 0 {
			continue
		}
		for _, uri := range lost.uris(rule) {
			if still[uri] == nil {
				matching, err := e.subscriptionsMatching(uri)
				if err != nil {
					return nil, err
				}
				still[uri] = make(map[int64]bool, len(matching))
				for _, s := range matching {
					still[uri][s.subID] = true
				}
			}
			for _, s := range subs {
				if !still[uri][s.subID] {
					interestOf(s.subscriber).removalIDs(uri)[s.subID] = true
				}
			}
		}
	}

	// Closure updates: an updated resource may be cached by subscribers
	// only through strong references from rule-matched resources. What its
	// new strong references reach travels with it (§2.4), since such a
	// subscriber caches none of that through this resource yet.
	for _, d := range updates {
		if len(holders[d.uri]) == 0 {
			continue
		}
		grown, err := e.strongReach(d.uri, e.newStrongTargets(d))
		if err != nil {
			return nil, err
		}
		for subscriber := range holders[d.uri] {
			in := interestOf(subscriber)
			// Skip subscribers already receiving the resource as an upsert:
			// the upsert carries its closure.
			if in.upserts[d.uri] != nil {
				continue
			}
			in.closures[d.uri] = true
			for _, res := range grown {
				if in.upserts[res.URIRef] == nil {
					in.closures[res.URIRef] = true
				}
			}
		}
	}

	// Forced deletes: resources removed at the source are dropped
	// everywhere. Deliver to subscribers that had any before-match for the
	// resource or hold it via strong references.
	for _, r := range deleted {
		for rule := range before.byRule {
			if !before.has(rule, r.URIRef) {
				continue
			}
			for _, s := range e.endSubs[rule] {
				interestOf(s.subscriber).forced[r.URIRef] = true
			}
		}
		for subscriber := range holders[r.URIRef] {
			interestOf(subscriber).forced[r.URIRef] = true
		}
	}

	// Phase 2: group subscribers by interest signature.
	members := map[string][]string{} // signature -> member subscribers
	for subscriber, in := range interests {
		key := in.signature()
		members[key] = append(members[key], subscriber)
	}
	keys := make([]string, 0, len(members))
	for key := range members {
		sort.Strings(members[key])
		keys = append(keys, key)
	}
	// Deterministic group order: by first member (each subscriber belongs
	// to exactly one group, so first members are unique).
	sort.Slice(keys, func(a, b int) bool { return members[keys[a]][0] < members[keys[b]][0] })

	// Phase 3: build each group's changeset once. The URI-level caches are
	// shared across groups, so a resource delivered to several groups is
	// fetched and closure-walked a single time per batch.
	sharedUpserts := map[string]*builtUpsert{}
	sharedClosures := map[string]*rdf.Resource{}
	for _, key := range keys {
		group := members[key]
		cs, built, err := e.buildGroupChangeset(group, interests, sharedUpserts, sharedClosures)
		if err != nil {
			return nil, err
		}
		e.stats.ChangesetsBuilt++
		e.stats.UpsertsBuilt += built
		if !cs.Empty() {
			ps.Groups = append(ps.Groups, PublishGroup{Members: group, Changeset: cs})
			e.stats.PublishGroups++
			e.stats.GroupedSubscribers += len(group)
		}
	}
	return ps, nil
}

// buildGroupChangeset materializes the shared changeset of one interest
// group. All members have equal URI sets in every section (same signature);
// per-URI subscription IDs are unioned, with MemberCredits recording which
// IDs belong to which member when the group has several. It also returns
// how many upserts it fetched and closure-walked rather than found in
// upCache; the caller counts them, since fills run under the shared lock.
func (e *Engine) buildGroupChangeset(group []string, interests map[string]*interest,
	upCache map[string]*builtUpsert, closCache map[string]*rdf.Resource) (cs *Changeset, built int, err error) {
	cs = &Changeset{}
	rep := interests[group[0]]

	// Upserts, sorted by URI.
	uris := make([]string, 0, len(rep.upserts))
	for uri := range rep.upserts {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	for _, uri := range uris {
		base := upCache[uri]
		if base == nil {
			res, ok, err := atoms.Statements.Read(e.db, uri)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				// Raced with deletion inside the batch; remember the miss
				// so other groups skip the fetch too.
				upCache[uri] = &builtUpsert{}
				continue
			}
			closure, err := e.strongClosure(res)
			if err != nil {
				return nil, 0, err
			}
			base = &builtUpsert{res: res, closure: closure}
			upCache[uri] = base
			built++
		}
		if base.res == nil {
			continue // cached deletion race
		}
		ids := map[int64]bool{}
		for _, subscriber := range group {
			for id := range interests[subscriber].upserts[uri] {
				ids[id] = true
			}
		}
		cs.Upserts = append(cs.Upserts, Upsert{
			Resource: base.res, SubIDs: sortedIDs(ids), Closure: base.closure})
	}

	// Removals: union of the members' (uri, subID) pairs.
	pairs := map[Removal]bool{}
	for _, subscriber := range group {
		for uri, ids := range interests[subscriber].removals {
			for id := range ids {
				pairs[Removal{URIRef: uri, SubID: id}] = true
			}
		}
	}
	for pair := range pairs {
		cs.Removals = append(cs.Removals, pair)
	}
	sort.Slice(cs.Removals, func(a, b int) bool {
		if cs.Removals[a].URIRef != cs.Removals[b].URIRef {
			return cs.Removals[a].URIRef < cs.Removals[b].URIRef
		}
		return cs.Removals[a].SubID < cs.Removals[b].SubID
	})

	// Closure updates, sorted by URI.
	curis := make([]string, 0, len(rep.closures))
	for uri := range rep.closures {
		curis = append(curis, uri)
	}
	sort.Strings(curis)
	for _, uri := range curis {
		cur, cached := closCache[uri]
		if !cached {
			res, ok, err := atoms.Statements.Read(e.db, uri)
			if err != nil {
				return nil, 0, err
			}
			if ok {
				cur = res
			}
			closCache[uri] = cur
		}
		if cur != nil {
			cs.ClosureUpserts = append(cs.ClosureUpserts, cur)
		}
	}

	// Forced deletes, sorted.
	for uri := range rep.forced {
		cs.ForcedDeletes = append(cs.ForcedDeletes, uri)
	}
	sort.Strings(cs.ForcedDeletes)

	// Credit ownership for shared changesets.
	if len(group) > 1 && !cs.Empty() {
		cs.MemberCredits = make(map[string][]int64, len(group))
		for _, subscriber := range group {
			in := interests[subscriber]
			owned := map[int64]bool{}
			for _, ids := range in.upserts {
				for id := range ids {
					owned[id] = true
				}
			}
			for _, ids := range in.removals {
				for id := range ids {
					owned[id] = true
				}
			}
			cs.MemberCredits[subscriber] = sortedIDs(owned)
		}
	}
	return cs, built, nil
}

func sortedIDs(ids map[int64]bool) []int64 {
	out := make([]int64, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// strongClosure returns the resources reachable from res over strong
// references, transitively, excluding res itself (paper §2.4: "resources
// referenced by [strong references] are always transmitted together with
// the referencing resource").
func (e *Engine) strongClosure(res *rdf.Resource) ([]*rdf.Resource, error) {
	return e.strongReach(res.URIRef, e.strongTargets(res))
}

// strongReach returns the resources targets name and those reachable from
// them over strong references, transitively, excluding root, sorted by URI.
// Dangling targets are skipped: there is nothing to transmit.
func (e *Engine) strongReach(root string, targets []string) ([]*rdf.Resource, error) {
	visited := map[string]bool{root: true}
	var out []*rdf.Resource
	queue := targets
	for len(queue) > 0 {
		target := queue[0]
		queue = queue[1:]
		if visited[target] {
			continue
		}
		visited[target] = true
		tres, ok, err := atoms.Statements.Read(e.db, target)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, tres)
		queue = append(queue, e.strongTargets(tres)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].URIRef < out[b].URIRef })
	return out, nil
}

// strongTargets lists the resources res references strongly.
func (e *Engine) strongTargets(res *rdf.Resource) []string {
	var out []string
	for _, p := range res.Props {
		if p.Value.Kind == rdf.ResourceRef && e.schema.IsStrongReference(res.Class, p.Name) {
			out = append(out, p.Value.Ref)
		}
	}
	return out
}

// newStrongTargets lists the strong references an update added to a
// resource (its Δ⁺ reference atoms of strong properties).
func (e *Engine) newStrongTargets(d resourceDelta) []string {
	var out []string
	for _, a := range d.plus {
		if a.IsRef && e.schema.IsStrongReference(a.Class, a.Property) {
			out = append(out, a.Value)
		}
	}
	return out
}

// strongHolders finds the subscribers that may cache the given resource via
// strong references: it walks incoming strong references transitively until
// it reaches resources matching subscribed end rules, and collects those
// rules' subscribers.
func (e *Engine) strongHolders(uri string) (map[string]bool, error) {
	subscribers := map[string]bool{}
	visited := map[string]bool{uri: true}
	queue := []string{uri}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		rows, err := e.db.Query(`
			SELECT uri_reference, class, property FROM Statements
			WHERE property != '`+rdf.SubjectProperty+`' AND is_ref = TRUE AND value = ?`, rdb.NewText(cur))
		if err != nil {
			return nil, err
		}
		for _, row := range rows.Data {
			referrer, class, prop := row[0].Str, row[1].Str, row[2].Str
			if !e.schema.IsStrongReference(class, prop) {
				continue
			}
			if visited[referrer] {
				continue
			}
			visited[referrer] = true
			// Does the referrer match any subscribed end rule?
			subs, err := e.subscriptionsMatching(referrer)
			if err != nil {
				return nil, err
			}
			for _, s := range subs {
				subscribers[s.subscriber] = true
			}
			queue = append(queue, referrer)
		}
	}
	return subscribers, nil
}

// subscriptionsMatching returns the subscriptions whose end rules the
// resource currently matches: its materialized rules, each looked up in the
// end-rule index.
func (e *Engine) subscriptionsMatching(uri string) ([]subscriberRef, error) {
	var out []subscriberRef
	err := e.db.QueryFunc(`SELECT rule_id FROM RuleResults WHERE uri_reference = ?`,
		[]rdb.Value{rdb.NewText(uri)}, func(row []rdb.Value) error {
			out = append(out, e.endSubs[row[0].Int]...)
			return nil
		})
	return out, err
}
