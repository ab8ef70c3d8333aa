package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mdv/internal/rdb"
	"mdv/internal/rdf"
)

// refStrings renders subscriber refs as a sorted multiset.
func refStrings(refs []subscriberRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = fmt.Sprintf("%d/%s", r.subID, r.subscriber)
	}
	slices.Sort(out)
	return out
}

// checkEndRuleIndex compares the end-rule index with the tables it is
// derived from: entry for entry with SubscriptionEndRules ⋈ Subscriptions,
// which must leave no SubscriptionEndRules row out, and, for every
// registered resource, subscriptionsMatching with the three-way join that
// routed credits before the index existed.
func checkEndRuleIndex(t *testing.T, e *Engine, step string) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	var want, got []string
	rows, err := e.db.Query(`SELECT ser.end_rule, s.sub_id, s.subscriber FROM SubscriptionEndRules ser, Subscriptions s
		WHERE s.sub_id = ser.sub_id`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Data {
		want = append(want, fmt.Sprintf("%d:%d/%s", r[0].Int, r[1].Int, r[2].Str))
	}
	for end, refs := range e.endSubs {
		if len(refs) == 0 {
			t.Errorf("%s: end rule %d has an empty entry", step, end)
		}
		for _, s := range refStrings(refs) {
			got = append(got, fmt.Sprintf("%d:%s", end, s))
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: end-rule index\n got %v\nwant %v", step, got, want)
	}
	if tbl, _ := e.db.Raw().Table("SubscriptionEndRules"); tbl.Len() != len(want) {
		t.Fatalf("%s: %d SubscriptionEndRules rows, %d with a subscription", step, tbl.Len(), len(want))
	}
	uris, err := e.db.Query(`SELECT uri_reference FROM Resources`)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uris.Data {
		oracle, err := e.db.Query(`
			SELECT s.sub_id, s.subscriber FROM RuleResults rr, SubscriptionEndRules ser, Subscriptions s
			WHERE rr.uri_reference = ? AND ser.end_rule = rr.rule_id AND s.sub_id = ser.sub_id`, u[0])
		if err != nil {
			t.Fatal(err)
		}
		var wantRefs []subscriberRef
		for _, r := range oracle.Data {
			wantRefs = append(wantRefs, subscriberRef{subID: r[0].Int, subscriber: r[1].Str})
		}
		gotRefs, err := e.subscriptionsMatching(u[0].Str)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := refStrings(gotRefs), refStrings(wantRefs); !slices.Equal(g, w) {
			t.Fatalf("%s: subscriptions matching %s: got %v, want %v", step, u[0].Str, g, w)
		}
	}
}

// failingORRule has a first branch that decomposes and a second that does
// not (contains with a constant left operand).
func failingORRule(rng *rand.Rand) string {
	return fmt.Sprintf(`search CycleProvider c register c where c.serverPort = %d or 'uni' contains c.serverHost`,
		rng.Intn(6000))
}

// endRuleDoc is a CycleProvider document with its ServerInformation over
// the generator's value pools.
func endRuleDoc(rng *rand.Rand, i int) *rdf.Document {
	return compatDoc(i, genHosts[rng.Intn(len(genHosts))], genPorts[rng.Intn(len(genPorts))],
		genInts[rng.Intn(len(genInts))], genInts[rng.Intn(len(genInts))])
}

// TestEndRuleIndexDerivedState: the end-rule index equals its tables' join
// after every subscribe, failing OR subscribe, unsubscribe, registration
// and snapshot round trip, and routes each resource's credits exactly as
// the three-way join did.
func TestEndRuleIndexDerivedState(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t)
		var live []int64
		for step := 0; step < 60; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op < 3:
				rule := genRule(rng)
				what = "subscribe " + rule
				id, _, err := e.Subscribe(fmt.Sprintf("lmr%d", rng.Intn(3)), rule)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, what, err)
				}
				live = append(live, id)
			case op == 3:
				rule := failingORRule(rng)
				what = "failing subscribe " + rule
				if _, _, err := e.Subscribe("lmr9", rule); err == nil {
					t.Fatalf("seed %d: %s succeeded", seed, what)
				}
			case op < 6:
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				what = fmt.Sprintf("unsubscribe %d", live[k])
				if err := e.Unsubscribe(live[k]); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, what, err)
				}
				live = slices.Delete(live, k, k+1)
			case op == 6:
				what = "save/load"
				var buf bytes.Buffer
				if err := e.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf, paperSchema())
				if err != nil {
					t.Fatal(err)
				}
				e = loaded
			default:
				doc := endRuleDoc(rng, rng.Intn(8))
				what = "register " + doc.URI
				if _, err := e.RegisterDocument(doc); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, what, err)
				}
			}
			checkEndRuleIndex(t, e, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
	}
}

// TestEndRuleIndexConcurrentSubscribeAndRegister: subscriptions come and
// go on one goroutine while another registers documents; the index stays
// equal to its tables, and the race detector sees every index access under
// the engine lock.
func TestEndRuleIndexConcurrentSubscribeAndRegister(t *testing.T) {
	e := newTestEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		var live []int64
		for i := 0; i < 60; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := e.Unsubscribe(live[k]); err != nil {
					errs <- err
					return
				}
				live = slices.Delete(live, k, k+1)
				continue
			}
			id, _, err := e.Subscribe(fmt.Sprintf("lmr%d", i%3), genRule(rng))
			if err != nil {
				errs <- err
				return
			}
			live = append(live, id)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 60; i++ {
			if _, err := e.RegisterDocument(endRuleDoc(rng, i%8)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkEndRuleIndex(t, e, "after the concurrent run")
}

// TestLoadDropsOrphanedEndRules: a snapshot holding a SubscriptionEndRules
// row without its subscription, as a failed OR subscribe left them, loads
// without the row.
func TestLoadDropsOrphanedEndRules(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.Subscribe("lmr1", `search CycleProvider c register c`); err != nil {
		t.Fatal(err)
	}
	e.db.MustExec(`INSERT INTO SubscriptionEndRules (sub_id, end_rule) VALUES (?, ?)`, rdb.NewInt(7), rdb.NewInt(1))
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	checkEndRuleIndex(t, loaded, "after Load")
	if n := loaded.count("SubscriptionEndRules"); n != 1 {
		t.Errorf("%d SubscriptionEndRules rows after Load, want 1", n)
	}
}
