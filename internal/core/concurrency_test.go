package core_test

import (
	"fmt"
	"sync"
	"testing"

	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
)

// TestConcurrentRegistrationsAndQueries hammers one provider with parallel
// registrations, subscriptions, and repository queries. The engine
// serializes internally; the test asserts nothing is lost and nothing
// races (run with -race).
func TestConcurrentRegistrationsAndQueries(t *testing.T) {
	schema := soundnessSchema()
	prov, err := provider.New("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	node, err := lmr.New("lmr", schema, prov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(
		`search CycleProvider c register c where c.serverPort >= 0`); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const docsPerWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				doc := rdf.NewDocument(fmt.Sprintf("c%d-%d.rdf", w, i))
				cp := doc.NewResource("cp", "CycleProvider")
				cp.Add("serverHost", rdf.Lit("h.example.org"))
				cp.Add("serverPort", rdf.Lit(fmt.Sprint(i)))
				cp.Add("synthValue", rdf.Lit("1"))
				if err := prov.RegisterDocument(doc); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := node.Query(`search CycleProvider c register c where c.serverPort > 10`); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent engine readers: the RW-locked read surface (browse,
	// stats, subscription listings, match evaluation) must run in parallel
	// with the writers without torn reads.
	engine := prov.Engine()
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := engine.Browse("CycleProvider", "h.example"); err != nil {
					t.Errorf("browse: %v", err)
					return
				}
				st := engine.Stats()
				if st.DocumentsRegistered < 0 {
					t.Error("stats: negative counter")
					return
				}
				subs, err := engine.Subscriptions()
				if err != nil {
					t.Errorf("subscriptions: %v", err)
					return
				}
				for _, s := range subs {
					if _, err := engine.MatchingResources(s.ID); err != nil {
						t.Errorf("matching resources: %v", err)
						return
					}
				}
				if _, err := engine.DocumentURIs(); err != nil {
					t.Errorf("document uris: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent subscriber churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			id, err := prov.Subscribe("lmr2", fmt.Sprintf(
				`search CycleProvider c register c where c.serverPort = %d`, i))
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			if err := prov.Unsubscribe(id); err != nil {
				t.Errorf("unsubscribe: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	if got := node.Repository().Len(); got != writers*docsPerWriter {
		t.Errorf("cache holds %d resources, want %d", got, writers*docsPerWriter)
	}
	rs, err := node.Query(`search CycleProvider c register c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != writers*docsPerWriter {
		t.Errorf("query sees %d resources, want %d", len(rs), writers*docsPerWriter)
	}
}
