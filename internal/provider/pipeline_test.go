package provider

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdv/internal/core"
)

// TestDeliveryOrderSurvivesPipelining proves the §2.2 ordering guarantee
// holds with delivery outside pubMu: under concurrent registrations, a
// subscriber observes changelog sequences strictly increasing and never
// two deliveries overlapping in time (the turnstile serializes the
// delivery stage in publish order).
func TestDeliveryOrderSurvivesPipelining(t *testing.T) {
	p, err := OpenDurable("mdp", testSchema(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var mu sync.Mutex
	var seqs []uint64
	var inFlight atomic.Int32
	p.Attach("lmr", func(seq uint64, reset bool, cs *core.Changeset) error {
		if inFlight.Add(1) != 1 {
			t.Error("overlapping deliveries to one subscriber")
		}
		defer inFlight.Add(-1)
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
		return nil
	})
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const docsPerWriter = 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				if err := p.RegisterDocument(testDoc(w*docsPerWriter+i, 80)); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != writers*docsPerWriter {
		t.Fatalf("delivered %d changesets, want %d", len(seqs), writers*docsPerWriter)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence order violated at delivery %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}

// TestPublishPipelineOverlapsDelivery proves registration N+1's filter run
// proceeds while registration N's delivery fan-out is still in flight: the
// engine work no longer serializes behind a blocked subscriber.
func TestPublishPipelineOverlapsDelivery(t *testing.T) {
	p, err := New("mdp", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var order []string
	var mu sync.Mutex
	p.Attach("lmr", func(_ uint64, _ bool, cs *core.Changeset) error {
		mu.Lock()
		order = append(order, cs.Upserts[0].Resource.URIRef)
		mu.Unlock()
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	go func() { done <- p.RegisterDocument(testDoc(0, 80)) }()
	<-entered // registration 0 is mid-delivery, outside pubMu
	go func() { done <- p.RegisterDocument(testDoc(1, 81)) }()

	// Registration 1's engine run must complete while registration 0's
	// delivery is still blocked; its delivery then waits its turn.
	deadline := time.After(5 * time.Second)
	for p.Engine().Stats().DocumentsRegistered < 2 {
		select {
		case <-deadline:
			t.Fatal("second registration's filter run did not overlap the first's delivery")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"b0.rdf#cp", "b1.rdf#cp"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}
