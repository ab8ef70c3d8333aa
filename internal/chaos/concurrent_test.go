package chaos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mdv/internal/client"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/wire"
)

// TestConcurrentWireTraffic drives one MDP+LMR pair over real wire
// connections with parallel registrations, client queries on the LMR's
// read path, MDP-side browsing, and subscription churn — the wire-level
// variant of core's concurrency stress test, meant for -race runs. The
// final state must be exactly the registered documents, visible both in
// the cache and through a wire query.
func TestConcurrentWireTraffic(t *testing.T) {
	schema := chaosSchema(t)
	prov, err := provider.New("mdp", schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	addr, err := prov.ServeConfig("127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}

	cliCfg := client.Config{CallTimeout: 30 * time.Second}
	sub, err := client.DialMDPConfig(addr, cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	node, err := lmr.New("lmr", schema, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	lmrAddr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const writers = 3
	const docsPerWriter = 15
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcli, err := client.DialMDPConfig(addr, cliCfg)
			if err != nil {
				t.Errorf("dial writer: %v", err)
				return
			}
			defer wcli.Close()
			for i := 0; i < docsPerWriter; i++ {
				if err := wcli.RegisterDocument(hostDoc(w*docsPerWriter + i)); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	// Concurrent wire clients querying the LMR's read path.
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			qcli, err := client.DialLMRConfig(lmrAddr, cliCfg)
			if err != nil {
				t.Errorf("dial lmr: %v", err)
				return
			}
			defer qcli.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := qcli.Query(hostRule); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent MDP-side reads (engine shared lock path over the wire).
	rg.Add(1)
	go func() {
		defer rg.Done()
		bcli, err := client.DialMDPConfig(addr, cliCfg)
		if err != nil {
			t.Errorf("dial browser: %v", err)
			return
		}
		defer bcli.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := bcli.Browse("CycleProvider", "uni-passau"); err != nil {
				t.Errorf("browse: %v", err)
				return
			}
			if _, err := bcli.Stats(); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
		}
	}()
	// Concurrent subscription churn from a second subscriber.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ccli, err := client.DialMDPConfig(addr, cliCfg)
		if err != nil {
			t.Errorf("dial churner: %v", err)
			return
		}
		defer ccli.Close()
		for i := 0; i < 8; i++ {
			id, err := ccli.Subscribe("churner", fmt.Sprintf(
				`search CycleProvider c register c where c.serverHost contains 'node%d'`, i))
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			if err := ccli.Unsubscribe(id); err != nil {
				t.Errorf("unsubscribe: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	rg.Wait()

	const want = writers * docsPerWriter
	waitUntil(t, "all registrations delivered to the LMR", func() bool {
		return node.Repository().Len() == want
	})
	qcli, err := client.DialLMRConfig(lmrAddr, cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer qcli.Close()
	rs, err := qcli.Query(hostRule)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != want {
		t.Fatalf("wire query sees %d resources, want %d", len(rs), want)
	}
}
