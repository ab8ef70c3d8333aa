package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdv/internal/client"
	"mdv/internal/faultnet"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/rdf"
)

// hostDocRound is host<i>.rdf at update round: each round changes the
// matched literal, so every registration publishes.
func hostDocRound(i, round int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("host%d.rdf", i))
	doc.NewResource("cp", "CycleProvider").
		Add("serverHost", rdf.Lit(fmt.Sprintf("node%d-r%d.uni-passau.de", i, round)))
	return doc
}

// firstRetained returns the lowest sequence at or above from that the
// provider's log still holds (0 when none does or the scan raced a
// truncation).
func firstRetained(p *provider.Provider, from uint64) uint64 {
	var first uint64
	stop := errors.New("stop")
	p.ReplayLog(from, func(seq uint64, _ []byte) error {
		first = seq
		return stop
	})
	return first
}

// TestCompactionUnderLiveTraffic runs compactions back to back while
// documents are registered, an LMR is dropped and resumes over and over,
// and a follower streams — and is cut off until truncation outruns it, so
// it must bootstrap again from a shipped snapshot. Afterwards the LMR's
// cache equals a fresh subscriber's fill, and the follower's log is a
// verbatim prefix of the primary's. Small segments make every compaction
// truncate. Registrations go on while the LMR is cut off but pause while it
// re-attaches and resumes (compactions do not): a live push that reaches
// the fresh connection before the resume replay moves the LMR's cursor
// past the records the replay would bring.
func TestCompactionUnderLiveTraffic(t *testing.T) {
	schema := chaosSchema(t)
	primary, err := provider.OpenDurable("primary", schema, t.TempDir(), provider.DurableOptions{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	addr, err := primary.ServeConfig("127.0.0.1:0", replWireCfg)
	if err != nil {
		t.Fatal(err)
	}

	lmrPx, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lmrPx.Close()
	cliCfg := client.Config{CallTimeout: 30 * time.Second}
	node, cli := dialNode(t, schema, "lmr", lmrPx, cliCfg)
	clients := []*client.MDP{cli}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	folPx, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer folPx.Close()
	rp, fol := startReplica(t, t.TempDir(), folPx.Addr(), "r1")
	defer rp.Close()
	defer fol.Close()

	const docs = 8
	stop := make(chan struct{})
	var writers, others sync.WaitGroup
	var rounds atomic.Int64
	var resuming sync.RWMutex // held by the LMR while it re-attaches
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < docs; i += 2 {
					resuming.RLock()
					err := primary.RegisterDocument(hostDocRound(i, round))
					resuming.RUnlock()
					if err != nil {
						t.Errorf("register: %v", err)
						return
					}
				}
				rounds.Add(1)
			}
		}(w)
	}
	var compactions atomic.Int64
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := primary.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			compactions.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	var done sync.WaitGroup
	done.Add(2)
	// The LMR drops and resumes from its cursor, eight times.
	go func() {
		defer done.Done()
		for cycle := 0; cycle < 8; cycle++ {
			time.Sleep(40 * time.Millisecond)
			lmrPx.ResetAll()
			time.Sleep(20 * time.Millisecond)
			resuming.Lock()
			deadline := time.Now().Add(10 * time.Second)
			for {
				c, err := client.DialMDPConfig(lmrPx.Addr(), cliCfg)
				if err == nil {
					clients = append(clients, c)
					if err = node.Reconnect(c); err == nil {
						break
					}
				}
				if time.Now().After(deadline) {
					resuming.Unlock()
					t.Errorf("lmr resume, cycle %d: %v", cycle, err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			resuming.Unlock()
		}
	}()
	// The follower is cut off until truncation outruns its tail.
	var bootstrapsBefore uint64
	go func() {
		defer done.Done()
		deadline := time.Now().Add(20 * time.Second)
		for rp.LogSeq() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		folPx.SetRefuseNew(true)
		folPx.ResetAll()
		bootstrapsBefore = fol.Bootstraps()
		for {
			tail := rp.LogSeq()
			if first := firstRetained(primary, tail+1); first > tail+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("truncation never passed the cut-off follower's tail %d", tail)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		folPx.SetRefuseNew(false)
	}()
	done.Wait()
	close(stop)
	writers.Wait()
	others.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d write rounds, %d compactions, primary log at seq %d", rounds.Load(), compactions.Load(), primary.LogSeq())

	waitUntil(t, "follower bootstrapped again and caught up", func() bool {
		return fol.Bootstraps() > bootstrapsBefore && rp.LogSeq() == primary.LogSeq()
	})
	fresh, err := lmr.New("fresh", schema, primary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AddSubscription(hostRule); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, fresh)
	waitUntil(t, "resumed LMR's cache equals a fresh fill", func() bool {
		return node.Repository().Len() == docs && fingerprint(t, node) == want
	})

	primaryLog := map[uint64][]byte{}
	if err := primary.ReplayLog(0, func(seq uint64, payload []byte) error {
		primaryLog[seq] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	compared := 0
	if err := rp.ReplayLog(0, func(seq uint64, payload []byte) error {
		if rec, ok := primaryLog[seq]; ok {
			compared++
			if !bytes.Equal(rec, payload) {
				return fmt.Errorf("follower record %d differs from the primary's", seq)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if compared == 0 {
		t.Error("the follower's and the primary's logs share no record")
	}
}
