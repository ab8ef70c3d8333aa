// Replication figure (DESIGN.md §10): aggregate provider read throughput
// against reader count, comparing every read hitting the single primary
// with the same reads fanned across its read replicas, while a writer
// publishes continuously. Alongside throughput it reports the steady-state
// replication health: how many sequences the followers trail the primary
// and the stream propagation delay of the last applied record.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mdv/internal/client"
	"mdv/internal/provider"
	"mdv/internal/rdf"
	"mdv/internal/replica"
	"mdv/internal/workload"
)

// rewriteDoc rewrites document i with a fresh synthValue so every writer
// registration is a real update the replication stream must carry.
func rewriteDoc(i, v int) *rdf.Document {
	doc := rdf.NewDocument(fmt.Sprintf("doc%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(fmt.Sprintf("host%d.uni-passau.de", i)))
	host.Add("serverPort", rdf.Lit("5874"))
	host.Add("synthValue", rdf.Lit(fmt.Sprint(v)))
	host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit(fmt.Sprint(i)))
	info.Add("cpu", rdf.Lit("600"))
	return doc
}

// figureReplicated boots one durable primary and two read replicas over
// loopback TCP, caches a document set, and measures Browse throughput at
// 1/2/4/8 reader goroutines — all readers on the primary vs. round-robin
// across the replicas — with a concurrent writer re-registering documents
// so the replication stream carries a steady load.
func figureReplicated(div, reps int) {
	const nReplicas = 2
	docs := 400 / div
	queries := 200 * reps

	dir, err := os.MkdirTemp("", "mdvbench-replicated-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	primary, err := provider.OpenDurable("primary", workload.Schema(),
		filepath.Join(dir, "primary"), provider.DurableOptions{})
	if err != nil {
		panic(err)
	}
	defer primary.Close()
	primaryAddr, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		panic(err)
	}

	gen := workload.Generator{Type: workload.PATH}
	if err := primary.RegisterDocuments(gen.Batch(0, docs)); err != nil {
		panic(err)
	}

	var followers []*replica.Follower
	var replicaAddrs []string
	for i := 0; i < nReplicas; i++ {
		rp, err := provider.OpenDurable(fmt.Sprintf("r%d", i+1), workload.Schema(),
			filepath.Join(dir, fmt.Sprintf("replica%d", i+1)),
			provider.DurableOptions{Replica: true})
		if err != nil {
			panic(err)
		}
		defer rp.Close()
		fol, err := replica.Start(rp, replica.Options{Primary: primaryAddr})
		if err != nil {
			panic(err)
		}
		defer fol.Close()
		addr, err := rp.Serve("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		followers = append(followers, fol)
		replicaAddrs = append(replicaAddrs, addr)
		for deadline := time.Now().Add(30 * time.Second); rp.LogSeq() != primary.LogSeq(); {
			if time.Now().After(deadline) {
				panic("mdvbench: replica did not converge")
			}
			time.Sleep(time.Millisecond)
		}
	}

	dial := func(addrs []string) []*client.MDP {
		out := make([]*client.MDP, len(addrs))
		for i, a := range addrs {
			c, err := client.DialMDPConfig(a, client.Config{CallTimeout: 30 * time.Second})
			if err != nil {
				panic(err)
			}
			out[i] = c
		}
		return out
	}
	primaryClients := dial([]string{primaryAddr})
	replicaClients := dial(replicaAddrs)
	defer func() {
		for _, c := range append(primaryClients, replicaClients...) {
			c.Close()
		}
	}()

	browse := func(c *client.MDP) {
		if _, err := c.Browse("CycleProvider", "host39"); err != nil {
			panic(err)
		}
	}

	fmt.Printf("\nReplication — provider read throughput, primary vs. %d replicas (%d cached documents, %d reads per cell, writer on)\n",
		nReplicas, docs, queries)
	fmt.Printf("%-8s  %-22s  %-22s\n", "readers", "primary (us/read)", fmt.Sprintf("%d replicas (us/read)", nReplicas))
	for _, readers := range []int{1, 2, 4, 8} {
		fmt.Printf("%-8d", readers)
		for _, targets := range [][]*client.MDP{primaryClients, replicaClients} {
			stop := make(chan struct{})
			var wwg sync.WaitGroup
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				for v := 0; ; v++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := primary.RegisterDocument(rewriteDoc(v%(docs/8), v)); err != nil {
						panic(err)
					}
					time.Sleep(500 * time.Microsecond)
				}
			}()
			var wg sync.WaitGroup
			t0 := time.Now()
			for r := 0; r < readers; r++ {
				n := queries / readers
				if r < queries%readers {
					n++
				}
				wg.Add(1)
				go func(r, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						browse(targets[(r+i)%len(targets)])
					}
				}(r, n)
			}
			wg.Wait()
			elapsed := time.Since(t0)
			close(stop)
			wwg.Wait()
			us := float64(elapsed.Microseconds()) / float64(queries)
			qps := float64(queries) / elapsed.Seconds()
			fmt.Printf("  %-9.1f %9.0f/s", us, qps)
			label := "primary"
			if len(targets) > 1 {
				label = fmt.Sprintf("replicas=%d", len(targets))
			}
			records = append(records, record{
				Figure: "replicated", Label: label, RuleType: "BROWSE",
				Batch: readers, UsPerDoc: us, Reps: reps,
			})
		}
		fmt.Println()
	}

	// Steady-state replication health after the full read/write load: how
	// far the followers trail the primary's log and the propagation delay
	// of the last record each applied.
	var maxLagSeqs uint64
	for _, fd := range primary.Followers() {
		if fd.LagSeqs > maxLagSeqs {
			maxLagSeqs = fd.LagSeqs
		}
	}
	var maxPropUS float64
	for _, fol := range followers {
		if us := float64(fol.Lag().Microseconds()); us > maxPropUS {
			maxPropUS = us
		}
	}
	fmt.Printf("steady-state lag: %d seqs behind, last-record propagation %.0f us\n", maxLagSeqs, maxPropUS)
	records = append(records,
		record{Figure: "replicated", Label: "lag_seqs", RuleType: "LAG", UsPerDoc: float64(maxLagSeqs), Reps: reps},
		record{Figure: "replicated", Label: "propagation_us", RuleType: "LAG", UsPerDoc: maxPropUS, Reps: reps})
}
