// mdp runs a Metadata Provider (MDP): an MDV backbone node serving the
// wire protocol. A primary and the replicas following its changelog form
// the replicated backbone.
//
// Usage:
//
//	mdp -addr :7171 -name mdp1 -schema schema.rdf -data /var/lib/mdp \
//	    [-wal-sync group|always|none] [-snapshot-interval 5m]
//	mdp -addr :7172 -name mdp2 -schema schema.rdf -data /var/lib/mdp2 \
//	    -replica-of primary:7171
//
// The -data directory holds the provider's snapshot and write-ahead
// changelog: every acknowledged operation is written to the changelog
// before it is applied, snapshots are taken periodically
// (-snapshot-interval) and on SIGTERM, and reconnecting LMRs resume the
// changeset stream from their acknowledged sequence.
//
// With -replica-of the node runs as a read replica of the named primary:
// it streams the primary's changelog into its own durable copy
// (bootstrapping from a shipped snapshot when it has fallen behind the
// primary's log retention), serves the full read path — subscriptions,
// queries, browsing, changeset resume — and proxies write operations to
// the primary.
//
// Failover (DESIGN.md §11): repeat -cluster with every endpoint that may
// be or become the primary. A replica then re-points automatically after
// a promotion (operator `mdvctl promote`, or the opt-in -auto-promote
// deadman), and a restarting ex-primary probes the cluster before serving:
// if a higher-epoch primary exists it rejoins as a follower, repairing any
// divergent log tail via a forced snapshot resync, and fences every write
// stamped with its dead term.
//
// The schema file uses the RDF Schema serialization accepted by
// rdf.ParseSchema (see the repository README for an example).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mdv/mdv"
)

type peerList []string

func (p *peerList) String() string { return fmt.Sprint(*p) }
func (p *peerList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7171", "listen address")
		name       = flag.String("name", "mdp", "provider name")
		schemaPath = flag.String("schema", "", "path to the RDF schema file (required)")
		dataDir    = flag.String("data", "", "data directory: snapshot and write-ahead changelog (required)")
		walSync    = flag.String("wal-sync", "group", "changelog durability: group (batched fsync), always (fsync per op), none")
		snapEvery  = flag.Duration("snapshot-interval", 5*time.Minute, "interval between snapshot+changelog-truncation passes (0 disables)")
		heartbeat  = flag.Duration("heartbeat", 5*time.Second, "heartbeat ping interval; peers silent for 3x this are disconnected (0 disables)")
		ioTimeout  = flag.Duration("io-timeout", 10*time.Second, "per-message write deadline on subscriber connections (0 disables)")
		sendQueue  = flag.Int("send-queue", 256, "bounded per-subscriber send queue; overflow disconnects the subscriber")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; also enables mutex/block profiling; empty disables)")
		metricsOn  = flag.String("metrics", "", "serve Prometheus /metrics on this address (e.g. localhost:6060; shares the pprof mux; empty disables)")
		slowThresh = flag.Duration("slow-threshold", 0, "log publishes slower than this, with the dominating rule groups and statements (0 disables)")
		replicaOf  = flag.String("replica-of", "", "run as a read replica of the primary MDP at this address")
		advertise  = flag.String("advertise", "", "identity announced to the primary's follower stats (default: -name)")
		advAddr    = flag.String("advertise-addr", "", "address other nodes should use to reach this one (default: the bound listen address)")
		autoProm   = flag.Duration("auto-promote", 0, "replica deadman: self-promote after this long without any reachable primary, if most caught-up among -cluster peers (0 disables)")
		cluster    peerList
	)
	flag.Var(&cluster, "cluster", "replication cluster candidate endpoint (repeatable): every node that may be or become the primary; enables startup rejoin probing and failover re-pointing")
	flag.Parse()

	if *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "mdp: -schema is required")
		flag.Usage()
		os.Exit(2)
	}
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "mdp: -data is required (the provider's snapshot and changelog live there)")
		flag.Usage()
		os.Exit(2)
	}
	var syncPolicy mdv.SyncPolicy
	switch *walSync {
	case "group":
		syncPolicy = mdv.SyncGroup
	case "always":
		syncPolicy = mdv.SyncAlways
	case "none":
		syncPolicy = mdv.SyncNone
	default:
		fmt.Fprintf(os.Stderr, "mdp: unknown -wal-sync %q (want group, always, or none)\n", *walSync)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		// Contended-lock visibility: sample one in 100 mutex contention
		// events and blocking events of ~100µs and up, so the statement
		// locks and the engine lock show up in the mutex/block
		// profiles (see the README capture recipe).
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100_000)
		go func() {
			log.Printf("mdp: pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("mdp: pprof: %v", err)
			}
		}()
	}
	f, err := os.Open(*schemaPath)
	if err != nil {
		log.Fatalf("mdp: open schema: %v", err)
	}
	schema, err := mdv.ParseSchema(f)
	f.Close()
	if err != nil {
		log.Fatalf("mdp: parse schema: %v", err)
	}

	prov, stats, err := mdv.OpenDurableProviderWithStats(*name, schema, *dataDir,
		mdv.DurableOptions{Sync: syncPolicy, Replica: *replicaOf != ""})
	if err != nil {
		log.Fatalf("mdp: open durable store: %v", err)
	}
	log.Printf("mdp: durable store %s (snapshot seq %d, %d ops replayed, %d skipped, log seq %d)",
		*dataDir, stats.SnapshotSeq, stats.Replayed, stats.Skipped, prov.LogSeq())
	var reg *mdv.MetricsRegistry
	if *metricsOn != "" {
		reg = mdv.NewMetricsRegistry()
		prov.EnableMetrics(reg)
		http.Handle("/metrics", reg.Handler())
		if *metricsOn == *pprofAddr {
			// The pprof listener already serves the default mux.
			log.Printf("mdp: metrics on http://%s/metrics (pprof mux)", *metricsOn)
		} else {
			go func() {
				log.Printf("mdp: metrics listening on http://%s/metrics", *metricsOn)
				if err := http.ListenAndServe(*metricsOn, nil); err != nil {
					log.Printf("mdp: metrics: %v", err)
				}
			}()
		}
	}
	if *slowThresh > 0 {
		prov.Engine().SetSlowOpLog(*slowThresh, log.Printf)
	}
	wireCfg := mdv.WireConfig{
		HeartbeatInterval: *heartbeat,
		IdleTimeout:       3 * *heartbeat,
		WriteTimeout:      *ioTimeout,
		SendQueue:         *sendQueue,
	}
	peerCfg := mdv.ClientConfig{
		Heartbeat:    *heartbeat,
		IdleTimeout:  3 * *heartbeat,
		WriteTimeout: *ioTimeout,
		CallTimeout:  30 * time.Second,
	}

	// Startup rejoin probe: a node restarting from an old primary's
	// state may have been deposed while it was down. If any -cluster
	// candidate serves a HIGHER epoch, step down before serving a single
	// request — the stale node must never ack a write of its dead term —
	// and follow that primary instead (repairing a divergent log tail via
	// forced snapshot resync).
	followPrimary := *replicaOf
	if followPrimary == "" && len(cluster) > 0 && !prov.Replica() {
		if paddr, topo := mdv.ProbeForPrimary(cluster, peerCfg); topo != nil && topo.Epoch > prov.Epoch() {
			log.Printf("mdp: cluster primary %s serves epoch %d > local %d; rejoining as follower",
				paddr, topo.Epoch, prov.Epoch())
			prov.ObserveEpoch(topo.Epoch, paddr)
			followPrimary = paddr
		}
	}

	followerName := *advertise
	if followerName == "" {
		followerName = *name
	}
	// startFollower (re)starts the replication session toward a primary.
	// It runs at startup for -replica-of / a rejoin, and again from
	// OnDemote when a serving primary learns it has been deposed.
	var folMu sync.Mutex
	var follower *mdv.Follower
	var folMetrics sync.Once
	startFollower := func(primaryAddr string) error {
		folMu.Lock()
		defer folMu.Unlock()
		if follower != nil {
			follower.Close()
		}
		fol, err := mdv.StartFollower(prov, mdv.FollowerOptions{
			Name:        followerName,
			Primary:     primaryAddr,
			Primaries:   cluster,
			AutoPromote: *autoProm,
			Client:      peerCfg,
			Logf:        log.Printf,
		})
		if err != nil {
			return err
		}
		follower = fol
		if reg != nil {
			folMetrics.Do(func() { fol.EnableMetrics(reg) })
		}
		log.Printf("mdp: replicating from primary %s (as %q, local tail %d)",
			primaryAddr, followerName, prov.LogSeq())
		return nil
	}
	prov.OnDemote = func(epoch uint64, newPrimary string) {
		log.Printf("mdp: stepped down: observed epoch %d (local term is dead)", epoch)
		if newPrimary == "" && len(cluster) > 0 {
			if paddr, topo := mdv.ProbeForPrimary(cluster, peerCfg); topo != nil {
				newPrimary = paddr
			}
		}
		if newPrimary == "" {
			log.Printf("mdp: no reachable primary to follow after step-down; serving reads, degrading writes")
			return
		}
		if err := startFollower(newPrimary); err != nil {
			log.Printf("mdp: start replication after step-down: %v", err)
		}
	}

	listenAddr, err := prov.ServeConfig(*addr, wireCfg)
	if err != nil {
		log.Fatalf("mdp: serve: %v", err)
	}
	if *advAddr != "" {
		prov.SetAdvertiseAddr(*advAddr)
	}
	log.Printf("mdp %q listening on %s (schema: %d classes, role %s, epoch %d)",
		*name, listenAddr, len(schema.Classes()), prov.Role(), prov.Epoch())

	if followPrimary != "" {
		if err := startFollower(followPrimary); err != nil {
			log.Fatalf("mdp: start replication: %v", err)
		}
	}

	var stopSnapshots chan struct{}
	if *snapEvery > 0 {
		stopSnapshots = make(chan struct{})
		go func() {
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := prov.Compact(); err != nil {
						log.Printf("mdp: periodic snapshot: %v", err)
					} else {
						log.Printf("mdp: snapshot written (log seq %d)", prov.LogSeq())
					}
				case <-stopSnapshots:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("mdp: shutting down")
	folMu.Lock()
	if follower != nil {
		follower.Close()
	}
	folMu.Unlock()
	if stopSnapshots != nil {
		close(stopSnapshots)
	}
	if err := prov.Compact(); err != nil {
		log.Printf("mdp: final snapshot: %v", err)
	} else {
		log.Printf("mdp: final snapshot written (log seq %d)", prov.LogSeq())
	}
	prov.Close()
}
