// lmr runs a Local Metadata Repository (LMR): the MDV middle-tier cache.
// It connects to a Metadata Provider, registers the subscription rules
// given in the rules file (one rule per line; blank lines and lines
// starting with # are ignored), receives published changesets, and serves
// the MDV query language to local applications.
//
// Usage:
//
//	lmr -addr :7272 -name lmr1 -mdp host:7171 -schema schema.rdf [-rules rules.mdv]
//	lmr -addr :7272 -name lmr1 -mdp primary:7171 -mdp replica:7172 -schema schema.rdf
//
// -mdp is repeatable: give the primary and its replicas and the LMR fails
// over between them — if the connected provider dies, the reconnect
// supervisor rotates to the next endpoint that answers. Replicas serve
// the full read path and proxy writes to the primary, so any endpoint is
// a full substitute.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mdv/mdv"
)

type endpointList []string

func (e *endpointList) String() string { return strings.Join(*e, ",") }
func (e *endpointList) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7272", "listen address for clients")
		name       = flag.String("name", "lmr", "repository name (subscriber identity)")
		schemaPath = flag.String("schema", "", "path to the RDF schema file (required)")
		rulesPath  = flag.String("rules", "", "path to a subscription rules file (optional)")
		heartbeat  = flag.Duration("heartbeat", 5*time.Second, "heartbeat ping interval; a provider silent for 3x this is declared dead (0 disables)")
		ioTimeout  = flag.Duration("io-timeout", 10*time.Second, "per-message write deadline and default request timeout (0 disables)")
		sendQueue  = flag.Int("send-queue", 256, "bounded per-client send queue on the LMR's own server")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; also enables mutex/block profiling; empty disables)")
		metricsOn  = flag.String("metrics", "", "serve Prometheus /metrics on this address (e.g. localhost:6061; shares the pprof mux; empty disables)")
		mdps       endpointList
	)
	flag.Var(&mdps, "mdp", "metadata provider address (repeatable: primary first, then replicas for failover; at least one required)")
	flag.Parse()

	if len(mdps) == 0 || *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "lmr: -mdp and -schema are required")
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		// Match cmd/mdp: sample mutex contention and blocking so lock waits
		// in the delivery path are visible in the mutex/block profiles.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100_000)
		go func() {
			log.Printf("lmr: pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("lmr: pprof: %v", err)
			}
		}()
	}
	f, err := os.Open(*schemaPath)
	if err != nil {
		log.Fatalf("lmr: open schema: %v", err)
	}
	schema, err := mdv.ParseSchema(f)
	f.Close()
	if err != nil {
		log.Fatalf("lmr: parse schema: %v", err)
	}

	cliCfg := mdv.ClientConfig{
		Heartbeat:    *heartbeat,
		IdleTimeout:  3 * *heartbeat,
		WriteTimeout: *ioTimeout,
		CallTimeout:  *ioTimeout,
	}

	// All provider endpoints go through one sticky rotating dialer; the
	// initial dial retries transient failures with jittered backoff so an
	// LMR started moments before its providers still comes up.
	dialer, err := mdv.NewMultiDialer(mdps, cliCfg)
	if err != nil {
		log.Fatalf("lmr: %v", err)
	}
	var prov *mdv.ProviderClient
	dialBackoff := &mdv.Backoff{}
	err = mdv.Retry(context.Background(), dialBackoff, 5, mdv.IsRetryable, func() error {
		var derr error
		prov, derr = dialer.Dial()
		return derr
	})
	if err != nil {
		log.Fatalf("lmr: dial provider: %v", err)
	}
	log.Printf("lmr: connected to provider (cluster epoch %d)", dialer.Epoch())
	node, err := mdv.NewRepositoryNode(*name, schema, prov)
	if err != nil {
		log.Fatalf("lmr: %v", err)
	}
	if *metricsOn != "" {
		reg := mdv.NewMetricsRegistry()
		node.EnableMetrics(reg)
		http.Handle("/metrics", reg.Handler())
		if *metricsOn == *pprofAddr {
			// The pprof listener already serves the default mux.
			log.Printf("lmr: metrics on http://%s/metrics (pprof mux)", *metricsOn)
		} else {
			go func() {
				log.Printf("lmr: metrics listening on http://%s/metrics", *metricsOn)
				if err := http.ListenAndServe(*metricsOn, nil); err != nil {
					log.Printf("lmr: metrics: %v", err)
				}
			}()
		}
	}

	if *rulesPath != "" {
		rf, err := os.Open(*rulesPath)
		if err != nil {
			log.Fatalf("lmr: open rules: %v", err)
		}
		sc := bufio.NewScanner(rf)
		n := 0
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			id, err := node.AddSubscription(line)
			if err != nil {
				log.Fatalf("lmr: subscribe %q: %v", line, err)
			}
			log.Printf("lmr: subscription %d: %s", id, line)
			n++
		}
		rf.Close()
		if err := sc.Err(); err != nil {
			log.Fatalf("lmr: read rules: %v", err)
		}
		log.Printf("lmr: %d subscriptions registered, cache holds %d resources",
			n, node.Repository().Len())
	}

	listenAddr, err := node.ServeConfig(*addr, mdv.WireConfig{
		HeartbeatInterval: *heartbeat,
		IdleTimeout:       3 * *heartbeat,
		WriteTimeout:      *ioTimeout,
		SendQueue:         *sendQueue,
	})
	if err != nil {
		log.Fatalf("lmr: serve: %v", err)
	}
	log.Printf("lmr %q listening on %s (providers %s)", *name, listenAddr, mdps.String())

	// Resume: catch up on changesets published while this LMR was down.
	if seq, err := node.Resume(); err != nil {
		log.Printf("lmr: resume: %v", err)
	} else if seq > 0 {
		log.Printf("lmr: resumed changeset stream (current to seq %d)", seq)
	}

	// Reconnect supervisor: when the provider connection drops, redial with
	// backoff, re-attach, and resume the stream from the last applied
	// sequence. The MDP replays the missed changesets from its changelog,
	// or sends a full-state reset when its log no longer covers the cursor.
	// The supervisor owns the provider handle from here on and closes it on
	// shutdown.
	stop := make(chan struct{})
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		node.Supervise(stop, prov, mdv.SuperviseConfig{
			Dial: func() (mdv.ReconnectableProvider, error) {
				return dialer.Dial()
			},
			Retryable: mdv.IsRetryable,
			Logf:      log.Printf,
		})
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("lmr: shutting down")
	close(stop)
	node.Close()
	<-supDone
}
