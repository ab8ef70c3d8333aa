package provider

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/rdf"
)

// BenchmarkPublishDurable measures the cost of durability on the
// registration path: a changelog that is never fsynced (SyncNone, what New
// opens) against one fsyncing every operation (SyncAlways) and one
// batching concurrent operations into shared fsyncs (SyncGroup, the
// default). Registrations
// run from concurrent callers; docs1 registers one document per call,
// docs16 a batch of 16 (the paper's deployment model — registrations
// arrive batched; one changelog record and one shared fsync cover the
// whole batch). One op is one RegisterDocuments call.
func BenchmarkPublishDurable(b *testing.B) {
	bench := func(b *testing.B, p *Provider, batch int) {
		b.Helper()
		defer p.Close()
		p.Attach("lmr", func(uint64, bool, *core.Changeset) error { return nil })
		if _, err := p.Subscribe("lmr", durRule); err != nil {
			b.Fatal(err)
		}
		// Cycle through a bounded, pre-populated URI space so every variant
		// measures the same steady state: per-document filter cost depends
		// on the number of registered documents, and unbounded growth (or
		// first-registration table building) would skew variants that run
		// different iteration counts.
		const uriSpace = 1024
		for i := 0; i < uriSpace; i += 64 {
			docs := make([]*rdf.Document, 64)
			for j := range docs {
				docs[j] = testDoc(i+j, 80)
			}
			if err := p.RegisterDocuments(docs); err != nil {
				b.Fatal(err)
			}
		}
		// Eight concurrent registrars regardless of core count: group
		// commit amortizes fsyncs across CONCURRENT operations, and the
		// filter work is serialized under pubMu anyway, so the benchmark
		// models the deployment (many providers registering at one MDP)
		// rather than the host's parallelism.
		if par := 8 / runtime.GOMAXPROCS(0); par > 1 {
			b.SetParallelism(par)
		}
		syncs0 := p.dur.log.SyncCount()
		var n int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				docs := make([]*rdf.Document, batch)
				for j := range docs {
					// Vary the port so every re-registration changes the
					// document: each doc yields a real changeset, so the
					// publish path (and its WAL pub records) is exercised,
					// not just the no-op re-registration fast path.
					v := atomic.AddInt64(&n, 1)
					docs[j] = testDoc(int(v%uriSpace), int(v%9000)+1)
				}
				if err := p.RegisterDocuments(docs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(batch)*int64(b.N)), "ns/doc")
		b.ReportMetric(float64(p.dur.log.SyncCount()-syncs0)/float64(b.N), "fsyncs/op")
	}

	variants := []struct {
		name string
		open func(b *testing.B) *Provider
	}{
		{"wal-always", func(b *testing.B) *Provider {
			p, err := OpenDurable("mdp", testSchema(), b.TempDir(), DurableOptions{Sync: changelog.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}},
		{"wal-group", func(b *testing.B) *Provider {
			p, err := OpenDurable("mdp", testSchema(), b.TempDir(), DurableOptions{Sync: changelog.SyncGroup})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}},
		// Full WAL serialization and buffered writes, no fsync: the gap
		// between wal-group and wal-none is the fsync cost.
		{"wal-none", func(b *testing.B) *Provider {
			p, err := OpenDurable("mdp", testSchema(), b.TempDir(), DurableOptions{Sync: changelog.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}},
	}
	for _, batch := range []int{1, 16} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("docs%d/%s", batch, v.name), func(b *testing.B) {
				bench(b, v.open(b), batch)
			})
		}
	}
}
