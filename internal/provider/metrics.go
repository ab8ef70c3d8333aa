package provider

import (
	"time"

	"mdv/internal/metrics"
	"mdv/internal/wire"
)

// provMetrics are the provider's delivery-stage instruments; the
// per-subscriber counters from PR 2's delivery_stats are exported through
// scrape-time sample functions over the same data, so the two surfaces can
// never disagree.
type provMetrics struct {
	turnWait *metrics.Histogram
	fanout   *metrics.Histogram
	// snapshotShip times serving one bootstrap snapshot to a follower
	// (compaction + chunked wire transfer of the snapshot file).
	snapshotShip *metrics.Histogram
	// groupsPerPublish is the distinct-interest-group count per publish —
	// the number the coalesced delivery path's cost actually scales with.
	groupsPerPublish *metrics.Histogram
}

// groupCountBuckets bound the groups-per-publish histogram (counts, not
// seconds).
var groupCountBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 250, 1000}

// EnableMetrics attaches the provider and everything below it — engine,
// SQL database, and (when durable) the changelog — to the registry, and
// exports the per-subscriber delivery health counters as labeled sample
// families. Call before serving traffic; disabled providers pay one nil
// pointer load per delivery batch.
func (p *Provider) EnableMetrics(reg *metrics.Registry) {
	m := &provMetrics{
		turnWait: reg.Histogram("mdv_delivery_turnstile_wait_seconds",
			"time an operation waits for its delivery turn (ordering overhead of the pipelined publish)",
			metrics.TimeBuckets),
		fanout: reg.Histogram("mdv_delivery_fanout_seconds",
			"time to fan one operation's changesets out to all subscribers",
			metrics.TimeBuckets),
		snapshotShip: reg.Histogram("mdv_replication_snapshot_ship_seconds",
			"time to serve one bootstrap snapshot to a follower",
			metrics.TimeBuckets),
		groupsPerPublish: reg.Histogram("mdv_delivery_groups_per_publish",
			"distinct interest groups (changelog records, changeset builds, wire encodes) per publish",
			groupCountBuckets),
	}
	p.met.Store(m)
	p.reg.Store(reg)
	p.Engine().EnableMetrics(reg)
	p.dur.log.EnableMetrics(reg)

	sub := func(name string) []metrics.Label {
		return []metrics.Label{metrics.L("subscriber", name)}
	}
	type col struct {
		name string
		help string
		typ  string
		val  func(sd *subscriberSample) float64
	}
	cols := []col{
		{"mdv_subscriber_enqueued_total", "changesets handed to a subscriber's push queue",
			metrics.TypeCounter, func(sd *subscriberSample) float64 { return float64(sd.enqueued) }},
		{"mdv_subscriber_dropped_total", "changesets lost to queue-overflow disconnects",
			metrics.TypeCounter, func(sd *subscriberSample) float64 { return float64(sd.dropped) }},
		{"mdv_subscriber_disconnects_total", "push-channel losses, any cause",
			metrics.TypeCounter, func(sd *subscriberSample) float64 { return float64(sd.disconnects) }},
		{"mdv_subscriber_queue_depth", "occupancy of the subscriber's bounded send queues",
			metrics.TypeGauge, func(sd *subscriberSample) float64 { return float64(sd.queueDepth) }},
		{"mdv_subscriber_heartbeat_rtt_seconds", "most recent heartbeat round-trip time",
			metrics.TypeGauge, func(sd *subscriberSample) float64 { return sd.rtt.Seconds() }},
		{"mdv_subscriber_published_seq", "last changelog sequence published to the subscriber",
			metrics.TypeGauge, func(sd *subscriberSample) float64 { return float64(sd.published) }},
		{"mdv_subscriber_acked_seq", "last changelog sequence acknowledged by the subscriber",
			metrics.TypeGauge, func(sd *subscriberSample) float64 { return float64(sd.acked) }},
		{"mdv_subscriber_ack_lag", "published minus acknowledged sequences",
			metrics.TypeGauge, func(sd *subscriberSample) float64 { return float64(sd.lag) }},
	}
	for _, c := range cols {
		val := c.val
		reg.SampleFunc(c.name, c.help, c.typ, func() []metrics.Sample {
			sds := p.subscriberSamples()
			out := make([]metrics.Sample, len(sds))
			for i := range sds {
				out[i] = metrics.Sample{Labels: sub(sds[i].name), Value: val(&sds[i])}
			}
			return out
		})
	}

	// Replication families. The role gauge makes "which node am I scraping"
	// a first-class query; the per-follower families surface stream health
	// on the primary (empty on replicas and follower-less primaries).
	reg.SampleFunc("mdv_mdp_role", "node role (value 1, labeled primary or replica)",
		metrics.TypeGauge, func() []metrics.Sample {
			return []metrics.Sample{{Labels: []metrics.Label{metrics.L("role", p.Role())}, Value: 1}}
		})
	reg.GaugeFunc("mdv_replication_snapshots_shipped_total",
		"bootstrap snapshots served to followers",
		func() float64 { return float64(p.snapshotsShipped.Load()) })
	reg.SampleFunc("mdv_compactions_total", "snapshot-and-truncate passes by result (ok, error); a failed self-compaction retries at the next threshold crossing",
		metrics.TypeCounter, func() []metrics.Sample {
			return []metrics.Sample{
				{Labels: []metrics.Label{metrics.L("result", "ok")}, Value: float64(p.compactions.Load())},
				{Labels: []metrics.Label{metrics.L("result", "error")}, Value: float64(p.compactFailures.Load())},
			}
		})
	reg.GaugeFunc("mdv_epoch",
		"replication term this node is serving (monotone; bumped by promotions)",
		func() float64 { return float64(p.Epoch()) })
	reg.GaugeFunc("mdv_promotions_total",
		"times this node was promoted to primary",
		func() float64 { return float64(p.promotions.Load()) })
	reg.GaugeFunc("mdv_fenced_writes_total",
		"requests rejected by the epoch fence (stale or future term stamps)",
		func() float64 { return float64(p.fencedWrites.Load()) })
	reg.GaugeFunc("mdv_delivery_encode_once_bytes_saved_total",
		"wire bytes the encode-once group fan-out avoided re-marshaling (frame length x extra member connections)",
		func() float64 { return float64(p.encodeSavedBytes.Load()) })
	reg.GaugeFunc("mdv_resume_coalesced_records_total",
		"resume replay records folded into batched changeset pushes",
		func() float64 { return float64(p.replayCoalescedRecords.Load()) })
	reg.GaugeFunc("mdv_resume_coalesced_batches_total",
		"batched changeset pushes emitted by resume replays",
		func() float64 { return float64(p.replayCoalescedBatches.Load()) })
	fol := func(name string) []metrics.Label {
		return []metrics.Label{metrics.L("follower", name)}
	}
	type fcol struct {
		name string
		help string
		typ  string
		val  func(fd *wire.FollowerDelivery) float64
	}
	fcols := []fcol{
		{"mdv_replication_streamed_seq", "last changelog sequence shipped to the follower",
			metrics.TypeGauge, func(fd *wire.FollowerDelivery) float64 { return float64(fd.StreamedSeq) }},
		{"mdv_replication_acked_seq", "last changelog sequence the follower durably acknowledged",
			metrics.TypeGauge, func(fd *wire.FollowerDelivery) float64 { return float64(fd.AckedSeq) }},
		{"mdv_replication_lag_seqs", "primary log tail minus the follower's acknowledged sequence",
			metrics.TypeGauge, func(fd *wire.FollowerDelivery) float64 { return float64(fd.LagSeqs) }},
		{"mdv_replication_follower_connected", "1 while the follower's record stream is up",
			metrics.TypeGauge, func(fd *wire.FollowerDelivery) float64 {
				if fd.Connected {
					return 1
				}
				return 0
			}},
	}
	for _, c := range fcols {
		val := c.val
		reg.SampleFunc(c.name, c.help, c.typ, func() []metrics.Sample {
			fds := p.Followers()
			out := make([]metrics.Sample, len(fds))
			for i := range fds {
				out[i] = metrics.Sample{Labels: fol(fds[i].Follower), Value: val(&fds[i])}
			}
			return out
		})
	}
}

// Metrics returns the registry attached via EnableMetrics (nil before).
func (p *Provider) Metrics() *metrics.Registry { return p.reg.Load() }

// subscriberSample is one subscriber's delivery state at scrape time.
type subscriberSample struct {
	name                           string
	enqueued, dropped, disconnects uint64
	queueDepth                     int
	rtt                            time.Duration
	published, acked, lag          uint64
}

// subscriberSamples snapshots the per-subscriber delivery counters (the
// same data DeliveryStats serves over the wire).
func (p *Provider) subscriberSamples() []subscriberSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make(map[string]bool, len(p.delStats)+len(p.wireAttach))
	for name := range p.delStats {
		names[name] = true
	}
	for name := range p.wireAttach {
		names[name] = true
	}
	out := make([]subscriberSample, 0, len(names))
	for name := range names {
		c := p.countersLocked(name)
		s := subscriberSample{
			name: name, enqueued: c.enqueued, dropped: c.dropped,
			disconnects: c.disconnects, published: c.lastSeq,
		}
		s.acked = p.dur.acked[name]
		if s.published > s.acked {
			s.lag = s.published - s.acked
		}
		for _, conn := range p.wireAttach[name] {
			s.queueDepth += conn.QueueDepth()
			if rtt := conn.RTT(); rtt > s.rtt {
				s.rtt = rtt
			}
		}
		out = append(out, s)
	}
	return out
}
