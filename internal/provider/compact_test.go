package provider

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/rdf"
	"mdv/internal/wire"
)

// payloadSchema is testSchema with a free-text property to carry large
// literals.
func payloadSchema() *rdf.Schema {
	s := testSchema()
	s.MustAddProperty("CycleProvider", rdf.PropertyDef{Name: "serverHost", Type: rdf.TypeString})
	return s
}

// payloadDoc is document b<i>.rdf carrying a literal of size bytes; round
// makes each update's content differ.
func payloadDoc(i, round, size int) *rdf.Document {
	doc := testDoc(i, 80)
	host := fmt.Sprintf("%d-%d-", round, i)
	doc.Resources[0].Add("serverHost", rdf.Lit(host+strings.Repeat("x", size-len(host))))
	return doc
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// snapshotSeq reads the log sequence snapshot.db in dir covers (0 when
// there is none) and its size.
func snapshotSeq(t *testing.T, dir string) (seq uint64, size int64) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return 0, 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(b[len(snapshotMagicV2):]), int64(len(b))
}

// TestProviderLogStaysBounded: a provider opened the way New opens one
// compacts on its own, so updating the same documents over and over keeps
// its directory at about two segments plus its snapshot instead of growing
// with every update. The subscriber acks every push, so only the snapshot
// rule decides what truncation frees. A reopen halfway makes recovery seed
// the growth count from the records past the snapshot.
func TestProviderLogStaysBounded(t *testing.T) {
	const docs, updates, literal = 16, 2500, 64 << 10
	const segment = 64 << 20 // changelog's default segment size
	dir := t.TempDir()
	open := func() *Provider {
		p, err := OpenDurable("mdp", payloadSchema(), dir, DurableOptions{Sync: changelog.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach("lmr", func(seq uint64, _ bool, _ *core.Changeset) error {
			return p.Ack("lmr", seq)
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := open()
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	var maxDir int64
	compactions := 0
	lastSnap, _ := snapshotSeq(t, dir)
	for u := 0; u < updates; u++ {
		if u == updates/2 {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			p = open()
		}
		if err := p.RegisterDocument(payloadDoc(u%docs, u/docs, literal)); err != nil {
			t.Fatal(err)
		}
		seq, snap := snapshotSeq(t, dir)
		if seq != lastSnap {
			compactions++
			lastSnap = seq
		}
		size := dirBytes(t, dir)
		maxDir = max(maxDir, size)
		if bound := 2*segment + 2*snap; size > bound {
			t.Fatalf("update %d: directory holds %d bytes, bound 2 x %d + 2 x snapshot %d = %d",
				u, size, segment, snap, bound)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if compactions < 3 {
		t.Errorf("%d compactions over %d updates; want at least 3", compactions, updates)
	}
	t.Logf("%d updates: %d compactions, largest directory %d bytes", updates, compactions, maxDir)
}

// TestRecoverySeedsLogGrowth: a reopened provider counts the retained
// records past its snapshot as growth, so a restart does not postpone the
// next compaction.
func TestRecoverySeedsLogGrowth(t *testing.T) {
	dir := t.TempDir()
	growth := func(p *Provider) int64 {
		return int64(p.dur.log.AppendedBytes()) - p.dur.grownFrom.Load()
	}
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{Sync: changelog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	register := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := p.RegisterDocument(testDoc(i, 80)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func() {
		t.Helper()
		before := growth(p)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if p, err = OpenDurable("mdp", testSchema(), dir, DurableOptions{Sync: changelog.SyncNone}); err != nil {
			t.Fatal(err)
		}
		// Recovery may append (a watermark record); it never forgets.
		if after := growth(p); after < before || after > before+1024 {
			t.Fatalf("growth %d before the reopen, %d after", before, after)
		}
	}
	register(0, 5)
	reopen() // no snapshot: every retained record counts
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := growth(p)
	register(5, 10)
	if growth(p) <= compacted {
		t.Fatalf("growth %d did not rise past %d with registrations", growth(p), compacted)
	}
	reopen() // only the records past the snapshot count
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSelfCompactionIsCounted: a self-compaction that fails leaves
// the operation that triggered it successful, counts in
// mdv_compactions_total{result="error"}, and is retried at the next
// crossing of the threshold.
func TestFailedSelfCompactionIsCounted(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDurable("mdp", testSchema(), dir, DurableOptions{Sync: changelog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := metrics.NewRegistry()
	p.EnableMetrics(reg)
	// The next write crosses the threshold.
	cross := func() {
		t.Helper()
		p.dur.grownFrom.Store(int64(p.dur.log.AppendedBytes()) - compactFloor)
	}
	// A directory in the temporary file's place makes the snapshot write fail.
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	cross()
	if err := p.RegisterDocument(testDoc(1, 80)); err != nil {
		t.Fatalf("register failed with its compaction: %v", err)
	}
	if !strings.Contains(reg.Text(), `mdv_compactions_total{result="error"} 1`) {
		t.Fatalf("failed compaction not counted:\n%s", grepLines(reg.Text(), "mdv_compactions_total"))
	}
	// The growth count restarted: the next write does not retry at once.
	if err := p.RegisterDocument(testDoc(2, 80)); err != nil {
		t.Fatal(err)
	}
	if got := p.compactFailures.Load(); got != 1 {
		t.Fatalf("compaction failures = %d after a write below the threshold, want 1", got)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	cross()
	if err := p.RegisterDocument(testDoc(3, 80)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reg.Text(), `mdv_compactions_total{result="ok"} 1`) {
		t.Fatalf("retried compaction not counted:\n%s", grepLines(reg.Text(), "mdv_compactions_total"))
	}
	if seq, _ := snapshotSeq(t, dir); seq == 0 {
		t.Fatal("retried compaction wrote no snapshot")
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestForcedBootstrapShipsCompactedSnapshot: a forced resync against a
// primary that has never compacted makes it compact, and the follower
// receives exactly the snapshot file Compact wrote, installs it, and
// converges with the stream past it.
func TestForcedBootstrapShipsCompactedSnapshot(t *testing.T) {
	pdir := t.TempDir()
	primary, err := OpenDurable("primary", testSchema(), pdir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.Subscribe("lmr", durRule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := primary.RegisterDocument(testDoc(i, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(pdir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("primary has a snapshot before any compaction (stat: %v)", err)
	}
	addr, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var data []byte
	done := make(chan struct{})
	conn.OnPush = func(m *wire.Message) {
		var chunk wire.ReplSnapshotChunk
		if m.Kind != wire.KindReplSnapshotChunk || json.Unmarshal(m.Body, &chunk) != nil {
			return
		}
		data = append(data, chunk.Data...)
		if chunk.Last {
			close(done)
		}
	}
	var resp wire.ReplSnapshotResponse
	tail := primary.LogSeq()
	req := &wire.ReplSnapshotRequest{FromSeq: tail, Epoch: primary.Epoch(), Force: true}
	if err := conn.Call(wire.KindReplSnapshot, req, &resp); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot chunks incomplete")
	}
	onDisk, err := os.ReadFile(filepath.Join(pdir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(data) {
		t.Fatalf("shipped %d bytes, snapshot.db holds %d: not the file Compact wrote", len(data), len(onDisk))
	}
	// The response names what the file's header says it covers.
	if seq, _ := snapshotSeq(t, pdir); !resp.Needed || resp.SnapshotSeq != seq || seq < tail || resp.Epoch != primary.Epoch() {
		t.Fatalf("response %+v; want a snapshot at the file's seq %d (>= tail %d), epoch %d", resp, seq, tail, primary.Epoch())
	}

	replica, err := OpenDurable("replica", testSchema(), t.TempDir(), DurableOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if seq, err := replica.InstallSnapshot(data); err != nil || seq != resp.SnapshotSeq {
		t.Fatalf("InstallSnapshot = %d, %v; want %d", seq, err, resp.SnapshotSeq)
	}
	if err := primary.RegisterDocument(testDoc(9, 80)); err != nil {
		t.Fatal(err)
	}
	shipLog(t, primary, replica)
	if got, want := replica.Engine().ResourceCount(), primary.Engine().ResourceCount(); got != want {
		t.Errorf("replica resources = %d, want %d", got, want)
	}
	if replica.LogSeq() != primary.LogSeq() {
		t.Errorf("replica tail %d, primary tail %d", replica.LogSeq(), primary.LogSeq())
	}
}

// TestCloseWaitsForCompaction: Close lets a running compaction finish and
// refuses later ones, so a provider made by New leaves no directory behind
// however its compactions and its Close interleave.
func TestCloseWaitsForCompaction(t *testing.T) {
	for round := 0; round < 20; round++ {
		p, err := New("mdp", testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RegisterDocument(testDoc(round, 80)); err != nil {
			t.Fatal(err)
		}
		compacting := make(chan struct{})
		done := make(chan error)
		go func() {
			close(compacting)
			for {
				if err := p.Compact(); err != nil {
					done <- err
					return
				}
			}
		}()
		<-compacting
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, changelog.ErrClosed) {
			t.Fatalf("compaction after Close: %v, want changelog.ErrClosed", err)
		}
		if _, err := os.Stat(p.dur.dir); !os.IsNotExist(err) {
			t.Fatalf("round %d: %s survives Close (stat: %v)", round, p.dur.dir, err)
		}
	}
}
