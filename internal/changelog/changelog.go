// Package changelog implements MDV's durable write-ahead publish log: an
// append-only, segment-based, CRC-checked record log with monotonic
// sequence numbers. A Metadata Provider logs every input operation before
// applying it (crash recovery replays the tail after the latest snapshot)
// and logs every published changeset after applying it (a reconnecting LMR
// resumes by replaying the publish records past its acknowledged sequence).
//
// Durability model: Append only buffers a record; WaitDurable makes it
// (and everything appended before it) crash-safe. WaitDurable implements
// group commit with a leader/follower gate: the first waiter flushes and
// fsyncs on behalf of everyone queued behind it, so N concurrent
// registrations amortize one fsync instead of paying N.
//
// On-disk format, per record:
//
//	[4B big-endian length of seq+payload] [4B CRC-32C of seq+payload]
//	[8B big-endian sequence number] [payload]
//
// Segments are files named wal-<first-seq>.seg. Only the tail segment can
// ever be torn (older segments are flushed and fsynced before rotation);
// Open scans the tail and truncates it at the last intact record, which
// makes recovery safe against kill -9 mid-write. TruncateBelow removes
// whole segments once every record in them is both covered by a snapshot
// and acknowledged by all subscribers.
package changelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects how WaitDurable provides durability.
type SyncPolicy int

const (
	// SyncGroup (default) buffers appends and batches fsyncs across
	// concurrent waiters (group commit).
	SyncGroup SyncPolicy = iota
	// SyncAlways flushes and fsyncs inside every Append (one fsync per
	// record; the baseline group commit is measured against).
	SyncAlways
	// SyncNone never fsyncs (flushes happen on rotation, replay, and
	// close). For tests and ablation benchmarks only.
	SyncNone
)

// Options tune a log.
type Options struct {
	// SegmentSize rotates to a new segment file once the active one
	// reaches this many bytes (default 64 MiB).
	SegmentSize int64
	// Sync selects the durability policy (default SyncGroup).
	Sync SyncPolicy
	// Busy, if set, reports whether more commits are imminent (e.g. the
	// caller has operations mid-flight that will append soon). A group
	// commit leader polls it before fsyncing and delays up to GroupWindow
	// while it returns true, so the imminent appends share the fsync
	// instead of each paying their own.
	Busy func() bool
	// GroupWindow bounds how long a group commit leader will delay its
	// fsync while Busy reports more work coming. Zero disables the delay
	// (the leader syncs immediately); ignored when Busy is nil.
	GroupWindow time.Duration
	// SyncFault is a fault-injection hook for recovery testing: when set,
	// it runs before every physical fsync, and a non-nil return is treated
	// as the fsync having failed (the error is sticky, exactly like a real
	// I/O failure). Must be safe for concurrent calls. Never set outside
	// tests.
	SyncFault func() error
}

const (
	defaultSegmentSize = 64 << 20
	headerSize         = 16
	segPrefix          = "wal-"
	segSuffix          = ".seg"
	// MaxRecordSize bounds one record's payload; a corrupt length prefix
	// must not make recovery allocate unboundedly.
	MaxRecordSize = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned for operations on a closed log.
var ErrClosed = errors.New("changelog: log is closed")

type segment struct {
	path  string
	first uint64 // sequence number of the segment's first record
}

// Log is one append-only changelog.
type Log struct {
	dir  string
	opts Options

	// mu guards the active file, buffer, counters, and segment list.
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	size     int64
	nextSeq  uint64
	written  uint64 // highest sequence appended to the buffer
	segments []segment
	failed   error // sticky I/O failure: the log refuses further writes
	closed   bool
	// obsolete holds rotated-out segment files. Rotation does not close
	// them: a group-commit leader may be fsyncing the rotated file outside
	// mu at that moment. They are closed by the next leader, Sync, or Close.
	obsolete []*os.File

	// syncMu is the group-commit gate: the first WaitDurable caller to
	// acquire it becomes the fsync leader for everyone queued behind. The
	// leader fsyncs OUTSIDE mu, so appends (and the operations behind them)
	// pipeline with the disk wait instead of queuing on it.
	syncMu  sync.Mutex
	durable atomic.Uint64 // highest sequence known fsynced
	syncs   atomic.Uint64 // fsyncs issued (observability: group commit ratio)

	appends   atomic.Uint64 // records appended (observability)
	truncated atomic.Uint64 // segment files removed by TruncateBelow
	met       atomic.Pointer[logMetrics]

	// notifyMu/notifyCh broadcast durability advances (and close) to
	// tailing Readers: each advance closes and replaces the channel.
	notifyMu sync.Mutex
	notifyCh chan struct{}
}

// SyncCount returns how many fsyncs the log has issued. Against the number
// of operations committed it gives the group-commit amortization ratio.
func (l *Log) SyncCount() uint64 { return l.syncs.Load() }

// doSync runs the fault-injection hook (if any) and then fsyncs f.
func (l *Log) doSync(f *os.File) error {
	if l.opts.SyncFault != nil {
		if err := l.opts.SyncFault(); err != nil {
			return err
		}
	}
	return datasync(f)
}

// advanceDurable raises the durability watermark to seq (never lowers it)
// and wakes tailing Readers blocked on the advance.
func (l *Log) advanceDurable(seq uint64) {
	for {
		cur := l.durable.Load()
		if seq <= cur {
			return
		}
		if l.durable.CompareAndSwap(cur, seq) {
			l.notifyDurable()
			return
		}
	}
}

// Open opens (or creates) the log in dir, recovering the tail segment from
// torn writes. The next append continues the sequence after the last
// intact record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("changelog: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, segments: segs, nextSeq: 1}
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Scan the tail segment: find the last intact record and truncate any
	// torn bytes behind it.
	tail := segs[len(segs)-1]
	lastSeq := tail.first - 1
	end, err := scanSegment(tail.path, tail.first, func(seq uint64, _ []byte) error {
		lastSeq = seq
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("changelog: %w", err)
	}
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("changelog: %w", err)
	} else if fi.Size() > end {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("changelog: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("changelog: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = end
	l.nextSeq = lastSeq + 1
	l.durable.Store(lastSeq)
	l.written = lastSeq
	return l, nil
}

// listSegments returns the directory's segments sorted by first sequence.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("changelog: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numeric := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(numeric, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("changelog: malformed segment name %q", name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].first < segs[b].first })
	return segs, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

// scanSegment reads records sequentially, calling fn for each intact one,
// and returns the offset just past the last intact record. A torn tail
// (short read or CRC mismatch at the end) terminates the scan cleanly; the
// caller decides whether to truncate.
func scanSegment(path string, firstSeq uint64, fn func(seq uint64, payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("changelog: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("changelog: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var offset int64
	expect := firstSeq
	for {
		var hdr [headerSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return offset, nil // clean EOF or torn header: end of intact data
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n < 8 || n > MaxRecordSize {
			return offset, nil // corrupt length: treat as torn tail
		}
		if int64(n)-8 > fi.Size()-offset-headerSize {
			return offset, nil // torn payload: not allocated, never read
		}
		payload := make([]byte, n-8)
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, nil // torn payload
		}
		crc := crc32.Update(0, castagnoli, hdr[8:16])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != binary.BigEndian.Uint32(hdr[4:8]) {
			return offset, nil // corrupt record: end of intact prefix
		}
		seq := binary.BigEndian.Uint64(hdr[8:16])
		if seq != expect {
			return offset, fmt.Errorf("changelog: %s: sequence gap: want %d, found %d", path, expect, seq)
		}
		if err := fn(seq, payload); err != nil {
			return offset, err
		}
		offset += int64(headerSize) + int64(len(payload))
		expect = seq + 1
	}
}

// createSegment starts a fresh segment whose first record will carry seq.
// The directory entry is fsynced so the new file itself survives a crash.
// Caller must hold mu (or be initializing).
func (l *Log) createSegment(seq uint64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("changelog: %w", err)
	}
	syncDir(l.dir)
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = 0
	l.segments = append(l.segments, segment{path: path, first: seq})
	return nil
}

// syncDir fsyncs a directory so entries for newly created segment files are
// durable. Best-effort: some platforms cannot fsync directories.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// rotate flushes and fsyncs the active segment, then starts a new one. The
// old file is parked on the obsolete list instead of being closed: a group
// commit leader may be fsyncing it outside mu right now. Caller must hold
// mu.
func (l *Log) rotate() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.opts.Sync != SyncNone {
		l.syncs.Add(1)
		if err := l.doSync(l.f); err != nil {
			return err
		}
		// The whole segment (every record below nextSeq) is on disk now.
		l.advanceDurable(l.written)
	}
	l.obsolete = append(l.obsolete, l.f)
	return l.createSegment(l.nextSeq)
}

// closeObsolete closes rotated-out files the caller has taken off the
// shared list (under mu).
func closeObsolete(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}

// Append assigns the next sequence number and buffers one record. The
// record is not crash-safe until WaitDurable(seq) returns (SyncAlways
// excepted, which fsyncs inline).
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize-8 {
		return 0, fmt.Errorf("changelog: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	seq := l.nextSeq
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(8+len(payload)))
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.failed = err
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.failed = err
		return 0, err
	}
	l.nextSeq++
	l.written = seq
	l.appends.Add(1)
	l.size += int64(headerSize) + int64(len(payload))
	if l.opts.Sync == SyncAlways {
		if err := l.w.Flush(); err != nil {
			l.failed = err
			return 0, err
		}
		l.syncs.Add(1)
		if err := l.doSync(l.f); err != nil {
			l.failed = err
			return 0, err
		}
		prev := l.durable.Load()
		l.advanceDurable(seq)
		l.observeBatch(prev, seq)
	}
	if l.size >= l.opts.SegmentSize {
		if err := l.rotate(); err != nil {
			l.failed = err
			return 0, err
		}
	}
	// Wake tailing Readers blocked at the old tail: a Reader that finds
	// this record appended but not durable gives the group commit a grace
	// window and then forces the fsync itself (see Reader.waitAdvance), so
	// a record appended without a WaitDurable caller behind it cannot stay
	// unstreamed indefinitely.
	l.notifyDurable()
	return seq, nil
}

// WaitDurable blocks until the record with the given sequence number (and
// every record appended before it) is flushed and fsynced. Concurrent
// callers share one fsync: the first to arrive becomes the leader and
// syncs everything buffered so far, the rest observe the advanced
// durability watermark and return immediately (group commit). The leader
// fsyncs without holding mu, so new appends proceed during the disk wait
// and queue up for the next commit.
func (l *Log) WaitDurable(seq uint64) error {
	switch l.opts.Sync {
	case SyncAlways, SyncNone:
		l.mu.Lock()
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if l.durable.Load() >= seq {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= seq {
		return nil
	}
	// Commit window: while the caller signals more commits in flight, hold
	// the fsync briefly so they land in this one. On a single disk the
	// fsync is the scarce resource; trading bounded latency for fewer
	// fsyncs is what makes group commit amortize under load.
	// Poll with exponentially growing sleeps: a caller that drains quickly
	// is detected within ~50µs, while a saturated caller costs only a
	// handful of timer wakeups per window (each wakeup preempts real work
	// on a small machine).
	if l.opts.Busy != nil && l.opts.GroupWindow > 0 {
		deadline := time.Now().Add(l.opts.GroupWindow)
		for nap := 50 * time.Microsecond; l.opts.Busy(); nap *= 2 {
			if remain := time.Until(deadline); remain <= 0 {
				break
			} else if nap > remain {
				nap = remain
			}
			time.Sleep(nap)
		}
	}
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Everything at or below target is either in f after this flush, or in
	// an earlier segment that rotation already fsynced — so one fsync of f
	// makes target durable.
	target := l.written
	f := l.f
	obsolete := l.obsolete
	l.obsolete = nil
	if err := l.w.Flush(); err != nil {
		l.failed = err
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	l.syncs.Add(1)
	err := l.doSync(f)
	closeObsolete(obsolete)
	if err != nil {
		l.mu.Lock()
		l.failed = err
		l.mu.Unlock()
		return err
	}
	prev := l.durable.Load()
	l.advanceDurable(target)
	l.observeBatch(prev, target)
	return nil
}

// Sync forces a flush (and fsync unless SyncNone) of everything buffered.
// It takes the group-commit gate first: only a gate holder may close
// obsolete files, and the gate orders this fsync with leader fsyncs.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if err := l.w.Flush(); err != nil {
		l.failed = err
		return err
	}
	closeObsolete(l.obsolete)
	l.obsolete = nil
	if l.opts.Sync == SyncNone {
		return nil
	}
	l.syncs.Add(1)
	if err := l.doSync(l.f); err != nil {
		l.failed = err
		return err
	}
	prev := l.durable.Load()
	l.advanceDurable(l.written)
	l.observeBatch(prev, l.written)
	return nil
}

// Reserve guarantees that the next appended record is assigned a sequence
// strictly greater than seq. Callers use it when external state (a
// snapshot) claims coverage up to seq but the log's unsynced tail died in
// a crash: recovery skips everything at or below the covered sequence, so
// a new record reusing a lost number would be invisible to replay. The
// reservation starts a fresh segment (whose file name encodes its first
// sequence) so it survives reopen even before anything is appended.
func (l *Log) Reserve(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if seq < l.nextSeq {
		return nil
	}
	l.nextSeq = seq + 1
	l.written = seq
	if err := l.rotate(); err != nil {
		l.failed = err
		return err
	}
	l.advanceDurable(seq) // the skipped sequences are vacuously durable
	return nil
}

// Reset discards every retained record and restarts the log so the next
// append is assigned seq+1, as if the log had been created fresh after a
// snapshot covering seq. It exists for divergent-tail repair: a demoted
// ex-primary whose unreplicated tail conflicts with the new primary's
// history must drop its local records wholesale and rebuild from a shipped
// snapshot, because the byte-identical-prefix invariant forbids keeping
// records the new epoch never saw. The caller must have quiesced readers
// (no follower streams, no in-flight Replay); Reset also clears a sticky
// I/O failure, since the failed bytes are being discarded anyway.
func (l *Log) Reset(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.w.Flush() // best effort: the bytes are about to be deleted
	closeObsolete(l.obsolete)
	l.obsolete = nil
	l.f.Close()
	for _, s := range l.segments {
		if err := os.Remove(s.path); err != nil {
			l.failed = fmt.Errorf("changelog: reset: %w", err)
			return l.failed
		}
	}
	l.segments = nil
	syncDir(l.dir)
	l.failed = nil
	l.nextSeq = seq + 1
	l.written = seq
	if err := l.createSegment(seq + 1); err != nil {
		l.failed = err
		return err
	}
	// The watermark may move DOWN here (the discarded tail was durable);
	// that is correct — those sequences no longer exist locally and will be
	// re-streamed by the new primary. Holding both locks excludes every
	// concurrent sync, so a plain store is safe.
	l.durable.Store(seq)
	l.notifyDurable()
	return nil
}

// LastSeq returns the highest sequence number appended (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// OldestSeq returns the lowest sequence number still retained. For an
// empty log it equals the next sequence to be assigned.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[0].first
}

// Replay calls fn for every retained record with sequence >= from, in
// order. Records appended but not yet flushed are flushed first so the
// scan observes them.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.failed = err
		l.mu.Unlock()
		return err
	}
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue // segment lies entirely below from
		}
		_, err := scanSegment(s.path, s.first, func(seq uint64, payload []byte) error {
			if seq < from {
				return nil
			}
			return fn(seq, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateBelow removes segments whose records all have sequence numbers
// strictly below seq. The active segment is never removed. Returns the
// number of segments deleted.
func (l *Log) TruncateBelow(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 && l.segments[1].first <= seq {
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("changelog: truncate: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	l.truncated.Add(uint64(removed))
	return removed, nil
}

// TearFinalRecord is a fault-injection helper for recovery testing: it
// truncates the tail segment of a CLOSED log directory so that only keep
// bytes of the final record remain, simulating a crash mid-write (keep=0
// tears the whole record off; a keep inside the 16-byte header or the
// payload leaves a torn prefix that recovery must detect by length/CRC).
// Returns the sequence number of the record that was torn.
func TearFinalRecord(dir string, keep int64) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, errors.New("changelog: tear: no segments")
	}
	// The final record lives in the last segment that has any records
	// (reservations can leave empty segments behind the tail).
	for i := len(segs) - 1; i >= 0; i-- {
		tail := segs[i]
		var start, off int64 // start offset of the last record seen
		var lastSeq uint64
		var found bool
		_, err := scanSegment(tail.path, tail.first, func(seq uint64, payload []byte) error {
			start = off
			off += int64(headerSize) + int64(len(payload))
			lastSeq = seq
			found = true
			return nil
		})
		if err != nil {
			return 0, err
		}
		if !found {
			continue
		}
		if keep < 0 {
			keep = 0
		}
		if recSize := off - start; keep >= recSize {
			return 0, fmt.Errorf("changelog: tear: keep %d >= record size %d", keep, recSize)
		}
		if err := os.Truncate(tail.path, start+keep); err != nil {
			return 0, fmt.Errorf("changelog: tear: %w", err)
		}
		return lastSeq, nil
	}
	return 0, errors.New("changelog: tear: log holds no records")
}

// Close flushes, fsyncs, and closes the log.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.notifyDurable() // wake tailing Readers so they observe the close
	err := l.w.Flush()
	if err == nil && l.opts.Sync != SyncNone {
		err = l.doSync(l.f)
	}
	closeObsolete(l.obsolete)
	l.obsolete = nil
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
