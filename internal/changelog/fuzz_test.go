package changelog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzPrefix is the intact prefix FuzzChangelogSegment writes its input
// behind: the payloads of a log's first records.
var fuzzPrefix = [][]byte{[]byte("register a.rdf"), {}, []byte("subscribe lmr1")}

// segmentBytes appends payloads to a fresh log and returns its one segment
// file's name and bytes.
func segmentBytes(tb testing.TB, payloads [][]byte) (string, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	name := segmentName(1)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		tb.Fatal(err)
	}
	return name, data
}

// FuzzChangelogSegment writes arbitrary bytes behind an intact prefix of
// records as a segment and opens it as a log. Recovery must not panic, must
// keep every prefix record, and must continue the sequence after the last
// intact record; Replay, the scan recovery runs, and a Reader, the parser a
// shipping replica tails the log with, must then agree record for record.
func FuzzChangelogSegment(f *testing.F) {
	name, prefix := segmentBytes(f, fuzzPrefix)
	_, longer := segmentBytes(f, append(fuzzPrefix, []byte("unsubscribe 7")))
	next := longer[len(prefix):] // a valid fourth record
	f.Add([]byte{})
	f.Add(next)
	f.Add(next[:len(next)/2])
	f.Add(append(append([]byte{}, next...), next...)) // a repeated sequence number
	flipped := append([]byte{}, next...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Add(append([]byte{0, 0, 0, 7}, make([]byte, 12)...)) // a length below the header's 8
	f.Add(append([]byte{4, 0, 0, 0}, make([]byte, 12)...)) // MaxRecordSize, with no payload behind it
	f.Add(append([]byte{4, 0, 0, 1}, make([]byte, 12)...)) // a length past MaxRecordSize
	f.Add(bytes.Repeat([]byte{0}, headerSize+8))

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), append(append([]byte{}, prefix...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncAlways})
		if err != nil {
			// Only a record whose checksum holds but whose sequence is not
			// the next one is refused rather than cut off as a torn tail.
			if !strings.Contains(err.Error(), "sequence gap") {
				t.Fatalf("open: %v", err)
			}
			return
		}
		defer l.Close()

		var replayed []string
		if err := l.Replay(1, func(seq uint64, payload []byte) error {
			replayed = append(replayed, fmt.Sprintf("%d:%q", seq, payload))
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(replayed) < len(fuzzPrefix) {
			t.Fatalf("recovery kept %d records, the intact prefix has %d", len(replayed), len(fuzzPrefix))
		}
		for i, p := range fuzzPrefix {
			if want := fmt.Sprintf("%d:%q", i+1, p); replayed[i] != want {
				t.Fatalf("record %d reads %s, want %s", i+1, replayed[i], want)
			}
		}
		last := uint64(len(replayed))
		if l.LastSeq() != last || l.DurableSeq() != last {
			t.Fatalf("last seq %d, durable %d, want %d", l.LastSeq(), l.DurableSeq(), last)
		}

		r := l.NewReader(1)
		defer r.Close()
		for i, want := range replayed {
			seq, payload, err := r.Next()
			if err != nil {
				t.Fatalf("reader record %d: %v", i+1, err)
			}
			if got := fmt.Sprintf("%d:%q", seq, payload); got != want {
				t.Fatalf("reader record %d reads %s, Replay %s", i+1, got, want)
			}
		}

		if seq, err := l.Append([]byte("after recovery")); err != nil || seq != last+1 {
			t.Fatalf("append after recovery: seq %d, %v; want %d", seq, err, last+1)
		}
	})
}
