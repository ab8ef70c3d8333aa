package rdb

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// snapshot is the on-disk representation of a database. Row IDs are not
// preserved across save/load: rows are compacted on save and indexes are
// rebuilt on load. Nothing outside the engine may hold row IDs across a
// restart.
type snapshot struct {
	Version int
	Tables  []tableSnapshot
}

type tableSnapshot struct {
	Def     TableDef
	Rows    []Row
	Indexes []IndexDef
}

const snapshotVersion = 1

// Save writes a point-in-time snapshot of the whole database: every table
// is read-locked simultaneously while its row references are captured, so
// the snapshot is consistent across tables even with concurrent writers.
// Stored rows are never written in place, so encoding happens after the
// locks are released; only the capture phase blocks writes.
func (db *Database) Save(w io.Writer) error {
	snap, err := db.cloneQuiesced()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("rdb: save: %w", err)
	}
	return bw.Flush()
}

// cloneQuiesced captures a cross-table-consistent view of every table by
// holding every table's read lock at the same time, which makes the snapshot
// a single point in time. The read locks are taken in sorted table order and
// a writer holds only one table lock at a time, so concurrent saves and
// writers cannot deadlock.
func (db *Database) cloneQuiesced() (*snapshot, error) {
	names := db.TableNames()
	tables := make([]*Table, 0, len(names))
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	for _, t := range tables {
		t.mu.RLock()
	}
	defer func() {
		for _, t := range tables {
			t.mu.RUnlock()
		}
	}()
	snap := &snapshot{Version: snapshotVersion}
	for _, t := range tables {
		ts := tableSnapshot{Def: t.def}
		ts.Def.Columns = append([]ColumnDef(nil), t.def.Columns...)
		for _, row := range t.rows {
			if row != nil {
				ts.Rows = append(ts.Rows, row)
			}
		}
		// Indexes live in a map; emit them sorted so two databases with
		// identical content produce byte-identical snapshots.
		ixNames := make([]string, 0, len(t.indexes))
		for name := range t.indexes {
			ixNames = append(ixNames, name)
		}
		sort.Strings(ixNames)
		for _, name := range ixNames {
			ts.Indexes = append(ts.Indexes, t.indexes[name].Def)
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return snap, nil
}

// Load reads a snapshot into an empty database, rebuilding all indexes.
func Load(r io.Reader) (*Database, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("rdb: load: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("rdb: load: unsupported snapshot version %d", snap.Version)
	}
	db := NewDatabase()
	for _, ts := range snap.Tables {
		t, err := db.CreateTable(ts.Def)
		if err != nil {
			return nil, fmt.Errorf("rdb: load: %w", err)
		}
		pkName := lowerName(ts.Def.Name + "_pk")
		for _, ixDef := range ts.Indexes {
			if lowerName(ixDef.Name) == pkName {
				continue // recreated by CreateTable
			}
			if _, err := t.createIndex(ixDef); err != nil {
				return nil, fmt.Errorf("rdb: load: %w", err)
			}
		}
		for _, row := range ts.Rows {
			if _, err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("rdb: load: table %s: %w", ts.Def.Name, err)
			}
		}
	}
	return db, nil
}
