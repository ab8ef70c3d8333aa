package rdb

import "errors"

// Sentinel errors returned by the engine. Callers match them with errors.Is.
var (
	// ErrNoSuchTable is returned when a statement references an undefined table.
	ErrNoSuchTable = errors.New("no such table")
	// ErrNoSuchColumn is returned when a statement references an undefined column.
	ErrNoSuchColumn = errors.New("no such column")
	// ErrTableExists is returned by CreateTable for a duplicate table name.
	ErrTableExists = errors.New("table already exists")
	// ErrIndexExists is returned by CreateIndex for a duplicate index name.
	ErrIndexExists = errors.New("index already exists")
	// ErrNoSuchRow is returned when a row ID does not identify a live row.
	ErrNoSuchRow = errors.New("no such row")
)
