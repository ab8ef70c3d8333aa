package rdb

import (
	"sort"
	"testing"
)

// fuzzValues is the palette fuzzed rows draw their key values from: INT 7
// beside FLOAT 7.0 (equal under Compare), NULL, TEXT with a shared prefix,
// BOOL, and a few other numerics, so duplicate keys are common.
var fuzzValues = []Value{
	Null(), NewInt(7), NewFloat(7.0), NewInt(-3), NewFloat(2.5), NewInt(0),
	NewText(""), NewText("a"), NewText("ab"), NewText("b"), NewBool(false), NewBool(true),
}

// fuzzBounds adds the open-bound sentinels to the palette for scan bounds.
var fuzzBounds = append([]Value{MinSentinel(), MaxSentinel()}, fuzzValues...)

// byteStream hands out the fuzz input one byte at a time, then zeros.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzBPTree runs random insert, delete and update sequences against a
// B+tree index over 1–3 key columns and checks it, after every operation,
// against a slice sorted by CompareKeys over (key, row ID): ScanRange with
// point, prefix, range and open bounds, lookup and Len. The key columns sit
// in reverse order behind a payload column, so every comparison goes through
// the index's column positions. Run it with
//
//	go test -run '^$' -fuzz '^FuzzBPTree$' -fuzztime 30s ./internal/rdb
func FuzzBPTree(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 1, 1, 2, 2})
	f.Add([]byte{1, 3, 63, 3, 40, 1, 5, 2, 9, 1, 0, 1, 3, 63, 2, 7, 8})
	f.Add([]byte{2, 3, 200, 3, 255, 3, 128, 1, 4, 1, 9, 2, 3, 4, 5, 6, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // enough for a three-level tree, and fast
		}
		in := byteStream(data)
		ncols := 1 + in.next()%3
		colPos := make([]int, ncols)
		for i := range colPos {
			colPos[i] = ncols - i // column 0 is the payload
		}
		ix := newIndex(IndexDef{Name: "fuzz"}, colPos)
		type entry struct {
			row     Row
			id      int64
			fullKey Key // the key columns, then the row ID
		}
		var ref []entry // live entries, sorted by fullKey
		add := func(row Row, id int64) {
			ix.insert(row, id)
			e := entry{row, id, append(ix.keyOf(row), NewInt(id))}
			i := sort.Search(len(ref), func(i int) bool { return CompareKeys(ref[i].fullKey, e.fullKey) > 0 })
			ref = append(ref, entry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
		}
		drop := func(i int) entry {
			e := ref[i]
			ix.remove(e.row, e.id)
			ref = append(ref[:i], ref[i+1:]...)
			return e
		}
		nextID := int64(0)
		// newRow derives a row from one seed, so a burst costs few input bytes.
		newRow := func(seed int) Row {
			row := Row{NewInt(nextID)}
			x := uint32(seed)
			for i := 0; i < ncols; i++ {
				x = x*2654435761 + 1
				row = append(row, fuzzValues[(x>>16)%uint32(len(fuzzValues))])
			}
			return row
		}
		boundOf := func(n int) Key {
			k := make(Key, n)
			for i := range k {
				k[i] = fuzzBounds[in.next()%len(fuzzBounds)]
			}
			return k
		}
		// check compares one scan of the index with the reference.
		check := func(what string, low, high Key) {
			var want []int64
			for _, e := range ref {
				k := e.fullKey[:ncols]
				if CompareKeys(k[:len(low)], low) >= 0 && CompareKeys(k[:len(high)], high) <= 0 {
					want = append(want, e.id)
				}
			}
			var got []int64
			if err := ix.ScanRange(low, high, func(row Row, id int64) bool {
				if row[0].Int != id {
					t.Fatalf("%s: entry %d carries row %v", what, id, row)
				}
				got = append(got, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s [%v, %v]: got %v, want %v", what, low, high, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s [%v, %v]: got %v, want %v", what, low, high, got, want)
				}
			}
		}
		for len(in) > 0 {
			switch op := in.next(); {
			case op%4 == 3 || len(ref) == 0: // insert a burst of rows
				seed := in.next() << 6
				for n := 1 + in.next()%64; n > 0; n-- {
					add(newRow(seed+n), nextID)
					nextID++
				}
			case op%4 == 1: // delete one live entry
				drop(in.next() % len(ref))
			default: // update: same row ID, new row, as Table.Update does
				old := drop(in.next() % len(ref))
				row := newRow(in.next())
				row[0] = NewInt(old.id)
				add(row, old.id)
			}
			if ix.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", ix.Len(), len(ref))
			}
			check("full", Key{MinSentinel()}, Key{MaxSentinel()})
			probe := boundOf(ncols) // usually absent
			if len(ref) > 0 && in.next()%4 != 0 {
				probe = ref[in.next()%len(ref)].fullKey[:ncols]
			}
			check("point", probe, probe)
			check("prefix", probe[:1], probe[:1])
			n := 1 + in.next()%ncols
			check("range", boundOf(n), boundOf(n))
			check("open low", Key{MinSentinel()}, boundOf(n))
			check("open high", boundOf(n), Key{MaxSentinel()})
			var want []int64
			for _, e := range ref {
				if CompareKeys(e.fullKey[:ncols], probe) == 0 {
					want = append(want, e.id)
				}
			}
			got := lookup(ix, probe)
			if len(got) != len(want) {
				t.Fatalf("lookup(%v) = %v, want %v", probe, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("lookup(%v) = %v, want %v", probe, got, want)
				}
			}
		}
	})
}
