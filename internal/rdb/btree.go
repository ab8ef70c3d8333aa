package rdb

import "cmp"

// bptree is an in-memory B+tree over the rows of one table, ordered by the
// indexed columns. A leaf entry is the stored row itself plus its row ID: the
// key is never copied into the leaf, it is read through the tree's column
// positions. This is safe because a stored row is never written in place
// (see Table). The row ID is the final key component, so entries are unique,
// non-unique indexes need no postings lists and deletion is exact.
//
// Inner nodes hold separators: a copy of the key columns plus the row ID of
// the entry that started the right subtree when its leaf split. Separators
// never reference a row, so a deleted row is not kept alive by the tree.
//
// Insert and delete search with the (row, ID) pair itself, comparing entry
// against entry, and allocate nothing for the search. Leaves are linked for
// range scans. The order (max children per internal node) is fixed; leaves
// hold up to order-1 entries.

const btreeOrder = 64

type bptree struct {
	cols   []int // positions of the key columns in a stored row
	root   btnode
	height int // 1 = root is a leaf
	size   int
}

type btnode interface{}

// btentry is a leaf slot: a stored table row and its row ID.
type btentry struct {
	row Row
	id  int64
}

type btleaf struct {
	entries []btentry
	next    *btleaf
}

// btsep is an inner-node separator: the key columns and row ID of the first
// entry of a subtree, copied out of its row.
type btsep struct {
	key Key
	id  int64
}

type btinner struct {
	// seps[i] is the smallest entry in children[i+1]'s subtree.
	seps     []btsep
	children []btnode
}

func newBPTree(cols []int) *bptree {
	return &bptree{cols: cols, root: &btleaf{}, height: 1}
}

// cmpEntries orders two leaf entries by (key, row ID).
func (t *bptree) cmpEntries(a, b btentry) int {
	for _, p := range t.cols {
		if c := Compare(a.row[p], b.row[p]); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.id, b.id)
}

// cmpEntrySep orders a leaf entry against a separator by (key, row ID).
func (t *bptree) cmpEntrySep(e btentry, s btsep) int {
	for i, p := range t.cols {
		if c := Compare(e.row[p], s.key[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(e.id, s.id)
}

// boundBefore reports whether a scan bound sorts before the entry. A bound
// covers a prefix of the key columns and has no row ID; when the entry's key
// starts with the bound, the shorter bound sorts first.
func (t *bptree) boundBefore(bound Key, e btentry) bool {
	for i, v := range bound {
		if c := Compare(v, e.row[t.cols[i]]); c != 0 {
			return c < 0
		}
	}
	return true
}

// boundBeforeSep is boundBefore against a separator.
func boundBeforeSep(bound Key, s btsep) bool {
	for i, v := range bound {
		if c := Compare(v, s.key[i]); c != 0 {
			return c < 0
		}
	}
	return true
}

// pastHigh reports whether the row's key, truncated to the bound's length,
// sorts after the high bound, so prefix bounds behave inclusively.
func (t *bptree) pastHigh(row Row, high Key) bool {
	for i := range high {
		if c := Compare(row[t.cols[i]], high[i]); c != 0 {
			return c > 0
		}
	}
	return false
}

// child returns which child of an inner node should contain the entry.
func (t *bptree) child(n *btinner, e btentry) int {
	lo, hi := 0, len(n.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cmpEntrySep(e, n.seps[mid]) >= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the position of the first leaf entry >= e.
func (t *bptree) search(leaf *btleaf, e btentry) int {
	lo, hi := 0, len(leaf.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cmpEntries(leaf.entries[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds the stored row under rowID to the tree. The tree keeps a
// reference to row, which must not be modified afterwards.
func (t *bptree) Insert(row Row, rowID int64) {
	sep, newNode := t.insert(t.root, t.height, btentry{row, rowID})
	if newNode != nil {
		t.root = &btinner{seps: []btsep{sep}, children: []btnode{t.root, newNode}}
		t.height++
	}
	t.size++
}

// insert recursively inserts and returns a (separator, newRightSibling)
// pair if the visited node split, else a nil node.
func (t *bptree) insert(n btnode, height int, e btentry) (btsep, btnode) {
	if height == 1 {
		leaf := n.(*btleaf)
		i := t.search(leaf, e)
		leaf.entries = append(leaf.entries, btentry{})
		copy(leaf.entries[i+1:], leaf.entries[i:])
		leaf.entries[i] = e
		if len(leaf.entries) < btreeOrder {
			return btsep{}, nil
		}
		// Split the leaf in half. The vacated slots are cleared so the left
		// leaf's spare capacity references no row.
		mid := len(leaf.entries) / 2
		right := &btleaf{
			entries: append([]btentry(nil), leaf.entries[mid:]...),
			next:    leaf.next,
		}
		clear(leaf.entries[mid:])
		leaf.entries = leaf.entries[:mid:mid]
		leaf.next = right
		first := right.entries[0]
		key := make(Key, len(t.cols))
		for i, p := range t.cols {
			key[i] = first.row[p]
		}
		return btsep{key, first.id}, right
	}
	inner := n.(*btinner)
	ci := t.child(inner, e)
	sep, newChild := t.insert(inner.children[ci], height-1, e)
	if newChild == nil {
		return btsep{}, nil
	}
	inner.seps = append(inner.seps, btsep{})
	copy(inner.seps[ci+1:], inner.seps[ci:])
	inner.seps[ci] = sep
	inner.children = append(inner.children, nil)
	copy(inner.children[ci+2:], inner.children[ci+1:])
	inner.children[ci+1] = newChild
	if len(inner.children) < btreeOrder {
		return btsep{}, nil
	}
	// Split the inner node; the middle separator moves up.
	mid := len(inner.seps) / 2
	up := inner.seps[mid]
	right := &btinner{
		seps:     append([]btsep(nil), inner.seps[mid+1:]...),
		children: append([]btnode(nil), inner.children[mid+1:]...),
	}
	clear(inner.seps[mid:])
	clear(inner.children[mid+1:])
	inner.seps = inner.seps[:mid:mid]
	inner.children = inner.children[: mid+1 : mid+1]
	return up, right
}

// Delete removes the entry (row, rowID) from the tree; row must hold the key
// the entry was inserted with. It reports whether the entry was found.
// Underfull nodes are not merged, but a node left empty is unlinked from its
// parent (and a leaf from the leaf chain), and a root left with one child is
// replaced by it: keys that only grow — a version, a timestamp — insert at
// the right edge and empty the leftmost leaves, which would otherwise stay
// allocated for the table's lifetime. The vacated slots are cleared, so the
// tree keeps no deleted row alive.
func (t *bptree) Delete(row Row, rowID int64) bool {
	found, empty := t.delete(t.root, nil, t.height, btentry{row, rowID})
	if !found {
		return false
	}
	t.size--
	if empty && t.height > 1 {
		t.root, t.height = &btleaf{}, 1
	}
	for t.height > 1 {
		inner := t.root.(*btinner)
		if len(inner.children) != 1 {
			break
		}
		t.root = inner.children[0]
		t.height--
	}
	return true
}

// delete removes e from the subtree n of the given height and reports
// whether it was found and whether n is now empty. left is the subtree of
// the same height just before n (nil for the first one): at height 1 it is
// the leaf whose next pointer names n.
func (t *bptree) delete(n, left btnode, height int, e btentry) (found, empty bool) {
	if height == 1 {
		leaf := n.(*btleaf)
		i := t.search(leaf, e)
		if i >= len(leaf.entries) || t.cmpEntries(leaf.entries[i], e) != 0 {
			return false, false
		}
		last := len(leaf.entries) - 1
		copy(leaf.entries[i:], leaf.entries[i+1:])
		leaf.entries[last] = btentry{}
		leaf.entries = leaf.entries[:last]
		if last > 0 {
			return true, false
		}
		if left != nil {
			left.(*btleaf).next = leaf.next
		}
		return true, true
	}
	inner := n.(*btinner)
	ci := t.child(inner, e)
	var childLeft btnode
	if ci > 0 {
		childLeft = inner.children[ci-1]
	} else if left != nil {
		l := left.(*btinner)
		childLeft = l.children[len(l.children)-1]
	}
	found, empty = t.delete(inner.children[ci], childLeft, height-1, e)
	if !empty {
		return found, false
	}
	// Drop the empty child and the separator that starts it (the first
	// separator when it is the first child): its range joins a neighbour's.
	if len(inner.seps) > 0 {
		si := max(ci-1, 0)
		copy(inner.seps[si:], inner.seps[si+1:])
		inner.seps[len(inner.seps)-1] = btsep{}
		inner.seps = inner.seps[:len(inner.seps)-1]
	}
	copy(inner.children[ci:], inner.children[ci+1:])
	inner.children[len(inner.children)-1] = nil
	inner.children = inner.children[:len(inner.children)-1]
	return true, len(inner.children) == 0
}

// ScanRange visits every (row, rowID) whose key satisfies low <= key <= high,
// in (key, row ID) order. Bounds may use sentinel values and may be shorter
// than the key (prefix scans), but not longer. The visited row is the stored
// row and must not be modified. The visit function returns false to stop
// early.
func (t *bptree) ScanRange(low, high Key, visit func(row Row, rowID int64) bool) {
	n := t.root
	for h := t.height; h > 1; h-- {
		inner := n.(*btinner)
		lo, hi := 0, len(inner.seps)
		for lo < hi {
			mid := (lo + hi) / 2
			if boundBeforeSep(low, inner.seps[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		n = inner.children[lo]
	}
	leaf := n.(*btleaf)
	lo, hi := 0, len(leaf.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.boundBefore(low, leaf.entries[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for i := lo; leaf != nil; leaf, i = leaf.next, 0 {
		for ; i < len(leaf.entries); i++ {
			e := &leaf.entries[i]
			if t.pastHigh(e.row, high) {
				return
			}
			if !visit(e.row, e.id) {
				return
			}
		}
	}
}

// ScanAll visits every entry in key order.
func (t *bptree) ScanAll(visit func(row Row, rowID int64) bool) {
	t.ScanRange(Key{MinSentinel()}, Key{MaxSentinel()}, visit)
}

// Len returns the number of entries in the tree.
func (t *bptree) Len() int { return t.size }
