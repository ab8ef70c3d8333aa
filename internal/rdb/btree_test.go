package rdb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func collectRange(t *bptree, low, high Key) []int64 {
	var out []int64
	t.ScanRange(low, high, func(_ Row, rowID int64) bool {
		out = append(out, rowID)
		return true
	})
	return out
}

func TestBPTreeInsertAndScanOrder(t *testing.T) {
	tr := newBPTree([]int{0})
	// Insert in reverse to exercise ordering.
	for i := 999; i >= 0; i-- {
		tr.Insert(Row{NewInt(int64(i))}, int64(i))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []int64
	tr.ScanAll(func(_ Row, rowID int64) bool {
		got = append(got, rowID)
		return true
	})
	if len(got) != 1000 {
		t.Fatalf("scan returned %d entries", len(got))
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("position %d: got %d", i, id)
		}
	}
}

func TestBPTreeRangeScanBounds(t *testing.T) {
	tr := newBPTree([]int{0})
	for i := 0; i < 100; i++ {
		tr.Insert(Row{NewInt(int64(i * 2))}, int64(i))
	}
	// [10, 20] covers keys 10,12,...,20 => rows 5..10.
	got := collectRange(tr, Key{NewInt(10)}, Key{NewInt(20)})
	want := []int64{5, 6, 7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Empty range.
	if got := collectRange(tr, Key{NewInt(11)}, Key{NewInt(11)}); len(got) != 0 {
		t.Errorf("odd key should be absent, got %v", got)
	}
	// Open bounds via sentinels.
	if got := collectRange(tr, Key{MinSentinel()}, Key{NewInt(4)}); len(got) != 3 {
		t.Errorf("(-inf,4] should have 3 entries, got %v", got)
	}
	if got := collectRange(tr, Key{NewInt(194)}, Key{MaxSentinel()}); len(got) != 3 {
		t.Errorf("[194,inf) should have 3 entries, got %v", got)
	}
}

func TestBPTreeDuplicateKeys(t *testing.T) {
	tr := newBPTree([]int{0})
	for i := 0; i < 50; i++ {
		tr.Insert(Row{NewText("same")}, int64(i))
	}
	got := collectRange(tr, Key{NewText("same")}, Key{NewText("same")})
	if len(got) != 50 {
		t.Fatalf("expected 50 duplicates, got %d", len(got))
	}
	// rowID tiebreak means duplicates come back in rowID order.
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("duplicate order broken at %d: %d", i, id)
		}
	}
	if !tr.Delete(Row{NewText("same")}, 25) {
		t.Fatal("delete of existing duplicate failed")
	}
	got = collectRange(tr, Key{NewText("same")}, Key{NewText("same")})
	if len(got) != 49 {
		t.Fatalf("expected 49 after delete, got %d", len(got))
	}
	for _, id := range got {
		if id == 25 {
			t.Fatal("deleted entry still present")
		}
	}
}

func TestBPTreeDeleteMissing(t *testing.T) {
	tr := newBPTree([]int{0})
	tr.Insert(Row{NewInt(1)}, 1)
	if tr.Delete(Row{NewInt(1)}, 2) {
		t.Error("delete with wrong rowID should fail")
	}
	if tr.Delete(Row{NewInt(2)}, 1) {
		t.Error("delete of absent key should fail")
	}
	if !tr.Delete(Row{NewInt(1)}, 1) {
		t.Error("delete of present entry should succeed")
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after delete", tr.Len())
	}
}

func TestBPTreeCompositeKeyPrefixScan(t *testing.T) {
	tr := newBPTree([]int{0, 1})
	// Key = (class, property); 10 classes x 10 properties.
	for c := 0; c < 10; c++ {
		for p := 0; p < 10; p++ {
			tr.Insert(Row{NewInt(int64(c)), NewInt(int64(p))}, int64(c*10+p))
		}
	}
	// Prefix scan on class 3 only (short bounds).
	got := collectRange(tr, Key{NewInt(3)}, Key{NewInt(3)})
	if len(got) != 10 {
		t.Fatalf("prefix scan returned %d entries, want 10", len(got))
	}
	for i, id := range got {
		if id != int64(30+i) {
			t.Fatalf("prefix scan wrong entry %d: %d", i, id)
		}
	}
	// Full composite point.
	got = collectRange(tr, Key{NewInt(3), NewInt(4)}, Key{NewInt(3), NewInt(4)})
	if len(got) != 1 || got[0] != 34 {
		t.Fatalf("point scan got %v", got)
	}
}

func TestBPTreeScanEarlyStop(t *testing.T) {
	tr := newBPTree([]int{0})
	for i := 0; i < 500; i++ {
		tr.Insert(Row{NewInt(int64(i))}, int64(i))
	}
	n := 0
	tr.ScanAll(func(Row, int64) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
}

// Property: the tree agrees with a sorted reference under random
// insert/delete interleavings.
func TestBPTreeMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := newBPTree([]int{0})
	ref := map[int64]int64{} // rowID -> key value
	nextID := int64(0)
	for step := 0; step < 20000; step++ {
		if rng.Intn(3) != 0 || len(ref) == 0 {
			k := int64(rng.Intn(2000))
			tr.Insert(Row{NewInt(k)}, nextID)
			ref[nextID] = k
			nextID++
		} else {
			// Delete a random live entry.
			for id, k := range ref {
				if !tr.Delete(Row{NewInt(k)}, id) {
					t.Fatalf("delete of live entry (%d,%d) failed", k, id)
				}
				delete(ref, id)
				break
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
	}
	// Full scan must return all reference entries in key order.
	type pair struct{ k, id int64 }
	var want []pair
	for id, k := range ref {
		want = append(want, pair{k, id})
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].k != want[b].k {
			return want[a].k < want[b].k
		}
		return want[a].id < want[b].id
	})
	var got []pair
	tr.ScanAll(func(k Row, id int64) bool {
		got = append(got, pair{k[0].Int, id})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// Property (quick): every inserted batch is fully retrievable by range scan
// over its span.
func TestBPTreeRangeProperty(t *testing.T) {
	f := func(keys []int16) bool {
		tr := newBPTree([]int{0})
		counts := map[int64]int{}
		for i, k := range keys {
			tr.Insert(Row{NewInt(int64(k))}, int64(i))
			counts[int64(k)]++
		}
		for k, want := range counts {
			got := collectRange(tr, Key{NewInt(k)}, Key{NewInt(k)})
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBPTreeSlidingKeysStayBounded: a window of keys that only grow — insert
// the newest, delete the oldest, as an indexed version or timestamp column
// does — keeps the tree the size of the window. The emptied leftmost leaves
// are unlinked from their parents and from the leaf chain, and scans still
// see exactly the window.
func TestBPTreeSlidingKeysStayBounded(t *testing.T) {
	const window, steps = 500, 50000
	tr := newBPTree([]int{0})
	rows := map[int64]Row{}
	for id := int64(0); id < steps; id++ {
		rows[id] = Row{NewFloat(float64(id))}
		tr.Insert(rows[id], id)
		if old := id - window; old >= 0 {
			if !tr.Delete(rows[old], old) {
				t.Fatalf("delete of %d missed", old)
			}
			delete(rows, old)
		}
	}
	leaves := 0
	n := tr.root
	for h := tr.height; h > 1; h-- {
		n = n.(*btinner).children[0]
	}
	for leaf := n.(*btleaf); leaf != nil; leaf = leaf.next {
		if len(leaf.entries) == 0 {
			t.Fatal("an empty leaf is still in the chain")
		}
		leaves++
	}
	// The window fits in window/(btreeOrder/2) half-full leaves; the
	// rightmost leaves are filled to one half by the splits, so allow twice
	// that, and a height a fresh tree of the window would have.
	if max := 2*window/(btreeOrder/2) + 2; leaves > max {
		t.Errorf("%d leaves hold a window of %d keys, want at most %d", leaves, window, max)
	}
	if tr.height > 3 {
		t.Errorf("height %d for %d keys", tr.height, window)
	}
	got := collectRange(tr, Key{MinSentinel()}, Key{MaxSentinel()})
	if len(got) != window || got[0] != steps-window || got[window-1] != steps-1 {
		t.Fatalf("scan sees %d entries from %d to %d", len(got), got[0], got[len(got)-1])
	}
}
