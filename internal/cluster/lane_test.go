package cluster

import "testing"

// laneItem is a lane test item whose wire size is its payload length.
type laneItem struct {
	id  int
	val []byte
}

func laneItemSize(it laneItem) int { return len(it.val) }

func laneIDs(batch []laneItem) []int {
	ids := make([]int, len(batch))
	for i, it := range batch {
		ids[i] = it.id
	}
	return ids
}

func sameIDs(got []int, want ...int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// An item that would push a batch past the byte bound heads the next batch,
// in FIFO order; an oversize first item still ships alone.
func TestLaneByteBoundCarriesOversizeItem(t *testing.T) {
	l := newLane(16, 16, 10, laneItemSize)
	for i, n := range []int{4, 4, 4, 20, 1} {
		l.put(laneItem{id: i, val: make([]byte, n)})
	}
	l.close()
	var batch []laneItem
	for _, want := range [][]int{{0, 1}, {2}, {3}, {4}} {
		var dry bool
		batch, dry = l.next(batch)
		if got := laneIDs(batch); !sameIDs(got, want...) {
			t.Fatalf("batch %v, want %v", got, want)
		}
		// Batches ended by a carried item are not dry; the last one is.
		if wantDry := want[0] == 4; dry != wantDry {
			t.Fatalf("batch %v: dry = %v, want %v", want, dry, wantDry)
		}
	}
	if batch, _ = l.next(batch); len(batch) != 0 {
		t.Fatalf("closed, drained lane returned %v", laneIDs(batch))
	}
}

func TestLaneMessageBound(t *testing.T) {
	l := newLane[laneItem](16, 3, 0, nil)
	for i := 0; i < 5; i++ {
		l.put(laneItem{id: i})
	}
	batch, dry := l.next(nil)
	if got := laneIDs(batch); !sameIDs(got, 0, 1, 2) || dry {
		t.Fatalf("first batch %v dry=%v, want [0 1 2] not dry", got, dry)
	}
	batch, dry = l.next(batch)
	if got := laneIDs(batch); !sameIDs(got, 3, 4) || !dry {
		t.Fatalf("second batch %v dry=%v, want [3 4] dry", got, dry)
	}
}

// A lone item ships at once (dry), and fill picks up what arrives later
// without waiting for more.
func TestLaneDryAndFill(t *testing.T) {
	l := newLane(16, 16, 1<<10, laneItemSize)
	l.put(laneItem{id: 0, val: []byte{1}})
	batch, dry := l.next(nil)
	if got := laneIDs(batch); !sameIDs(got, 0) || !dry {
		t.Fatalf("lone item: %v dry=%v", got, dry)
	}
	l.put(laneItem{id: 1, val: []byte{1}})
	batch, dry = l.fill(batch)
	if got := laneIDs(batch); !sameIDs(got, 0, 1) || !dry || l.bytes != 2 {
		t.Fatalf("fill: %v dry=%v bytes=%d", got, dry, l.bytes)
	}
	if batch, dry = l.fill(batch); len(batch) != 2 || !dry {
		t.Fatalf("fill of an empty lane: %v dry=%v", laneIDs(batch), dry)
	}
}

// close refuses new items but the consumer still drains what was queued;
// close is idempotent.
func TestLaneCloseThenDrain(t *testing.T) {
	l := newLane[laneItem](16, 16, 0, nil)
	for i := 0; i < 3; i++ {
		if !l.put(laneItem{id: i}) {
			t.Fatal("open lane refused put")
		}
	}
	l.close()
	l.close()
	if l.put(laneItem{id: 9}) {
		t.Fatal("closed lane accepted put")
	}
	batch, _ := l.next(nil)
	if got := laneIDs(batch); !sameIDs(got, 0, 1, 2) {
		t.Fatalf("drain after close: %v", got)
	}
	if batch, _ = l.next(batch); len(batch) != 0 {
		t.Fatalf("drained lane returned %v", laneIDs(batch))
	}
}

func TestLaneTryPut(t *testing.T) {
	l := newLane[laneItem](2, 16, 0, nil)
	if !l.tryPut(laneItem{id: 0}) || !l.tryPut(laneItem{id: 1}) {
		t.Fatal("tryPut refused with room")
	}
	if l.tryPut(laneItem{id: 2}) {
		t.Fatal("tryPut on a full lane reported success")
	}
	l.close()
	if !l.tryPut(laneItem{id: 3}) {
		t.Fatal("tryPut on a closed lane must report the item disposed of")
	}
	batch, _ := l.next(nil)
	if got := laneIDs(batch); !sameIDs(got, 0, 1) {
		t.Fatalf("queued items %v, want [0 1]", got)
	}
}

// A put+next cycle, including a carried item, allocates nothing: items are
// passed and carried by value.
func TestLaneCycleAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	l := newLane(16, 16, 8, laneItemSize)
	small, big := make([]byte, 4), make([]byte, 6)
	batch := make([]laneItem, 0, 16)
	allocs := testing.AllocsPerRun(1000, func() {
		l.put(laneItem{id: 0, val: small})
		l.put(laneItem{id: 1, val: big}) // 4+6 > 8: carried
		batch, _ = l.next(batch)
		batch, _ = l.next(batch)
	})
	if allocs != 0 {
		t.Fatalf("put+next cycle allocates %.1f/op, want 0", allocs)
	}
}
