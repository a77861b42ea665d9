package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/timestamp"
)

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOneKeyEditCopiesOneShard pins the O(Δ) epoch change: a one-key
// promotion or demotion copies the shard the key falls in, not the hot set.
func TestOneKeyEditCopiesOneShard(t *testing.T) {
	const hot, edits = 1 << 14, 100
	keys := make([]uint64, hot)
	for i := range keys {
		keys[i] = uint64(i)
	}
	c := newCacheWith(t, 0, 3, keys...)
	full := allocBytes(func() {
		for range edits {
			m := make(map[uint64]*entry, hot)
			for k, e := range c.table.Load().all {
				m[k] = e
			}
		}
	})
	added := allocBytes(func() {
		for i := range edits {
			if c.AddPending([]uint64{hot + uint64(i)}) != 1 {
				t.Fatal("placeholder not installed")
			}
		}
	})
	if c.Len() != hot+edits {
		t.Fatalf("Len = %d after %d promotions, want %d", c.Len(), edits, hot+edits)
	}
	removed := allocBytes(func() {
		for i := range edits {
			if c.Remove([]uint64{hot + uint64(i)}) != 1 {
				t.Fatal("key not removed")
			}
		}
	})
	if c.Len() != hot {
		t.Fatalf("Len = %d after demotions, want %d", c.Len(), hot)
	}
	t.Logf("%d edits: full-table copies %d B, AddPending %d B, Remove %d B", edits, full, added, removed)
	if added > full/16 || removed > full/16 {
		t.Fatalf("one-key edits allocate too much: AddPending %d B, Remove %d B, limit %d B (1/16 of full copies)",
			added, removed, full/16)
	}
}

// TestPerKeyEditsUnderConcurrentReads promotes and demotes keys one at a
// time while readers and writers hammer live keys that share the edited
// shards: live keys must keep hitting with their values, and a demoted key
// must miss (or refuse the write as frozen) from the moment Remove returns.
func TestPerKeyEditsUnderConcurrentReads(t *testing.T) {
	const live, churn = 256, 2000
	keys := make([]uint64, live)
	for i := range keys {
		keys[i] = uint64(i)
	}
	c := newCacheWith(t, 0, 3, keys...)

	var removed atomic.Int64 // churn keys [live, live+removed) are gone
	var done atomic.Bool
	var rounds atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := r; !done.Load(); i++ {
				k := uint64(i % live)
				want := []byte{byte(k)}
				v, _, err := c.Read(k, buf)
				if err != nil || !bytes.Equal(v, want) {
					fail(fmt.Errorf("live key %d: read %v, %v", k, v, err))
					return
				}
				buf = v
				if !c.Contains(k) {
					fail(fmt.Errorf("live key %d not contained", k))
					return
				}
				if _, err := c.WriteSC(k, want); err != nil {
					fail(fmt.Errorf("live key %d: write %v", k, err))
					return
				}
				if n := removed.Load(); n > 0 {
					gone := uint64(live) + uint64(i)%uint64(n)
					if _, _, err := c.Read(gone, buf); err != ErrMiss {
						fail(fmt.Errorf("removed key %d: read %v", gone, err))
						return
					}
					if _, err := c.WriteSC(gone, want); err != ErrMiss && err != ErrFrozen {
						fail(fmt.Errorf("removed key %d: write %v", gone, err))
						return
					}
				}
				rounds.Add(1)
			}
		}()
	}

	for i := range churn {
		k := []uint64{uint64(live + i)}
		c.AddPending(k)
		c.FillAdd(k[0], []byte{0xEE}, timestamp.TS{Clock: 1})
		c.Unfreeze(k)
		c.Freeze(k)
		c.Retire(k)
		if c.Remove(k) != 1 {
			t.Errorf("churn key %d not removed", k[0])
			break
		}
		removed.Add(1)
		runtime.Gosched() // let the readers interleave with the edits
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Len() != live {
		t.Fatalf("Len = %d, want %d", c.Len(), live)
	}
	t.Logf("%d reader rounds across %d one-key promote/demote cycles", rounds.Load(), churn)
}

// BenchmarkCacheReadHit records the read path's cost: one atomic table load,
// one shard map probe and the seqlock-validated copy.
func BenchmarkCacheReadHit(b *testing.B) {
	const hot = 2621
	c := NewCache(0, 3)
	keys := make([]uint64, hot)
	for i := range keys {
		keys[i] = uint64(i) * 7919
	}
	val := make([]byte, 40)
	c.Install(keys, func(uint64) ([]byte, timestamp.TS, bool) { return val, timestamp.TS{}, true })
	dst := make([]byte, 0, len(val))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, _, err = c.Read(keys[i%hot], dst); err != nil {
			b.Fatal(err)
		}
	}
}
