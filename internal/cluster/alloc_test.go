package cluster

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// The allocation diet of the remote-get path: a remote get on the in-process
// transport costs a bounded, small number of heap allocations per op. The
// seed measured 7.0 allocs/op on this exact scenario; encode-at-send (no
// per-request scratch buffer), pooled completion channels, pooled request
// and response packet buffers, zero-copy leased responses and pooled
// delivery buffers bring it to 1 — the one unavoidable copy that hands the
// value to the caller. The bound keeps 1.5 allocs of headroom for
// map-rehash noise, so a regression that reintroduces a per-packet buffer
// (or any per-call garbage) is caught.
func TestRemoteGetAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, w := range []int{1, 4} {
		c, err := New(Config{Nodes: 2, System: Base, NumKeys: 1024, WorkersPerNode: w})
		if err != nil {
			t.Fatal(err)
		}
		c.Populate()
		n := c.Node(0)
		key := uint64(0)
		for k := uint64(0); k < 1024; k++ {
			if c.HomeNode(k) == 1 {
				key = k
				break
			}
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := n.Get(key); err != nil {
				t.Fatal(err)
			}
		})
		c.Close()
		t.Logf("workers=%d: remote get %.1f allocs/op (seed: 7.0)", w, allocs)
		if allocs > 2.5 {
			t.Fatalf("workers=%d: remote get costs %.1f allocs/op, want <= 2.5 (seed was 7.0)", w, allocs)
		}
	}
}

// The consistency-plane counterpart: a hot Lin put fans out an invalidation
// broadcast, gathers acks and broadcasts the update — before the coalescing
// plane that was three Encode(nil) allocations per peer per write on top of
// the protocol's own bookkeeping. Encode-at-flush writes every message
// straight into the lane's reused packet buffer, so the steady-state cost is
// the durable per-write state (the immutable value copy, the waiter
// channel), not per-message or per-packet garbage. Measured 9 allocs/op at
// the time the gate was set (17 while in-process packets still needed fresh
// buffers); the bound fails a reintroduction of per-message encode
// allocations (two peers x three messages would add ~6) or of per-packet
// buffers.
func TestLinPutAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, w := range []int{1, 4} {
		c, err := New(Config{
			Nodes: 3, System: CCKVS, Protocol: core.Lin,
			NumKeys: 1024, CacheItems: 16, WorkersPerNode: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Populate()
		if err := c.InstallHotSet(DefaultHotSet(16)); err != nil {
			t.Fatal(err)
		}
		n := c.Node(0)
		val := bytes.Repeat([]byte{0xAB}, 40)
		allocs := testing.AllocsPerRun(2000, func() {
			if err := n.Put(0, val); err != nil {
				t.Fatal(err)
			}
		})
		c.Close()
		t.Logf("workers=%d: lin put %.1f allocs/op (gate set at 9.0)", w, allocs)
		if allocs > 10.5 {
			t.Fatalf("workers=%d: lin put costs %.1f allocs/op, want <= 10.5 (was 9.0 when gated)", w, allocs)
		}
	}
}
