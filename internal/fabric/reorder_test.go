package fabric

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestReorderDeliversEverything(t *testing.T) {
	inner := NewChanTransport(256, NewStats())
	tr := NewReorder(inner, 8, 42)

	var mu sync.Mutex
	got := map[byte]bool{}
	dst := Addr{Node: 1}
	tr.Register(dst, func(p Packet) {
		mu.Lock()
		got[p.Data[0]] = true
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		if err := tr.Send(Packet{Dst: dst, Class: metrics.ClassUpdate, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/100 delivered", n)
		}
		time.Sleep(time.Millisecond)
	}
	tr.Close()
}

func TestReorderActuallyReorders(t *testing.T) {
	inner := NewChanTransport(512, NewStats())
	tr := NewReorder(inner, 16, 7)
	defer tr.Close()

	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	dst := Addr{Node: 2}
	tr.Register(dst, func(p Packet) {
		mu.Lock()
		order = append(order, int(p.Data[0]))
		if len(order) == 200 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 200; i++ {
		tr.Send(Packet{Dst: dst, Data: []byte{byte(i)}})
	}
	tr.Flush()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatalf("delivery incomplete: %d", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering observed; the adversary is a no-op")
	}
	t.Logf("inversions: %d/199", inversions)
}

func TestReorderFlusherDrainsQuietBuffer(t *testing.T) {
	inner := NewChanTransport(64, NewStats())
	tr := NewReorder(inner, 32, 3)
	defer tr.Close()

	got := make(chan struct{}, 4)
	dst := Addr{Node: 3}
	tr.Register(dst, func(Packet) { got <- struct{}{} })
	// Fewer packets than the buffer depth: only the ticker can release them.
	for i := 0; i < 4; i++ {
		tr.Send(Packet{Dst: dst, Data: []byte{byte(i)}})
	}
	for i := 0; i < 4; i++ {
		select {
		case <-got:
		case <-time.After(3 * time.Second):
			t.Fatalf("packet %d stuck in the reorder buffer", i)
		}
	}
}

// A held packet outlives Send, so Reorder must detach Data, Segs and Spans:
// a sender that reuses its payload buffer and span slice right after Send
// (the consistency plane does) must not change what is delivered or what
// the accountant charges when the packet is finally released.
func TestReorderDetachesHeldPackets(t *testing.T) {
	stats := NewStats()
	inner := NewChanTransport(64, stats)
	tr := NewReorder(inner, 8, 5)

	var mu sync.Mutex
	var got []string
	dst := Addr{Node: 5}
	tr.Register(dst, func(p Packet) {
		mu.Lock()
		got = append(got, string(p.Data))
		mu.Unlock()
	})
	data := []byte("flat-payload")
	spans := []ClassSpan{{Class: metrics.ClassUpdate, Msgs: 2, Bytes: 7}, {Class: metrics.ClassAck, Msgs: 1, Bytes: 5}}
	if err := tr.Send(Packet{Dst: dst, Class: metrics.ClassUpdate, Data: data, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	segs := [][]byte{[]byte("seg-"), []byte("payload")}
	if err := tr.Send(Packet{Dst: dst, Class: metrics.ClassInvalidate, Segs: segs}); err != nil {
		t.Fatal(err)
	}
	// Scribble everything the sender lent.
	copy(data, "XXXXXXXXXXXX")
	spans[0] = ClassSpan{Class: metrics.ClassCacheMiss, Msgs: 99, Bytes: 999}
	spans[1] = ClassSpan{Class: metrics.ClassCacheMiss, Msgs: 99, Bytes: 999}
	for _, s := range segs {
		for i := range s {
			s[i] = 'Y'
		}
	}
	if err := tr.Close(); err != nil { // flushes the held packets, drains inner
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	want := map[string]bool{"flat-payload": true, "seg-payload": true}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("delivered %q, want one of flat-payload/seg-payload (held packet aliased the sender)", s)
		}
		delete(want, s)
	}
	if b, m := stats.Traffic.Bytes(metrics.ClassUpdate), stats.Traffic.Packets(metrics.ClassUpdate); b != 7+WireOverhead || m != 2 {
		t.Fatalf("update traffic = %d bytes/%d msgs, want %d/2", b, m, 7+WireOverhead)
	}
	if b := stats.Traffic.Bytes(metrics.ClassAck); b != 5 {
		t.Fatalf("ack bytes = %d, want 5", b)
	}
	if b := stats.Traffic.Bytes(metrics.ClassCacheMiss); b != 0 {
		t.Fatalf("cache-miss bytes = %d, want 0 (scribbled spans were accounted)", b)
	}
	if b := stats.Traffic.Bytes(metrics.ClassInvalidate); b != uint64(len("seg-payload"))+WireOverhead {
		t.Fatalf("invalidation bytes = %d, want %d", b, len("seg-payload")+WireOverhead)
	}
}

func TestReorderCloseFlushesAndRejects(t *testing.T) {
	inner := NewChanTransport(64, NewStats())
	tr := NewReorder(inner, 8, 9)
	var count int
	var mu sync.Mutex
	dst := Addr{Node: 4}
	tr.Register(dst, func(Packet) { mu.Lock(); count++; mu.Unlock() })
	for i := 0; i < 5; i++ {
		tr.Send(Packet{Dst: dst, Data: []byte{byte(i)}})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Packet{Dst: dst}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 5 {
		t.Fatalf("close dropped packets: %d/5", count)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
