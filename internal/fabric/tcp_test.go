package fabric

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// newTCPPair starts two TCP transports on loopback and wires them together.
func newTCPPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	a, err := NewTCPTransport(0, "127.0.0.1:0", NewStats())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", NewStats())
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddPeer(1, b.ListenAddr())
	b.AddPeer(0, a.ListenAddr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)

	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1, Thread: 3}, func(p Packet) { got <- p })

	p := Packet{
		Src:   Addr{Node: 0, Thread: 2},
		Dst:   Addr{Node: 1, Thread: 3},
		Class: metrics.ClassUpdate,
		Data:  []byte("over tcp"),
	}
	if err := a.Send(p); err != nil {
		t.Fatal(err)
	}
	select {
	case rp := <-got:
		if string(rp.Data) != "over tcp" {
			t.Fatalf("data = %q", rp.Data)
		}
		if rp.Src != p.Src || rp.Dst != p.Dst || rp.Class != p.Class {
			t.Fatalf("envelope mangled: %+v", rp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newTCPPair(t)
	fromA := make(chan struct{}, 1)
	fromB := make(chan struct{}, 1)
	a.Register(Addr{Node: 0}, func(Packet) { fromB <- struct{}{} })
	b.Register(Addr{Node: 1}, func(Packet) { fromA <- struct{}{} })

	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Packet{Src: Addr{Node: 1}, Dst: Addr{Node: 0}, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []chan struct{}{fromA, fromB} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("direction %d starved", i)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(Packet{Dst: Addr{Node: 42}}); err == nil {
		t.Fatal("send to unknown peer must error")
	}
}

func TestTCPUnknownThreadDropped(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1, Thread: 0}, func(p Packet) { got <- p })
	// Thread 9 is not registered: frame is read and silently dropped.
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1, Thread: 9}, Data: []byte("z")}); err != nil {
		t.Fatal(err)
	}
	// A follow-up to a registered thread still arrives (stream intact).
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1, Thread: 0}, Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p.Data) != "ok" {
			t.Fatalf("data = %q", p.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream broken after dropped frame")
	}
}

func TestTCPManyMessagesInOrderPerConnection(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	var seq []byte
	done := make(chan struct{})
	b.Register(Addr{Node: 1}, func(p Packet) {
		mu.Lock()
		seq = append(seq, p.Data[0])
		n := len(seq)
		mu.Unlock()
		if n == 100 {
			close(done)
		}
	})
	for i := 0; i < 100; i++ {
		if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/100 arrived", len(seq))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range seq {
		if int(v) != i {
			t.Fatalf("reordered at %d: %d", i, v)
		}
	}
}

// The peer-down handler must fire when an established peer's transport goes
// away — and must NOT fire on local Close.
func TestTCPPeerDownHandlerFiresOnPeerClose(t *testing.T) {
	a, b := newTCPPair(t)
	down := make(chan uint8, 4)
	a.SetPeerDownHandler(func(node uint8, cause error) {
		if cause == nil {
			t.Error("peer-down fired with nil cause")
		}
		down <- node
	})
	b.Register(Addr{Node: 1}, func(Packet) {})
	// Establish the route a→b.
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case node := <-down:
		if node != 1 {
			t.Fatalf("peer-down for node %d, want 1", node)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer-down handler never fired")
	}
}

func TestTCPPeerDownHandlerSilentOnLocalClose(t *testing.T) {
	a, b := newTCPPair(t)
	fired := make(chan uint8, 4)
	a.SetPeerDownHandler(func(node uint8, _ error) { fired <- node })
	b.Register(Addr{Node: 1}, func(Packet) {})
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	select {
	case node := <-fired:
		t.Fatalf("peer-down fired for node %d on local close", node)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _ := newTCPPair(t)
	a.Close()
	if err := a.Send(Packet{Dst: Addr{Node: 1}}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// A vectored payload (Packet.Segs) must reach the peer as the in-order
// concatenation of its segments without ever being flattened into an
// intermediate buffer: the zero-copy value path's wire contract. The
// VectoredBytes/FlattenedBytes counters are the proof — a copy anywhere on
// the TCP send path shows up as FlattenedBytes.
func TestTCPVectoredSendZeroCopy(t *testing.T) {
	sa := NewStats()
	a, err := NewTCPTransport(0, "127.0.0.1:0", sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", NewStats())
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddPeer(1, b.ListenAddr())
	t.Cleanup(func() { a.Close(); b.Close() })

	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1, Thread: 3}, func(p Packet) {
		got <- Packet{Data: append([]byte(nil), p.Data...)}
	})

	segs := [][]byte{[]byte("meta|"), []byte("leased-value-bytes"), []byte("|tail")}
	want := "meta|leased-value-bytes|tail"
	if err := a.Send(Packet{
		Src:  Addr{Node: 0, Thread: 2},
		Dst:  Addr{Node: 1, Thread: 3},
		Segs: segs,
	}); err != nil {
		t.Fatal(err)
	}
	// The Segs contract: segment memory is consumed during Send, so the
	// sender may scribble over it the moment Send returns.
	for _, s := range segs {
		for i := range s {
			s[i] = 0xEE
		}
	}
	select {
	case p := <-got:
		if string(p.Data) != want {
			t.Fatalf("vectored payload = %q, want %q", p.Data, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("vectored packet never arrived")
	}
	if v := sa.VectoredBytes.Load(); v != uint64(len(want)) {
		t.Fatalf("VectoredBytes = %d, want %d", v, len(want))
	}
	if f := sa.FlattenedBytes.Load(); f != 0 {
		t.Fatalf("FlattenedBytes = %d, want 0 — the TCP path must never copy segment memory", f)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1}, func(p Packet) { got <- p })
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: big}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if len(p.Data) != len(big) || p.Data[12345] != big[12345] {
			t.Fatalf("large payload corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large payload never arrived")
	}
}

// TestTCPReadDrainsManyFrames pins the buffered read loop: frames queued in
// the kernel while a handler is busy are picked up by a handful of socket
// reads, not two reads (header, body) per frame.
func TestTCPReadDrainsManyFrames(t *testing.T) {
	a, b := newTCPPair(t)
	const frames = 256
	release := make(chan struct{})
	var got sync.WaitGroup
	got.Add(frames + 1)
	first := true
	b.Register(Addr{Node: 1}, func(p Packet) {
		if first {
			first = false
			<-release // hold the read loop while the rest queue up
		}
		got.Done()
	})
	send := func() {
		if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("sixteen byte msg")}); err != nil {
			t.Error(err)
		}
	}
	before := b.stats.SocketReads.Load()
	send()
	for range frames {
		send()
	}
	// Loopback queues each frame at b during its Send; the kernel's receive
	// queue cannot be awaited, so allow a margin before releasing the loop.
	time.Sleep(50 * time.Millisecond)
	close(release)
	got.Wait()
	reads := b.stats.SocketReads.Load() - before
	t.Logf("%d frames in %d socket reads", frames+1, reads)
	if reads > 8 {
		t.Fatalf("%d frames took %d socket reads, want at most 8", frames+1, reads)
	}
}
