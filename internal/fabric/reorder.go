package fabric

import (
	"sync"
	"time"
)

// ReorderTransport is an adversarial decorator: it buffers and shuffles
// packets before handing them to the inner transport. RDMA Unreliable
// Datagrams promise no ordering, and the ccKVS consistency protocols must
// tolerate arbitrary interleavings (§5.2, the situation the Murphi model
// explores); wrapping the cluster's transport in a ReorderTransport
// exercises that tolerance on real executions instead of only in the model
// checker.
//
// Packets are held in a bounded buffer; each incoming packet lands at a
// pseudo-random position and evicts the packet it displaces, so delivery
// order is a deterministic (seeded) permutation of send order with
// displacement up to the buffer depth. A background ticker drains the
// buffer during quiet periods so blocked protocol phases (a writer waiting
// for its last ack) always make progress.
type ReorderTransport struct {
	inner Transport
	depth int

	mu     sync.Mutex
	held   []Packet
	rng    uint64
	closed bool

	stopFlush chan struct{}
	wg        sync.WaitGroup
}

// NewReorder wraps inner with a shuffle buffer of the given depth
// (clamped to >=1). The seed makes runs reproducible.
func NewReorder(inner Transport, depth int, seed uint64) *ReorderTransport {
	if depth < 1 {
		depth = 1
	}
	t := &ReorderTransport{
		inner:     inner,
		depth:     depth,
		rng:       seed | 1,
		stopFlush: make(chan struct{}),
	}
	t.wg.Add(1)
	go t.flusher()
	return t
}

// Register passes through to the inner transport.
func (t *ReorderTransport) Register(addr Addr, h Handler) { t.inner.Register(addr, h) }

// Send buffers p; a random previously-held packet may be released instead.
func (t *ReorderTransport) Send(p Packet) error {
	// A held packet outlives this call, and the caller may reuse Data, Segs
	// and Spans the moment Send returns: detach all three now.
	p = Packet{
		Src: p.Src, Dst: p.Dst, Class: p.Class,
		Data:  p.appendPayload(make([]byte, 0, p.payloadLen())),
		Spans: append([]ClassSpan(nil), p.Spans...),
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if len(t.held) < t.depth {
		t.held = append(t.held, p)
		t.mu.Unlock()
		return nil
	}
	// Swap p into a random slot and release the displaced packet.
	i := int(t.next() % uint64(len(t.held)))
	out := t.held[i]
	t.held[i] = p
	t.mu.Unlock()
	return t.inner.Send(out)
}

// next advances the xorshift state; callers hold t.mu.
func (t *ReorderTransport) next() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// flusher periodically releases one held packet so the buffer cannot stall
// a quiescing protocol.
func (t *ReorderTransport) flusher() {
	defer t.wg.Done()
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stopFlush:
			return
		case <-tick.C:
			t.mu.Lock()
			if t.closed || len(t.held) == 0 {
				t.mu.Unlock()
				continue
			}
			i := int(t.next() % uint64(len(t.held)))
			out := t.held[i]
			t.held[i] = t.held[len(t.held)-1]
			t.held = t.held[:len(t.held)-1]
			t.mu.Unlock()
			t.inner.Send(out)
		}
	}
}

// Flush releases every held packet (in shuffled order).
func (t *ReorderTransport) Flush() {
	t.mu.Lock()
	drain := t.held
	t.held = nil
	t.mu.Unlock()
	for _, p := range drain {
		t.inner.Send(p)
	}
}

// Close flushes and closes the inner transport.
func (t *ReorderTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	drain := t.held
	t.held = nil
	t.mu.Unlock()
	close(t.stopFlush)
	t.wg.Wait()
	for _, p := range drain {
		t.inner.Send(p)
	}
	return t.inner.Close()
}
