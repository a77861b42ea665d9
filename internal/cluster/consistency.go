package cluster

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/timestamp"
)

// The coalescing consistency plane: §6.3/§8.5 applied to the write fan-out.
// Figure 11 shows that for write-heavy skewed workloads the message *count*
// is dominated by header-only invalidations and acks, so sending each
// update/invalidation/ack as its own packet makes per-message overhead the
// write path's bottleneck long before bandwidth. Like the request pipeline
// (pipeline.go), every worker runs one lane (lane.go) and one sender per
// peer: the sender encodes each batch the lane drains straight into one
// multi-message packet (up to Config.BatchMaxMsgs / BatchMaxBytes).
//
// Flow control is charged per *packet*, not per message — the receiving
// side already notes one credit per consistency packet
// (worker.handleConsistency → CreditBatcher.Note), so charging the sender
// per packet keeps the ledger symmetric and is exactly the paper's
// credits-per-packet economy.
//
// Acks piggyback for free: sendAck enqueues onto the same per-worker lane
// toward the writer, so an ack shares its packet with whatever updates or
// invalidations are already headed there. Key steering makes the lane
// well-defined — a key's messages always travel worker(key)'s lane — and
// lane FIFO plus in-packet decode order preserves the per-key ordering
// invariant (see core.Decode).
//
// Ordering across a view flip: messages queued toward an excised peer are
// dropped at the credit acquire, exactly like pipeline senders fail queued
// requests — the view change dropped the peer's budget, Acquire returns
// false, and the whole batch toward the dead peer is discarded (consistency
// traffic is fire-and-forget; Lin writers waiting on the dead peer's acks
// are completed by the view change itself, Cache.SetLive).

// conMsg is one queued consistency message in decoded form. Encoding
// happens at flush time, straight into the packet buffer, so enqueuing
// allocates nothing and a batch shares one buffer instead of paying one
// Encode(nil) allocation per message. Update values are immutable copies
// (core returns freshly-copied values from WriteSC/finishPendingLocked), so
// one value slice is safely shared by every peer lane holding it.
type conMsg struct {
	kind  core.MsgType
	key   uint64
	ts    timestamp.TS
	from  uint8  // invalidation: writer node (ack destination); ack: acking node
	value []byte // update payload; read-only
}

// classOf maps a message kind to its Figure 11 traffic class.
func classOf(k core.MsgType) metrics.MsgClass {
	switch k {
	case core.MsgUpdate:
		return metrics.ClassUpdate
	case core.MsgInvalidation:
		return metrics.ClassInvalidate
	default:
		return metrics.ClassAck
	}
}

// encodedSize returns the message's wire size.
func (m conMsg) encodedSize() int {
	switch m.kind {
	case core.MsgUpdate:
		return core.Update{Value: m.value}.EncodedSize()
	case core.MsgInvalidation:
		return core.Invalidation{}.EncodedSize()
	default:
		return core.Ack{}.EncodedSize()
	}
}

// conCut marks where an update's value bytes splice into the header buffer
// on the vectored path. Offsets (not slices) are recorded because the
// buffer may reallocate as later message headers append.
type conCut struct {
	off int
	val []byte
}

// conPlane aggregates outbound consistency messages per destination node
// for one worker.
type conPlane struct {
	w     *worker
	lanes []*lane[conMsg] // indexed by peer; nil for the worker's own node
	wg    sync.WaitGroup
}

// newConPlane starts one consistency sender goroutine per remote peer.
func newConPlane(w *worker, peers, depth, maxMsgs, maxBytes int) *conPlane {
	cp := &conPlane{w: w, lanes: make([]*lane[conMsg], peers)}
	for peer := range cp.lanes {
		if peer == int(w.node.id) {
			continue
		}
		cp.lanes[peer] = newLane(depth, maxMsgs, maxBytes, conMsg.encodedSize)
		cp.wg.Add(1)
		go cp.sender(uint8(peer), cp.lanes[peer])
	}
	return cp
}

// laneTo returns peer's lane, or nil for an unknown peer or the worker's own
// node.
func (cp *conPlane) laneTo(peer uint8) *lane[conMsg] {
	if int(peer) >= len(cp.lanes) {
		return nil
	}
	return cp.lanes[peer]
}

// enqueue hands one message to peer's lane, blocking when the lane is full
// (backpressure on the writer). A closed plane or unknown peer drops the
// message — consistency traffic is fire-and-forget, matching how a closed
// transport dropped these sends before.
func (cp *conPlane) enqueue(peer uint8, m conMsg) {
	if ln := cp.laneTo(peer); ln != nil {
		ln.put(m)
	}
}

// tryEnqueue is enqueue minus the blocking: it reports false when the lane
// is full instead of waiting. Receive dispatchers use it for acks — a
// dispatcher that blocked on a full lane would stop noting received packets
// toward credit updates, and two nodes doing that to each other would
// starve both senders for good. A closed plane or unknown peer disposes of
// the message (reports true).
func (cp *conPlane) tryEnqueue(peer uint8, m conMsg) bool {
	ln := cp.laneTo(peer)
	return ln == nil || ln.tryPut(m)
}

// sender encodes each batch peer's lane drains into one consistency packet.
func (cp *conPlane) sender(peer uint8, ln *lane[conMsg]) {
	defer cp.wg.Done()
	w := cp.w
	n := w.node
	cfg := n.cluster.cfg
	th := cfg.cacheThread(w.idx)
	dst := fabric.Addr{Node: peer, Thread: th}
	src := fabric.Addr{Node: n.id, Thread: th}
	// Send consumes the packet, so the packet buffer, scatter list and span
	// list are all reused across iterations — the consistency hot path
	// allocates nothing per packet, and update values go to the wire as
	// their own segments (Packet.Segs) without ever being re-copied.
	batch := make([]conMsg, 0, ln.maxMsgs)
	cuts := make([]conCut, 0, ln.maxMsgs)
	segs := make([][]byte, 0, 2*ln.maxMsgs+1)
	var buf []byte
	var spans []fabric.ClassSpan
	for {
		var dry bool
		if batch, dry = ln.next(batch); len(batch) == 0 {
			return
		}
		if dry && len(batch) > 1 {
			// The doorbell pause: the drain found company, so writers are
			// actively ringing. One yield lets them enqueue what they are
			// blocked on right now, deepening the packet without ever holding
			// up an isolated write (a batch of one flushes immediately).
			runtime.Gosched()
			batch, _ = ln.fill(batch)
		}
		// One credit per consistency packet (§6.3), restored by the
		// receiver's batched credit updates. A failed acquire means peer left
		// the membership view (its budget was dropped by the view change):
		// discard the whole batch — consistency messages toward a dead peer
		// are moot, and any Lin writer counting on its acks is completed by
		// the view change (Cache.SetLive) — and keep draining; the queue may
		// still hold messages enqueued before the flip.
		if !w.credits.Acquire(dst) {
			continue
		}
		buf = buf[:0]
		spans = spans[:0]
		cuts = cuts[:0]
		var msgs, bytes [4]uint32 // indexed by core.MsgType (1..3)
		for i := range batch {
			m := &batch[i]
			msgs[m.kind]++
			bytes[m.kind] += uint32(m.encodedSize())
			switch m.kind {
			case core.MsgUpdate:
				buf = core.Update{Key: m.key, TS: m.ts, Value: m.value}.EncodeHeader(buf)
				cuts = append(cuts, conCut{off: len(buf), val: m.value})
			case core.MsgInvalidation:
				buf = core.Invalidation{Key: m.key, TS: m.ts, From: m.from}.Encode(buf)
			default:
				buf = core.Ack{Key: m.key, TS: m.ts, From: m.from}.Encode(buf)
			}
		}
		for _, k := range [...]core.MsgType{core.MsgUpdate, core.MsgInvalidation, core.MsgAck} {
			if msgs[k] > 0 {
				spans = append(spans, fabric.ClassSpan{Class: classOf(k), Msgs: msgs[k], Bytes: bytes[k]})
			}
		}
		p := fabric.Packet{Src: src, Dst: dst, Class: classOf(batch[0].kind), Spans: spans}
		if len(cuts) > 0 {
			segs = segs[:0]
			prev := 0
			for _, c := range cuts {
				segs = append(segs, buf[prev:c.off], c.val)
				prev = c.off
			}
			if prev < len(buf) {
				segs = append(segs, buf[prev:])
			}
			p.Segs = segs
		} else {
			p.Data = buf
		}
		// Count before sending (see Node.ConPackets).
		msgCount := uint64(len(batch))
		n.ConPackets.Add(1)
		n.ConMsgs.Add(msgCount)
		if err := n.cluster.transport.Send(p); err != nil {
			n.ConPackets.Add(^uint64(0))
			n.ConMsgs.Add(-msgCount)
			// The receiver will never note this packet toward a credit
			// update; put the credit back so a closing drain cannot starve.
			w.credits.Grant(dst, 1)
		}
	}
}

// close stops accepting messages and waits for the senders to drain: queued
// messages still go out (call this while the transport is up, like
// pipeline.close) or are discarded when the transport refuses the send.
// Messages enqueued after close are dropped.
func (cp *conPlane) close() {
	for _, ln := range cp.lanes {
		if ln != nil {
			ln.close()
		}
	}
	cp.wg.Wait()
}
