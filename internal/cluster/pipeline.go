package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/metrics"
)

// The request-coalescing pipeline of §6.3/§8.5, applied to the remote-access
// (cache-miss) path. The paper's cache threads never send one network packet
// per remote request: outstanding requests bound for the same home machine
// ride together in multi-request packets, shifting the bottleneck from the
// switch packet-processing rate to raw bandwidth (Figure 13a) and letting
// credits be charged per packet rather than per request.
//
// Every *worker* runs one lane (lane.go) and one sender per peer, so a
// node's outbound request streams are as parallel as its worker bank.
// Callers put not-yet-encoded requests (wireReq); the sender takes each
// batch the lane drains, encodes it straight into one packet buffer and
// sends it. A single closed-loop client sees one request per packet; many
// clients (or one MultiGet/MultiPut) see multi-request packets.
//
// Flow control: one credit is acquired per request *packet*; the batched
// response packet is the implicit credit update (see rpcClient.handleResponse).

// ErrPipelineClosed fails remote calls issued against a closed cluster.
var ErrPipelineClosed = errors.New("cluster: request pipeline closed")

// pipeline aggregates outstanding remote requests per destination node for
// one worker.
type pipeline struct {
	w     *worker
	lanes []*lane[wireReq] // indexed by peer; nil for the worker's own node
	wg    sync.WaitGroup
}

// newPipeline starts one sender goroutine per remote peer.
func newPipeline(w *worker, peers, depth, maxMsgs, maxBytes int) *pipeline {
	pl := &pipeline{w: w, lanes: make([]*lane[wireReq], peers)}
	for peer := range pl.lanes {
		if peer == int(w.node.id) {
			continue
		}
		pl.lanes[peer] = newLane(depth, maxMsgs, maxBytes, wireReq.encodedSize)
		pl.wg.Add(1)
		go pl.sender(uint8(peer), pl.lanes[peer])
	}
	return pl
}

// enqueue hands one request to home's sender. The request is failed (never
// dropped) if the pipeline is closed or home is unknown, so callers blocked
// on the pending channel always complete.
func (pl *pipeline) enqueue(home uint8, q wireReq) {
	if int(home) >= len(pl.lanes) || pl.lanes[home] == nil {
		pl.w.rpc.fail([]uint64{q.id}, errors.New("cluster: no pipeline for home node"))
		return
	}
	if !pl.lanes[home].put(q) {
		pl.w.rpc.fail([]uint64{q.id}, ErrPipelineClosed)
	}
}

// sender encodes each batch home's lane drains into one request packet.
func (pl *pipeline) sender(home uint8, ln *lane[wireReq]) {
	defer pl.wg.Done()
	w := pl.w
	n := w.node
	cfg := n.cluster.cfg
	kvsAddr := fabric.Addr{Node: home, Thread: cfg.kvsThread(w.idx)}
	srcAddr := fabric.Addr{Node: n.id, Thread: cfg.respThread(w.idx)}
	batch := make([]wireReq, 0, ln.maxMsgs)
	ids := make([]uint64, 0, ln.maxMsgs)
	// Send consumes the packet, so one buffer serves every packet — the
	// request hot path allocates nothing per packet.
	var buf []byte
	for {
		if batch, _ = ln.next(batch); len(batch) == 0 {
			return
		}
		buf = buf[:0]
		ids = ids[:0]
		for i := range batch {
			buf = batch[i].appendTo(buf)
			ids = append(ids, batch[i].id)
		}
		// One credit per packet (§6.3): the batched response restores it. A
		// failed acquire means home left the membership view (its budget was
		// dropped by the view change): fail the whole batch — this is what
		// fails requests *queued* toward a dead peer, not just the in-flight
		// ones rpcClient.failPeer catches — and keep draining; the queue may
		// still hold requests enqueued before the flip.
		if !w.credits.Acquire(kvsAddr) {
			w.rpc.fail(ids, fmt.Errorf("cluster: request for node %d dropped (%w)", home, ErrNodeDown))
			continue
		}
		// Count before sending (see Node.RemoteReqPackets).
		msgs := uint64(len(ids))
		n.RemoteReqPackets.Add(1)
		n.RemoteReqMsgs.Add(msgs)
		err := n.cluster.transport.Send(fabric.Packet{
			Src:   srcAddr,
			Dst:   kvsAddr,
			Class: metrics.ClassCacheMiss,
			Data:  buf,
		})
		if err != nil {
			n.RemoteReqPackets.Add(^uint64(0))
			n.RemoteReqMsgs.Add(-msgs)
			// No response will arrive to restore the credit; put it back so
			// the drain of a closing pipeline cannot starve.
			w.credits.Grant(kvsAddr, 1)
			w.rpc.fail(ids, err)
		}
	}
}

// close stops accepting requests and waits for the senders to drain: queued
// requests still go out (their responses complete the waiting callers, so
// call this while the transport is up) or fail when the transport refuses
// the send. Requests enqueued after close fail with ErrPipelineClosed.
func (pl *pipeline) close() {
	for _, ln := range pl.lanes {
		if ln != nil {
			ln.close()
		}
	}
	pl.wg.Wait()
}
