package cluster

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
)

// The session layer: client-facing RPC served by every node on
// threadSession. It is how external processes (cmd/cckvs-load, or any
// Client) drive a deployment — a session request executes the *full*
// protocol at the receiving node (symmetric-cache probe, Lin/SC write
// protocol, remote access to the home shard on a miss), exactly as if the
// request had arrived at one of the paper's worker threads. This is the
// black-box load-balancer abstraction of §3: a client may send any request
// to any node.
//
// Wire formats (little endian). The v1 single-op format carries exactly one
// request per packet; the v2 batch op (sessOpBatch) packs many get/put
// entries into one frame, amortizing per-packet costs on the client edge the
// same way the inter-node coalescing pipeline does on the fabric (§6.3/§8.5).
// Both formats are served side by side — the op byte versions the frame.
//
//	request:  op(1) reqID(8) rest
//	  get:     key(8)
//	  put:     key(8) vlen(4) value
//	  cas:     key(8) elen(4) expect vlen(4) value — atomic compare-and-swap
//	  faa:     key(8) delta(8)                     — atomic fetch-and-add
//	  ping:    -
//	  refresh: count(4) key(8)*count     — ApplyHotSet(target) at this node
//	  stats:   -
//	  batch:   count(4) entry*count      — entry: kind(1) key(8) [rest]
//	                                       kind: sessOpGet, sessOpPut,
//	                                       sessOpCAS or sessOpFAA, each with
//	                                       the single-op body shape after key
//	response: reqID(8) status(1) payload
//	  ok get:     vlen(4) value
//	  ok cas:     vlen(4) witness   — swapped; witness is the replaced value
//	  ok faa:     vlen(4) value     — the 8-byte pre-add counter value
//	  ok refresh: promoted(4) demoted(4) writebacks(4)
//	  ok stats:   hits(8) misses(8) local(8) remote(8) hot(8) frozenRetries(8)
//	  ok batch:   count(4) result*count  — result: status(1) [payload], one per
//	                                       entry in request order; get results
//	                                       carry vlen(4) value, errors carry
//	                                       vlen(4) message, everything else is
//	                                       the bare status
//	  cas-fail:   vlen(4) witness   — the comparison failed; witness is the
//	                                  value it observed (no extra read needed)
//	  error:      vlen(4) message
//	  home-down:  -                 — the key's home node left the membership
//	                                  view; fail fast, retry after rejoin
//
// Dispatch: session ops are steered by key hash to the owning worker's
// session lane (Config.workerOf — the same EREW steering the inter-node
// fabric uses), replacing the old goroutine-per-request model. Each lane
// drains a burst of queued jobs and overlaps their remote fetches on the
// coalescing pipeline before encoding the responses, so concurrent clients
// keep many remote accesses in flight without per-request goroutines.
// Ping/stats are answered inline on the dispatcher (non-blocking); refresh
// keeps its own goroutine (a long-blocking control op that fans out its own
// RPCs).
const (
	sessOpGet     byte = 0
	sessOpPut     byte = 1
	sessOpPing    byte = 2
	sessOpRefresh byte = 3
	sessOpStats   byte = 4
	// sessOpBatch is the v2 many-ops-per-frame format (see above).
	sessOpBatch byte = 5
	// sessOpCAS and sessOpFAA are the atomic read-modify-writes, valid both
	// as single-op frames and as batch entry kinds.
	sessOpCAS byte = 6
	sessOpFAA byte = 7

	sessStatusOK       byte = 0
	sessStatusNotFound byte = 1
	sessStatusBad      byte = 2
	sessStatusErr      byte = 3
	// sessStatusHomeDown answers operations on keys whose home node is
	// outside the current membership view: the client surfaces it as the
	// typed ErrHomeDown (fail fast, retry after the node rejoins) instead of
	// a generic error string.
	sessStatusHomeDown byte = 4
	// sessStatusCASFail answers a compare-and-swap whose expectation did not
	// match; the payload is the witnessed value, which the client surfaces
	// as ErrCASMismatch plus the witness.
	sessStatusCASFail byte = 5
)

const sessHeader = 1 + 8

// sessBatchMaxOps bounds the entries of one batch frame; the server refuses
// oversize frames with sessStatusBad (the client chunks transparently).
const sessBatchMaxOps = 1024

// sessBatchMaxBytes bounds the payload of one batch request frame.
const sessBatchMaxBytes = 1 << 20

// sessLaneBurst bounds how many queued session jobs a lane drains into one
// overlapped serving pass.
const sessLaneBurst = 64

// sessOp is one parsed client operation (a single-op request or one entry of
// a batch). kind is the op byte (sessOpGet/Put/CAS/FAA). value and expect
// are private copies — never aliases of the packet buffer, which the TCP
// transport reuses the moment the handler returns.
type sessOp struct {
	idx    int // position in the batch (response entries are emitted in request order)
	kind   byte
	key    uint64
	value  []byte // put: new value; cas: replacement value
	expect []byte // cas only
	delta  uint64 // faa only
}

// sessJob is one unit of lane work: either a single-op request (batch == nil)
// or one worker's group of a batch.
type sessJob struct {
	batch *sessBatch
	gidx  int32
	// Single-op fields (batch == nil):
	src   fabric.Addr
	reqID uint64
	op    sessOp
	// resOff is lane-local bookkeeping: the job's first result index within
	// the lane's burst scratch.
	resOff int
}

// sessBatch is one in-flight batch frame, split into per-worker groups. Each
// group is served on its owning worker's lane; the last lane to finish
// (remaining hits zero — the atomic ordering makes every group's results
// visible to it) assembles the response frame in request order and sends it.
type sessBatch struct {
	src       fabric.Addr
	reqID     uint64
	remaining atomic.Int32
	groups    []sessGroup
	// spans locates each op's encoded result entry: spans[i] names the group
	// buffer slice holding entry i. Disjoint slots are written by the lanes
	// serving their groups.
	spans []sessSpan
}

// sessGroup is the subset of a batch owned by one worker.
type sessGroup struct {
	worker int
	ops    []sessOp
	// buf holds the group's encoded result entries (pooled; recycled by the
	// assembling lane after the response frame is built).
	buf    []byte
	pooled *srvBuf
}

// sessSpan is one op's encoded result entry within its group buffer. A
// zero-copy get carries its value as a store lease instead of encoded bytes:
// the group buffer holds only the entry's metadata (status + vlen) and the
// lease — owned by the span once the serving lane emitted it — is spliced
// into the response frame and released by the assembling lane.
type sessSpan struct {
	group    int32
	off, end int32
	lease    store.Lease
}

// handleSession dispatches one client request frame: singles and batch
// groups are steered to their workers' session lanes; ping/stats answer
// inline; refresh runs on its own goroutine.
func (n *Node) handleSession(p fabric.Packet) {
	if n.cluster.killed.Load() {
		return // a dead process answers nothing; the client's timeout cleans up
	}
	if len(p.Data) < sessHeader {
		return // not even a request id to answer; drop (datagram semantics)
	}
	op := p.Data[0]
	reqID := binary.LittleEndian.Uint64(p.Data[1:9])
	body := p.Data[sessHeader:]

	switch op {
	case sessOpGet:
		if len(body) < 8 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		n.workerFor(key).sess.put(sessJob{src: p.Src, reqID: reqID, op: sessOp{kind: sessOpGet, key: key}})
	case sessOpPut:
		if len(body) < 12 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		vlen := int(binary.LittleEndian.Uint32(body[8:12]))
		if vlen < 0 || len(body) < 12+vlen {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		// The value aliases the packet buffer; copy before it escapes into
		// the store or the consistency broadcast.
		val := append([]byte(nil), body[12:12+vlen]...)
		n.workerFor(key).sess.put(sessJob{src: p.Src, reqID: reqID, op: sessOp{kind: sessOpPut, key: key, value: val}})
	case sessOpCAS:
		if len(body) < 12 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		elen := int(binary.LittleEndian.Uint32(body[8:12]))
		if elen < 0 || len(body) < 16+elen {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		vlen := int(binary.LittleEndian.Uint32(body[12+elen : 16+elen]))
		if vlen < 0 || len(body) < 16+elen+vlen {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		expect := append([]byte(nil), body[12:12+elen]...)
		val := append([]byte(nil), body[16+elen:16+elen+vlen]...)
		n.workerFor(key).sess.put(sessJob{src: p.Src, reqID: reqID, op: sessOp{kind: sessOpCAS, key: key, expect: expect, value: val}})
	case sessOpFAA:
		if len(body) < 16 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		delta := binary.LittleEndian.Uint64(body[8:16])
		n.workerFor(key).sess.put(sessJob{src: p.Src, reqID: reqID, op: sessOp{kind: sessOpFAA, key: key, delta: delta}})
	case sessOpBatch:
		n.dispatchSessionBatch(p.Src, reqID, body)
	case sessOpPing:
		n.sessReplyStatus(p.Src, reqID, sessStatusOK)
	case sessOpStats:
		resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 64), reqID)
		resp = append(resp, sessStatusOK)
		resp = binary.LittleEndian.AppendUint64(resp, n.CacheHits.Load())
		resp = binary.LittleEndian.AppendUint64(resp, n.CacheMisses.Load())
		resp = binary.LittleEndian.AppendUint64(resp, n.LocalOps.Load())
		resp = binary.LittleEndian.AppendUint64(resp, n.RemoteOps.Load())
		var hot uint64
		if n.cache != nil {
			hot = uint64(len(n.cache.Keys()))
		}
		resp = binary.LittleEndian.AppendUint64(resp, hot)
		resp = binary.LittleEndian.AppendUint64(resp, n.FrozenRetries.Load())
		n.sessSend(p.Src, resp, nil)
	case sessOpRefresh:
		if len(body) < 4 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		count := int(binary.LittleEndian.Uint32(body[:4]))
		if count < 0 || len(body) < 4+8*count {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		// Parse before the handler returns (the packet buffer is reused);
		// the epoch change itself blocks on cluster-wide RPCs, so it runs on
		// its own goroutine, never on a lane.
		target := make([]uint64, count)
		for i := range target {
			target[i] = binary.LittleEndian.Uint64(body[4+8*i:])
		}
		go n.serveRefresh(p.Src, reqID, target)
	default:
		n.sessReplyStatus(p.Src, reqID, sessStatusBad)
	}
}

// dispatchSessionBatch parses a v2 batch frame, splits its entries into
// per-worker groups (same key steering as the inter-node fabric) and
// enqueues one job per group.
func (n *Node) dispatchSessionBatch(src fabric.Addr, reqID uint64, body []byte) {
	if len(body) < 4 || len(body) > sessBatchMaxBytes {
		n.sessReplyStatus(src, reqID, sessStatusBad)
		return
	}
	count := int(int32(binary.LittleEndian.Uint32(body[:4])))
	if count < 0 || count > sessBatchMaxOps {
		n.sessReplyStatus(src, reqID, sessStatusBad)
		return
	}
	if count == 0 {
		resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), reqID)
		resp = append(resp, sessStatusOK)
		resp = binary.LittleEndian.AppendUint32(resp, 0)
		n.sessSend(src, resp, nil)
		return
	}

	// Pass 1: validate the framing and size the shared value backing, so the
	// copies in pass 2 never reallocate it (the sub-slices must stay stable).
	buf := body[4:]
	totalVal := 0
	for i := 0; i < count; i++ {
		if len(buf) < 9 {
			n.sessReplyStatus(src, reqID, sessStatusBad)
			return
		}
		switch buf[0] {
		case sessOpGet:
			buf = buf[9:]
		case sessOpPut:
			if len(buf) < 13 {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			vlen := int(binary.LittleEndian.Uint32(buf[9:13]))
			if vlen < 0 || len(buf) < 13+vlen {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			totalVal += vlen
			buf = buf[13+vlen:]
		case sessOpCAS:
			if len(buf) < 13 {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			elen := int(binary.LittleEndian.Uint32(buf[9:13]))
			if elen < 0 || len(buf) < 17+elen {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			vlen := int(binary.LittleEndian.Uint32(buf[13+elen : 17+elen]))
			if vlen < 0 || len(buf) < 17+elen+vlen {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			totalVal += elen + vlen
			buf = buf[17+elen+vlen:]
		case sessOpFAA:
			if len(buf) < 17 {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			buf = buf[17:]
		default:
			n.sessReplyStatus(src, reqID, sessStatusBad)
			return
		}
	}

	// Pass 2: build the batch. Put values are copied into one shared backing
	// buffer (one allocation per frame, not per put); the backing is never
	// pooled, so a value that outlives the batch (a staged Lin write) stays
	// valid.
	b := &sessBatch{src: src, reqID: reqID, spans: make([]sessSpan, count)}
	vals := make([]byte, 0, totalVal)
	var groupOf [MaxWorkersPerNode]int32
	for i := range n.workers {
		groupOf[i] = -1
	}
	buf = body[4:]
	for i := 0; i < count; i++ {
		op := sessOp{idx: i, kind: buf[0], key: binary.LittleEndian.Uint64(buf[1:9])}
		switch buf[0] {
		case sessOpPut:
			vlen := int(binary.LittleEndian.Uint32(buf[9:13]))
			off := len(vals)
			vals = append(vals, buf[13:13+vlen]...)
			op.value = vals[off:len(vals):len(vals)]
			buf = buf[13+vlen:]
		case sessOpCAS:
			elen := int(binary.LittleEndian.Uint32(buf[9:13]))
			vlen := int(binary.LittleEndian.Uint32(buf[13+elen : 17+elen]))
			off := len(vals)
			vals = append(vals, buf[13:13+elen]...)
			op.expect = vals[off:len(vals):len(vals)]
			off = len(vals)
			vals = append(vals, buf[17+elen:17+elen+vlen]...)
			op.value = vals[off:len(vals):len(vals)]
			buf = buf[17+elen+vlen:]
		case sessOpFAA:
			op.delta = binary.LittleEndian.Uint64(buf[9:17])
			buf = buf[17:]
		default:
			buf = buf[9:]
		}
		w := n.cluster.cfg.workerOf(op.key)
		gi := groupOf[w]
		if gi < 0 {
			gi = int32(len(b.groups))
			groupOf[w] = gi
			b.groups = append(b.groups, sessGroup{worker: w})
		}
		b.groups[gi].ops = append(b.groups[gi].ops, op)
	}
	b.remaining.Store(int32(len(b.groups)))
	for gi := range b.groups {
		n.workers[b.groups[gi].worker].sess.put(sessJob{batch: b, gidx: int32(gi)})
	}
}

// serveRefresh runs an online epoch change and answers its session request.
func (n *Node) serveRefresh(src fabric.Addr, reqID uint64, target []uint64) {
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 32), reqID)
	st, err := n.cluster.ApplyHotSet(int(n.id), target)
	if err != nil {
		resp = appendSessError(resp, err)
	} else {
		resp = append(resp, sessStatusOK)
		resp = binary.LittleEndian.AppendUint32(resp, uint32(st.Promoted))
		resp = binary.LittleEndian.AppendUint32(resp, uint32(st.Demoted))
		resp = binary.LittleEndian.AppendUint32(resp, uint32(st.WriteBacks))
	}
	n.sessSend(src, resp, nil)
}

// sessReplyStatus answers a request with a bare status, inline on the caller.
func (n *Node) sessReplyStatus(dst fabric.Addr, reqID uint64, status byte) {
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), reqID)
	resp = append(resp, status)
	n.sessSend(dst, resp, nil)
}

// sessSend replies to wherever the request came from; the TCP transport
// learned the return route from the inbound connection, so ephemeral clients
// outside the peer table still get their answer. A failed send means the
// client is gone (its timeout or peer-down handler cleans up). pooled, when
// non-nil, is recycled after the send (Send consumed resp).
func (n *Node) sessSend(dst fabric.Addr, resp []byte, pooled *srvBuf) {
	_ = n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: threadSession},
		Dst:   dst,
		Class: metrics.ClassCacheMiss,
		Data:  resp,
	})
	if pooled != nil {
		pooled.b = resp
		respBufPool.Put(pooled)
	}
}

// sessSendVec replies with a vectored frame: the wire payload is the
// in-order concatenation of segs (metadata spans interleaved with leased
// store values). Send consumes the segments, so the caller releases its
// leases right after. meta is the metadata buffer backing the spans,
// recycled via pooled like sessSend.
func (n *Node) sessSendVec(dst fabric.Addr, segs [][]byte, meta []byte, pooled *srvBuf) {
	_ = n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: threadSession},
		Dst:   dst,
		Class: metrics.ClassCacheMiss,
		Segs:  segs,
	})
	if pooled != nil {
		pooled.b = meta
		respBufPool.Put(pooled)
	}
}

// sessOpRes is one op's outcome, staged before encoding (remote completions
// arrive out of order; response entries are emitted in request order). A
// local get pins its value with a store lease instead of copying it: val
// then aliases store memory and lease must be released once the value has
// been copied or handed to the transport (emit owns that).
type sessOpRes struct {
	status byte
	hasVal bool   // get served OK: val travels (even when empty)
	val    []byte // get payload
	msg    string // error text (sessStatusErr)
	lease  store.Lease
}

// sessLanePend is one started remote RPC of a burst — or, with ch == nil, a
// blocking multi-phase operation (a replicated put, an RMW, a read against a
// re-syncing primary) deferred to collect so the rest of the burst's remote
// accesses start first.
type sessLanePend struct {
	res    int // index into the lane's result scratch
	kind   byte
	key    uint64
	value  []byte
	expect []byte
	delta  uint64
	ch     chan rpcResult
}

// sessLane is one worker's session serving loop state. The scratch slices
// are reused across bursts, so a steady-state lane allocates only what the
// ops themselves require.
type sessLane struct {
	n     *Node
	burst []sessJob
	res   []sessOpRes
	pend  []sessLanePend
	segs  [][]byte // scratch for vectored single-op replies
}

// sessionLane serves one worker's session jobs until the lane closes. Each
// iteration drains a burst of queued jobs and serves them with their remote
// accesses overlapped — the client-edge mirror of Node.MultiGet/MultiPut.
func (n *Node) sessionLane(q *lane[sessJob]) {
	l := &sessLane{n: n}
	for {
		if l.burst, _ = q.next(l.burst); len(l.burst) == 0 {
			return
		}
		l.serveBurst()
	}
}

// serveBurst runs the three lane phases: scan every op (starting remote
// fetches without waiting), collect the remote completions, then encode and
// emit each job's response.
func (l *sessLane) serveBurst() {
	l.res = l.res[:0]
	l.pend = l.pend[:0]
	for ji := range l.burst {
		job := &l.burst[ji]
		job.resOff = len(l.res)
		if job.batch == nil {
			l.res = append(l.res, sessOpRes{})
			l.scanOp(len(l.res)-1, job.op)
			continue
		}
		g := &job.batch.groups[job.gidx]
		for _, op := range g.ops {
			l.res = append(l.res, sessOpRes{})
			l.scanOp(len(l.res)-1, op)
		}
	}
	l.collect()
	l.emit()
}

// scanOp serves one op as far as it can without waiting: cache probes, local
// shard accesses and blocking cache-protocol writes complete here; remote
// accesses are started on the coalescing pipeline and recorded for collect.
func (l *sessLane) scanOp(ri int, op sessOp) {
	n := l.n
	r := &l.res[ri]
	if op.kind == sessOpCAS || op.kind == sessOpFAA {
		// An RMW is a blocking multi-phase exchange wherever it routes;
		// defer it to collect so the burst's plain remote accesses start
		// first (same treatment as a replicated put).
		l.pend = append(l.pend, sessLanePend{res: ri, kind: op.kind, key: op.key, value: op.value, expect: op.expect, delta: op.delta})
		return
	}
	if op.kind == sessOpPut {
		done, err := n.putCached(op.key, op.value)
		if err != nil {
			setSessErr(r, err)
			return
		}
		if done {
			r.status = sessStatusOK
			return
		}
		if n.cluster.replicated() {
			// A replicated put is a blocking multi-phase exchange of its
			// own; defer it to collect so the rest of the burst's remote
			// accesses start first.
			l.pend = append(l.pend, sessLanePend{res: ri, kind: sessOpPut, key: op.key, value: op.value})
			return
		}
		home := n.cluster.HomeNode(op.key)
		if home == int(n.id) {
			if n.localHomePut(op.key, op.value) {
				// Stale probe: the key (re)entered the hot set; re-execute
				// through the full write path.
				n.FrozenRetries.Add(1)
				setSessPutRes(r, n.Put(op.key, op.value))
				return
			}
			r.status = sessStatusOK
			return
		}
		if !n.cluster.view.Load().Live(home) {
			r.status = sessStatusHomeDown
			return
		}
		n.RemoteOps.Add(1)
		ch := n.workerFor(op.key).rpc.start(uint8(home), wireReq{op: rpcOpPut, key: op.key, value: op.value})
		l.pend = append(l.pend, sessLanePend{res: ri, kind: sessOpPut, key: op.key, value: op.value, ch: ch})
		return
	}
	if n.cache != nil {
		v, hit, err := n.cacheRead(op.key)
		if err != nil {
			setSessErr(r, err)
			return
		}
		if hit {
			n.CacheHits.Add(1)
			r.status = sessStatusOK
			r.hasVal = true
			r.val = v
			return
		}
		n.CacheMisses.Add(1)
	}
	home := n.cluster.HomeNode(op.key)
	if n.cluster.replicated() {
		primary := n.cluster.primaryFor(op.key, n.cluster.view.Load())
		if primary < 0 {
			r.status = sessStatusHomeDown
			return
		}
		if primary == int(n.id) {
			if n.cluster.syncing.Load() {
				// Re-syncing after a rejoin: defer to collect, where the
				// single-op path waits out the seed stream.
				l.pend = append(l.pend, sessLanePend{res: ri, key: op.key})
				return
			}
			n.LocalOps.Add(1)
			lv, _, err := n.kvs.GetLease(op.key)
			if err != nil {
				r.status = sessStatusNotFound
				return
			}
			r.status = sessStatusOK
			r.hasVal = true
			r.val = lv.Value()
			r.lease = lv
			return
		}
		n.RemoteOps.Add(1)
		ch := n.workerFor(op.key).rpc.start(uint8(primary), wireReq{op: rpcOpGet, key: op.key})
		l.pend = append(l.pend, sessLanePend{res: ri, key: op.key, ch: ch})
		return
	}
	if home == int(n.id) {
		n.LocalOps.Add(1)
		lv, _, err := n.kvs.GetLease(op.key)
		if err != nil {
			r.status = sessStatusNotFound
			return
		}
		r.status = sessStatusOK
		r.hasVal = true
		r.val = lv.Value()
		r.lease = lv
		return
	}
	if !n.cluster.view.Load().Live(home) {
		r.status = sessStatusHomeDown
		return
	}
	n.RemoteOps.Add(1)
	ch := n.workerFor(op.key).rpc.start(uint8(home), wireReq{op: rpcOpGet, key: op.key})
	l.pend = append(l.pend, sessLanePend{res: ri, ch: ch})
}

// collect settles the burst's started remote accesses.
func (l *sessLane) collect() {
	n := l.n
	for i := range l.pend {
		p := &l.pend[i]
		r := &l.res[p.res]
		if p.ch == nil {
			// Deferred blocking op: run it through the single-op path, which
			// owns the multi-phase protocol and its promotion/bounce retries.
			switch p.kind {
			case sessOpPut:
				setSessPutRes(r, n.Put(p.key, p.value))
			case sessOpCAS:
				w, swapped, err := n.CompareAndSwap(p.key, p.expect, p.value)
				if err != nil {
					setSessErr(r, err)
					break
				}
				if swapped {
					r.status = sessStatusOK
				} else {
					r.status = sessStatusCASFail
				}
				r.hasVal = true
				r.val = w
			case sessOpFAA:
				old, err := n.FetchAndAdd(p.key, p.delta)
				if err != nil {
					setSessErr(r, err)
					break
				}
				r.status = sessStatusOK
				r.hasVal = true
				r.val = EncodeCounter(old)
			default:
				l.sessReplicatedGet(r, p.key)
			}
			continue
		}
		res, err := awaitRPC(p.ch)
		if err != nil {
			if n.cluster.replicated() {
				// The acting primary died mid-op; chase the promotion.
				if p.kind == sessOpPut {
					setSessPutRes(r, n.Put(p.key, p.value))
				} else {
					l.sessReplicatedGet(r, p.key)
				}
				continue
			}
			setSessErr(r, err)
			continue
		}
		if p.kind == sessOpPut {
			switch res.status {
			case rpcStatusOK:
				r.status = sessStatusOK
			case rpcStatusRetry:
				// Bounced by the home: the key went hot mid-flight; re-probe
				// and re-execute through the cache protocol.
				n.FrozenRetries.Add(1)
				setSessPutRes(r, n.Put(p.key, p.value))
			default:
				setSessErr(r, errRemotePutFailed)
			}
			continue
		}
		if res.status == rpcStatusRetry && n.cluster.replicated() {
			// The primary is re-syncing; the single-op path waits it out.
			l.sessReplicatedGet(r, p.key)
			continue
		}
		if res.status == rpcStatusOK {
			r.status = sessStatusOK
			r.hasVal = true
			r.val = res.value
		} else {
			r.status = sessStatusNotFound
		}
	}
}

// sessReplicatedGet settles a replicated read through the promotion-chasing
// single-op path.
func (l *sessLane) sessReplicatedGet(r *sessOpRes, key uint64) {
	v, err := l.n.getReplicated(key)
	if err != nil {
		setSessErr(r, err)
		return
	}
	r.status = sessStatusOK
	r.hasVal = true
	r.val = v
}

var errRemotePutFailed = errors.New("cluster: remote put failed")

// emit encodes and sends each job's response. Single-op jobs reply directly;
// batch groups encode their entries into a pooled group buffer, and the last
// group to finish assembles the frame in request order.
func (l *sessLane) emit() {
	n := l.n
	for ji := range l.burst {
		job := &l.burst[ji]
		if job.batch == nil {
			r := &l.res[job.resOff]
			pooled := respBufPool.Get().(*srvBuf)
			resp := binary.LittleEndian.AppendUint64(pooled.b[:0], job.reqID)
			if r.lease.Held() {
				// Zero-copy reply: metadata frame + the leased store value
				// as its own wire segment; the transport consumes both
				// during Send, after which the lease drops.
				resp = append(resp, r.status)
				resp = binary.LittleEndian.AppendUint32(resp, uint32(len(r.val)))
				l.segs = append(l.segs[:0], resp, r.val)
				n.sessSendVec(job.src, l.segs, resp, pooled)
				l.segs[0], l.segs[1] = nil, nil
				r.lease.Release()
				continue
			}
			resp = appendSessOpRes(resp, r)
			n.sessSend(job.src, resp, pooled)
			continue
		}
		b := job.batch
		g := &b.groups[job.gidx]
		// Group buffers are intermediate: the assembly copies out of them.
		pooled := respBufPool.Get().(*srvBuf)
		buf := pooled.b[:0]
		for k := range g.ops {
			r := &l.res[job.resOff+k]
			off := len(buf)
			sp := sessSpan{group: job.gidx}
			if r.lease.Held() {
				// Leased get: the group buffer holds only the metadata; the
				// value travels as the span's lease, spliced in (and
				// released) by the lane that assembles the frame.
				buf = append(buf, r.status)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.val)))
				sp.lease = r.lease
				r.lease = store.Lease{} // ownership moved to the span
			} else {
				buf = appendSessOpRes(buf, r)
			}
			sp.off, sp.end = int32(off), int32(len(buf))
			b.spans[g.ops[k].idx] = sp
		}
		g.buf = buf
		g.pooled = pooled
		if b.remaining.Add(-1) == 0 {
			n.finishSessionBatch(b)
		}
	}
}

// finishSessionBatch assembles a settled batch's response frame in request
// order and sends it; the atomic decrement that elected this lane ordered
// every other group's writes before its reads. Leased values (zero-copy
// gets) are spliced between the metadata spans as wire segments, and every
// lease is released once Send consumed them.
func (n *Node) finishSessionBatch(b *sessBatch) {
	pooled := respBufPool.Get().(*srvBuf)
	ra := respAsmPool.Get().(*respAssembly)
	resp := binary.LittleEndian.AppendUint64(pooled.b[:0], b.reqID)
	resp = append(resp, sessStatusOK)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(b.spans)))
	for i := range b.spans {
		sp := &b.spans[i]
		resp = append(resp, b.groups[sp.group].buf[sp.off:sp.end]...)
		if !sp.lease.Held() {
			continue
		}
		ra.splice(resp, sp.lease) // released by ra.release below
		sp.lease = store.Lease{}
	}
	for gi := range b.groups {
		g := &b.groups[gi]
		g.pooled.b = g.buf
		respBufPool.Put(g.pooled)
		g.pooled, g.buf = nil, nil
	}
	if len(ra.cuts) > 0 {
		n.sessSendVec(b.src, ra.vector(resp), resp, pooled)
	} else {
		n.sessSend(b.src, resp, pooled)
	}
	ra.release()
	respAsmPool.Put(ra)
}

// appendSessOpRes encodes one op result: the status byte plus the payload the
// status implies (value for a served get, message for an error, nothing
// otherwise) — the same layout as a single-op response after its request id.
func appendSessOpRes(buf []byte, r *sessOpRes) []byte {
	buf = append(buf, r.status)
	switch {
	case r.status == sessStatusOK && r.hasVal, r.status == sessStatusCASFail:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.val)))
		buf = append(buf, r.val...)
	case r.status == sessStatusErr:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.msg)))
		buf = append(buf, r.msg...)
	}
	return buf
}

// setSessErr maps an operation error onto its wire status.
func setSessErr(r *sessOpRes, err error) {
	switch {
	case errors.Is(err, store.ErrNotFound):
		r.status = sessStatusNotFound
	case errors.Is(err, ErrHomeDown):
		r.status = sessStatusHomeDown
	default:
		r.status = sessStatusErr
		r.msg = err.Error()
	}
}

// setSessPutRes records a completed put.
func setSessPutRes(r *sessOpRes, err error) {
	if err == nil {
		r.status = sessStatusOK
		return
	}
	setSessErr(r, err)
}

// appendSessError encodes a failed operation: the error text travels to the
// client so a CI failure names the real cause.
func appendSessError(resp []byte, err error) []byte {
	msg := err.Error()
	resp = append(resp, sessStatusErr)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(msg)))
	return append(resp, msg...)
}
