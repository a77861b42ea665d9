package fabric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// TCPTransport carries fabric packets over real sockets for multi-process
// deployments (cmd/cckvs-node). One transport instance serves all the
// threads of one node: it listens on a single port, demultiplexes inbound
// frames to per-(node,thread) handlers, and maintains one outbound
// connection per peer node.
//
// The frame format is:
//
//	dstNode(1) dstThread(1) srcNode(1) srcThread(1) class(1) len(4) data
//
// TCP provides reliability and per-connection FIFO, which is strictly
// stronger than the RDMA UD datagrams of the paper; the consistency
// protocols tolerate both (they assume neither ordering nor multicast).
type TCPTransport struct {
	self   uint8
	ln     net.Listener
	stats  *Stats
	closed atomic.Bool

	mu       sync.Mutex
	peers    map[uint8]string
	conns    map[uint8]*tcpConn
	inbound  []net.Conn
	handlers map[Addr]Handler
	wg       sync.WaitGroup

	// onPeerDown, when set, is invoked once per broken connection with the
	// node id the connection served (see SetPeerDownHandler).
	onPeerDown func(node uint8, cause error)
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

const tcpFrameHeader = 1 + 1 + 1 + 1 + 1 + 4

// framePool recycles outbound frame buffers: Send fully serializes a packet
// into one buffer before writing, so without a pool every send allocates a
// frame-sized slice. Buffers are returned after the socket write completes.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

// vecPool recycles the scatter lists used by vectored sends (Packet.Segs):
// a pooled backing array for the net.Buffers of header + segments, so a
// zero-copy send allocates nothing. Entries are nilled before pooling so the
// pool never retains payload memory.
var vecPool = sync.Pool{New: func() any { return new(vecBuf) }}

type vecBuf struct{ v net.Buffers }

// SendCopiesData reports that Send serializes the packet into a private
// frame (or, for vectored payloads, hands every segment to the kernel)
// before returning: callers may reuse p.Data and p.Segs memory — e.g.
// release store leases — as soon as Send returns.
// Handlers get the mirror guarantee's *absence* — inbound frame buffers are
// reused by the read loop, so a Handler must copy anything it retains past
// its return (every in-tree handler either copies or finishes synchronously).
func (t *TCPTransport) SendCopiesData() bool { return true }

// NewTCPTransport starts a transport for node self listening on listenAddr
// (e.g. ":7000" or "127.0.0.1:0" for an ephemeral test port).
func NewTCPTransport(self uint8, listenAddr string, stats *Stats) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", listenAddr, err)
	}
	t := &TCPTransport{
		self:     self,
		ln:       ln,
		stats:    stats,
		peers:    map[uint8]string{},
		conns:    map[uint8]*tcpConn{},
		handlers: map[Addr]Handler{},
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ListenAddr returns the bound listen address (useful with ephemeral ports).
func (t *TCPTransport) ListenAddr() string { return t.ln.Addr().String() }

// AddPeer associates a node id with its dialable address.
func (t *TCPTransport) AddPeer(node uint8, addr string) {
	t.mu.Lock()
	t.peers[node] = addr
	t.mu.Unlock()
}

// Register installs a handler for one local (node, thread) address.
func (t *TCPTransport) Register(addr Addr, h Handler) {
	t.mu.Lock()
	t.handlers[addr] = h
	t.mu.Unlock()
}

// SetPeerDownHandler installs a callback fired when a connection to a peer
// breaks — the peer process died, was killed, or closed its transport. The
// owner uses it to fail RPCs pending toward that peer (Cluster.PeerDown,
// Client peer-down handling) instead of letting their callers hang; TCP's
// reliable stream guarantees a response can never arrive once the carrying
// connection is gone. Not fired on local Close (the owner is tearing down
// and fails its pending calls itself). Set before traffic starts.
func (t *TCPTransport) SetPeerDownHandler(f func(node uint8, cause error)) {
	t.mu.Lock()
	t.onPeerDown = f
	t.mu.Unlock()
}

// notePeerDown drops the broken connection's route entry and fires the
// peer-down callback. Only the connection currently routing to node
// triggers it — a redundant inbound connection breaking says nothing about
// the peer, and the route-entry delete makes the callback fire exactly once
// per broken route even when read and write sides fail together. Not fired
// while the transport itself is closing.
func (t *TCPTransport) notePeerDown(node uint8, c net.Conn, cause error) {
	if t.closed.Load() {
		return
	}
	t.mu.Lock()
	tc, ok := t.conns[node]
	active := ok && tc.c == c
	if active {
		delete(t.conns, node) // a retry will redial
	}
	f := t.onPeerDown
	t.mu.Unlock()
	if !active || f == nil {
		return
	}
	if cause == nil {
		cause = fmt.Errorf("connection to node %d closed", node)
	}
	f(node, cause)
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.inbound = append(t.inbound, c)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c, -1)
	}
}

// tcpReadBuf is the per-connection receive buffer: one read syscall drains
// every frame the kernel holds, up to this many bytes. It is sized for
// batches of small frames, not the frame cap, because every connection holds
// one for its lifetime: at 64 KiB the benchmark's deployment kept 0.7 MiB
// more live heap, at 16 KiB 0.2 MiB.
const tcpReadBuf = 16 << 10

// socketReader counts the read syscalls the buffered read loop makes.
type socketReader struct {
	c     net.Conn
	stats *Stats
}

func (r socketReader) Read(b []byte) (int, error) {
	if r.stats != nil {
		r.stats.SocketReads.Add(1)
	}
	return r.c.Read(b)
}

// readLoop drains one connection. peer is the node id the connection serves
// when known at start (outbound dials); inbound connections learn it from
// the first frame. A broken connection whose peer is known reports it down.
//
// Frames are read through a tcpReadBuf buffer, so one socket read picks up
// every frame the kernel has queued. The payload buffer is reused across
// frames: a Handler runs synchronously and must copy anything it keeps past
// its return.
func (t *TCPTransport) readLoop(c net.Conn, peer int) {
	defer t.wg.Done()
	defer c.Close()
	r := bufio.NewReaderSize(socketReader{c: c, stats: t.stats}, tcpReadBuf)
	hdr := make([]byte, tcpFrameHeader)
	var data []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if peer >= 0 {
				t.notePeerDown(uint8(peer), c, err)
			}
			return
		}
		if peer < 0 {
			// Learn the return route: replies to this sender can reuse the
			// inbound connection even when the sender (e.g. a client with
			// an ephemeral port) is not in the peers table.
			peer = int(hdr[2])
			t.noteRoute(hdr[2], c)
		}
		n := binary.LittleEndian.Uint32(hdr[5:9])
		if uint32(cap(data)) < n {
			data = make([]byte, n)
		}
		data = data[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			t.notePeerDown(uint8(peer), c, err)
			return
		}
		p := Packet{
			Dst:   Addr{Node: hdr[0], Thread: hdr[1]},
			Src:   Addr{Node: hdr[2], Thread: hdr[3]},
			Class: metrics.MsgClass(hdr[4]),
			Data:  data,
		}
		t.mu.Lock()
		h := t.handlers[p.Dst]
		t.mu.Unlock()
		if t.stats != nil {
			t.stats.RecvsTotal.Add(1)
		}
		if h != nil {
			h(p) // datagram semantics: unknown destinations are dropped
		}
	}
}

// Send frames p and writes it to the destination node's connection, dialing
// on first use. A vectored payload (p.Segs) goes to the socket by
// scatter-gather write without being flattened; a flat payload is serialized
// into one pooled frame.
func (t *TCPTransport) Send(p Packet) error {
	if t.closed.Load() {
		return ErrClosed
	}
	conn, err := t.connTo(p.Dst.Node)
	if err != nil {
		return err
	}
	t.stats.account(p)
	if p.Segs != nil {
		return t.sendVectored(conn, p)
	}

	fb := framePool.Get().(*frameBuf)
	if cap(fb.b) < tcpFrameHeader+len(p.Data) {
		fb.b = make([]byte, tcpFrameHeader+len(p.Data))
	}
	frame := fb.b[:tcpFrameHeader+len(p.Data)]
	frame[0] = p.Dst.Node
	frame[1] = p.Dst.Thread
	frame[2] = t.self
	frame[3] = p.Src.Thread
	frame[4] = byte(p.Class)
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(p.Data)))
	copy(frame[9:], p.Data)

	conn.mu.Lock()
	_, werr := conn.c.Write(frame)
	conn.mu.Unlock()
	fb.b = frame
	framePool.Put(fb)
	if werr != nil {
		// Frames already written may never be answered; report the peer down
		// so their pending calls fail (whichever of the read and write sides
		// notices first wins; the other finds the route already gone).
		t.notePeerDown(p.Dst.Node, conn.c, werr)
		return fmt.Errorf("fabric: send to node %d: %w", p.Dst.Node, werr)
	}
	return nil
}

// sendVectored writes a segmented packet with one vectored write (writev):
// the pooled 9-byte header frame and the payload segments go to the socket
// as a scatter list, so value memory — store leases on the get path — is
// handed to the kernel without ever being copied in user space. The
// segments are fully consumed before return (net.Buffers.WriteTo drains the
// list), honoring the Packet.Segs contract.
func (t *TCPTransport) sendVectored(conn *tcpConn, p Packet) error {
	n := 0
	for _, s := range p.Segs {
		n += len(s)
	}
	fb := framePool.Get().(*frameBuf)
	if cap(fb.b) < tcpFrameHeader {
		fb.b = make([]byte, tcpFrameHeader)
	}
	hdr := fb.b[:tcpFrameHeader]
	hdr[0] = p.Dst.Node
	hdr[1] = p.Dst.Thread
	hdr[2] = t.self
	hdr[3] = p.Src.Thread
	hdr[4] = byte(p.Class)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(n))

	vb := vecPool.Get().(*vecBuf)
	bufs := append(vb.v[:0], hdr)
	bufs = append(bufs, p.Segs...)
	v := bufs // WriteTo consumes v in place; bufs keeps the full backing array
	// Counted before the write: the peer may read, answer and have its
	// caller inspect the counter before WriteTo returns here.
	if t.stats != nil {
		t.stats.VectoredBytes.Add(uint64(n))
	}
	conn.mu.Lock()
	_, werr := v.WriteTo(conn.c)
	conn.mu.Unlock()
	for i := range bufs {
		bufs[i] = nil
	}
	vb.v = bufs[:0]
	vecPool.Put(vb)
	fb.b = hdr
	framePool.Put(fb)
	if werr != nil {
		t.notePeerDown(p.Dst.Node, conn.c, werr)
		return fmt.Errorf("fabric: send to node %d: %w", p.Dst.Node, werr)
	}
	return nil
}

// noteRoute records an inbound connection as the way back to node, unless
// an outbound connection already exists.
func (t *TCPTransport) noteRoute(node uint8, c net.Conn) {
	t.mu.Lock()
	if _, ok := t.conns[node]; !ok {
		t.conns[node] = &tcpConn{c: c}
	}
	t.mu.Unlock()
}

func (t *TCPTransport) connTo(node uint8) (*tcpConn, error) {
	t.mu.Lock()
	if c, ok := t.conns[node]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.peers[node]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: unknown peer node %d", node)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: dial node %d (%s): %w", node, addr, err)
	}
	tc := &tcpConn{c: c}
	t.mu.Lock()
	if prev, ok := t.conns[node]; ok {
		// Lost a dial race; keep the existing connection.
		t.mu.Unlock()
		c.Close()
		return prev, nil
	}
	t.conns[node] = tc
	t.inbound = append(t.inbound, c) // ensure Close tears it down
	t.mu.Unlock()
	// Outbound connections are full duplex: the peer replies on the same
	// socket, so it needs a read loop just like accepted connections. The
	// peer id is known from the dial.
	t.wg.Add(1)
	go t.readLoop(c, int(node))
	return tc, nil
}

// Close shuts the listener and all connections down.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ln.Close()
	t.mu.Lock()
	for _, c := range t.conns {
		c.c.Close()
	}
	t.conns = map[uint8]*tcpConn{}
	for _, c := range t.inbound {
		c.Close()
	}
	t.inbound = nil
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
