package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/timestamp"
	"repro/internal/workload"
	"repro/internal/zipf"
)

// The traced run interleaves probes with the load: every probeEvery one
// round of calls, under a probe root span, times each layer on its own. The
// node and edge probes run on the live deployment; fabric, store, cache and
// generator probes run on benchmark-owned instances of those layers, sized
// like the deployment's.
const (
	probeEvery = 10 * time.Millisecond
	probeLoop  = 64 // calls per store/cache/generator probe span
	echoReq    = 16 // fabric.rtt request and reply payloads, bytes
	echoReply  = 56
)

const (
	traceProbe = 0xff << 48
	traceSetup = 0xfe << 48
)

type prober struct {
	d    *deployment
	seqs writerSeqs
	rec  *recorder
	res  phaseResult
	rng  uint64

	shard   *store.Partitioned
	shardKs []uint64
	cache   *core.Cache
	gen     *workload.Generator

	echoA, echoB *fabric.TCPTransport
	replies      chan struct{}
}

func newProber(d *deployment, base *workload.Generator, seqs writerSeqs, seed uint64, rec *recorder) (*prober, error) {
	p := &prober{
		d: d, seqs: seqs, rec: rec, rng: seed,
		shard:   store.NewPartitioned(1, numKeys/numNodes+16),
		cache:   core.NewCache(0, numNodes),
		gen:     base.Clone(1 << 20),
		replies: make(chan struct{}, 1),
	}
	val := make([]byte, valueSize)
	fill := func(key uint64) []byte {
		for j := range val {
			val[j] = populated(key, j)
		}
		return val
	}
	for k := uint64(0); k < numKeys; k++ {
		if d.members[0].HomeNode(k) == 0 {
			p.shard.Put(k, fill(k), timestamp.TS{})
			p.shardKs = append(p.shardKs, k)
		}
	}
	p.cache.Install(hotSet(), func(key uint64) ([]byte, timestamp.TS, bool) {
		return append([]byte(nil), fill(key)...), timestamp.TS{}, true
	})

	var err error
	if p.echoA, err = fabric.NewTCPTransport(0, "127.0.0.1:0", nil); err != nil {
		return nil, err
	}
	if p.echoB, err = fabric.NewTCPTransport(1, "127.0.0.1:0", nil); err != nil {
		p.echoA.Close()
		return nil, err
	}
	p.echoA.AddPeer(1, p.echoB.ListenAddr())
	p.echoB.AddPeer(0, p.echoA.ListenAddr())
	reply := make([]byte, echoReply)
	p.echoB.Register(fabric.Addr{Node: 1}, func(fabric.Packet) {
		_ = p.echoB.Send(fabric.Packet{Src: fabric.Addr{Node: 1}, Dst: fabric.Addr{Node: 0}, Class: metrics.ClassCacheMiss, Data: reply})
	})
	p.echoA.Register(fabric.Addr{Node: 0}, func(fabric.Packet) {
		select {
		case p.replies <- struct{}{}:
		default: // a reply that outlived its probe's timeout
		}
	})
	return p, nil
}

func (p *prober) close() {
	p.echoA.Close()
	p.echoB.Close()
}

// run probes every probeEvery until stop closes.
func (p *prober) run(stop <-chan struct{}) {
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for round := uint64(0); ; round++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		p.round(round)
	}
}

func (p *prober) rand() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	return zipf.Mix64(p.rng)
}

// round runs one probe of every layer under one probe root span.
func (p *prober) round(round uint64) {
	trace := traceProbe | round
	node := int(round % numNodes)
	m := p.d.members[node].LocalNode()
	var id uint32 = 1
	child := func(name uint8, class uint8, frame int, f func() error) {
		id++
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		p.rec.add(span{trace: trace, id: id, parent: 1, name: name, node: uint8(node), class: class, frame: uint16(frame)}, t0, t1)
		if frame == 1 { // a single call into the deployment or the fabric
			p.res.attempted++
			if err != nil {
				p.res.fail(1, fmt.Errorf("probe %s: %w", spanNames[name], err))
			}
		}
	}
	start := time.Now()

	req := make([]byte, echoReq)
	child(spanFabricRTT, classRemote, 1, func() error {
		if err := p.echoA.Send(fabric.Packet{Src: fabric.Addr{Node: 0}, Dst: fabric.Addr{Node: 1}, Class: metrics.ClassCacheMiss, Data: req}); err != nil {
			return err
		}
		select {
		case <-p.replies:
			return nil
		case <-time.After(time.Second):
			return fmt.Errorf("no echo within 1s")
		}
	})

	var keys [probeLoop]uint64
	for i := range keys {
		keys[i] = p.shardKs[p.rand()%uint64(len(p.shardKs))]
	}
	dst := make([]byte, 0, valueSize)
	child(spanStoreGet, classLocal, probeLoop, func() error {
		for _, k := range keys {
			dst, _, _ = p.shard.Get(k, dst[:0])
		}
		return nil
	})
	// Fresh keys, so puts pay the same cold lookups as the gets.
	for i := range keys {
		keys[i] = p.shardKs[p.rand()%uint64(len(p.shardKs))]
	}
	val := stamp(make([]byte, valueSize), keys[0], probeWriter, 1)
	child(spanStorePut, classLocal, probeLoop, func() error {
		for i, k := range keys {
			p.shard.Put(k, val, timestamp.TS{Clock: uint32(round*probeLoop) + uint32(i)})
		}
		return nil
	})
	for i := range keys {
		keys[i] = p.rand() % cacheItems
	}
	child(spanCacheRead, classHot, probeLoop, func() error {
		for _, k := range keys {
			dst, _, _ = p.cache.Read(k, dst[:0])
		}
		return nil
	})
	child(spanWorkloadNext, classMixed, probeLoop, func() error {
		for i := 0; i < probeLoop; i++ {
			p.gen.Next()
		}
		return nil
	})

	hot := p.rand() % cacheItems
	remote := p.remoteKey(node)
	child(spanNodeGet, classHot, 1, func() error {
		v, err := m.Get(hot)
		if err == nil {
			err = checkValue(hot, v, p.seqs)
		}
		return err
	})
	child(spanNodeGet, classRemote, 1, func() error {
		v, err := m.Get(remote)
		if err == nil {
			err = checkValue(remote, v, p.seqs)
		}
		return err
	})
	put := func(key uint64) func() error {
		v := stamp(make([]byte, valueSize), key, probeWriter, p.seqs[probeWriter].Add(1))
		return func() error { return m.Put(key, v) }
	}
	child(spanNodePut, classHot, 1, put(p.rand()%cacheItems))
	child(spanNodePut, classRemote, 1, put(p.remoteKey(node)))
	child(spanClientGet, classHot, 1, func() error {
		v, err := p.d.client.Get(node, hot)
		if err == nil {
			err = checkValue(hot, v, p.seqs)
		}
		return err
	})
	p.rec.add(span{trace: trace, id: 1, name: spanProbe, node: uint8(node), class: classMixed, frame: 1}, start, time.Now())
}

// remoteKey draws a cold key homed on another member than node.
func (p *prober) remoteKey(node int) uint64 {
	for {
		k := cacheItems + p.rand()%(numKeys-cacheItems)
		if p.d.members[0].HomeNode(k) != node {
			return k
		}
	}
}
