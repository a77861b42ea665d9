package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// spec is one named workload.
type spec struct {
	name    string
	proto   core.Protocol
	alpha   float64 // 0 = uniform
	putFrac float64
	frame   int // ops per call: 1, or frameOps for batched frames
	// guards assert that the workload exercises the layer it was chosen
	// for; a drifted configuration fails the run instead of measuring the
	// wrong path.
	guards []guard
}

// The three workloads, and why each was chosen (see README.md): the skewed
// single-op SC mix loads the client edge, session lanes and syscalls; the
// uniform batched SC mix bypasses the cache and loads the remote pipeline
// and home stores; the write-heavy Lin mix loads the consistency plane.
var workloads = []spec{
	{name: "zipf-single-sc", proto: core.SC, alpha: 0.99, putFrac: 0.05, frame: 1, guards: []guard{
		{metric: "cache.hit_rate", min: 0.5, max: 1},
	}},
	{name: "uniform-batch-sc", proto: core.SC, alpha: 0, putFrac: 0.05, frame: frameOps, guards: []guard{
		{metric: "cache.hit_rate", min: 0, max: 0.05},
		{metric: "pipeline.msgs_per_pkt", min: 2, max: math.Inf(1), strict: true},
	}},
	{name: "zipf-writeheavy-lin", proto: core.Lin, alpha: 0.99, putFrac: 0.5, frame: frameOps, guards: []guard{
		{metric: "cache.hit_rate", min: 0.5, max: 1},
		{metric: "consistency.msgs_per_put", min: 0, max: math.Inf(1), strict: true},
	}},
}

func findSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// nodeSampleEvery is the traced run's 1-in-N share of calls that the
// benchmark executes through the target member's in-process Node instead of
// the session client.
const nodeSampleEvery = 16

// writer ids: the load clients are 0..numClients-1; probes write as probeWriter.
const (
	probeWriter = numClients
	numWriters  = numClients + 1
)

// client is one closed-loop load generator: it waits for each call before
// issuing the next. Its generator stream persists across phases.
type client struct {
	id    int
	d     *deployment
	sp    spec
	gen   *workload.Generator
	seqs  writerSeqs
	calls uint64 // calls issued, for round-robin node choice and sampling

	getKeys []uint64
	putKeys []uint64
	putVals [frameOps][valueSize]byte
	ops     []cluster.Op

	rec   *recorder // non-nil while tracing
	res   *phaseResult
	start time.Time // of the current phase
	dur   time.Duration
}

// phaseResult is what one client observed in one phase.
type phaseResult struct {
	ops, puts         uint64 // ops completed before the phase deadline
	attempted, failed uint64
	win               []window // the phase's consecutive equal slices
	errs              []error  // the first few failures
}

// window is what completed within one slice of a phase.
type window struct {
	ops            uint64
	getLat, putLat []uint32 // call latencies in ns
}

func (r *phaseResult) fail(n int, err error) {
	r.failed += uint64(n)
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

func newClient(id int, d *deployment, sp spec, base *workload.Generator, seqs writerSeqs) *client {
	return &client{
		id: id, d: d, sp: sp, gen: base.Clone(uint64(id)), seqs: seqs,
		getKeys: make([]uint64, 0, frameOps),
		putKeys: make([]uint64, 0, frameOps),
		ops:     make([]cluster.Op, 0, frameOps),
	}
}

// runPhase drives the deployment with every client for dur, split into
// windows equal slices, and returns their results and, per slice, the
// process's CPU time and the host's steal share. With recs non-nil the
// phase is traced.
func runPhase(clients []*client, dur time.Duration, windows int, recs []*recorder) ([]phaseResult, []hostWindow, error) {
	res := make([]phaseResult, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		res[i].win = make([]window, windows)
		c.res = &res[i]
		c.start, c.dur = start, dur
		c.rec = nil
		if recs != nil {
			c.rec = recs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(start.Add(dur))
		}()
	}
	host := make([]hostWindow, windows)
	prev, err := sampleHost()
	for w := 1; w <= windows && err == nil; w++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(w) / time.Duration(windows))))
		var now hostSample
		now, err = sampleHost()
		host[w-1] = now.since(prev)
		prev = now
	}
	wg.Wait()
	return res, host, err
}

func (c *client) loop(deadline time.Time) {
	for {
		op := c.gen.Next()
		var end time.Time
		if c.sp.frame == 1 {
			end = c.single(op, deadline)
		} else {
			end = c.buffered(op, deadline)
		}
		if !end.IsZero() && !end.Before(deadline) {
			return
		}
	}
}

// node picks the member for the next call, round-robin.
func (c *client) node() int {
	n := (c.id + int(c.calls)) % numNodes
	c.calls++
	return n
}

// sampled reports whether the current call goes through the member's Node.
func (c *client) sampled() bool { return c.rec != nil && c.calls%nodeSampleEvery == 0 }

// single issues one op as one call and returns its completion time.
func (c *client) single(op workload.Op, deadline time.Time) time.Time {
	node := c.node()
	viaNode := c.sampled()
	var (
		err    error
		name   uint8
		t0, t1 time.Time
		isPut  = op.Type == workload.Put
		m      = c.d.members[node].LocalNode()
	)
	if isPut {
		v := stamp(c.putVals[0][:], op.Key, uint32(c.id), c.seqs[c.id].Add(1))
		t0 = time.Now()
		if viaNode {
			name, err = spanNodePut, m.Put(op.Key, v)
		} else {
			name, err = spanClientPut, c.d.client.Put(node, op.Key, v)
		}
		t1 = time.Now()
	} else {
		var v []byte
		t0 = time.Now()
		if viaNode {
			name = spanNodeGet
			v, err = m.Get(op.Key)
		} else {
			name = spanClientGet
			v, err = c.d.client.Get(node, op.Key)
		}
		t1 = time.Now()
		if err == nil {
			err = checkValue(op.Key, v, c.seqs)
		}
	}
	c.finish(name, isPut, 1, node, c.d.keyClass(op.Key, node), t0, t1, deadline, err)
	return t1
}

// buffered adds op to the get or put frame and issues the frame once it is
// full, so every call carries frameOps ops of one kind. It returns the
// completion time of the call it made, or zero.
func (c *client) buffered(op workload.Op, deadline time.Time) time.Time {
	if op.Type == workload.Put {
		c.putKeys = append(c.putKeys, op.Key)
		if len(c.putKeys) == frameOps {
			return c.putFrame(deadline)
		}
	} else {
		c.getKeys = append(c.getKeys, op.Key)
		if len(c.getKeys) == frameOps {
			return c.getFrame(deadline)
		}
	}
	return time.Time{}
}

func (c *client) getFrame(deadline time.Time) time.Time {
	keys := c.getKeys
	c.getKeys = c.getKeys[:0]
	node := c.node()
	var err error
	var name uint8
	var t0, t1 time.Time
	if c.sampled() {
		name = spanNodeMultiGet
		t0 = time.Now()
		var vs [][]byte
		vs, err = c.d.members[node].LocalNode().MultiGet(keys)
		t1 = time.Now()
		for i := 0; err == nil && i < len(keys); i++ {
			err = checkValue(keys[i], vs[i], c.seqs)
		}
	} else {
		name = spanClientGet
		ops := c.ops[:0]
		for _, k := range keys {
			ops = append(ops, cluster.Op{Kind: cluster.OpGet, Key: k})
		}
		t0 = time.Now()
		var rs []cluster.Result
		rs, err = c.d.client.Batch(node, ops)
		t1 = time.Now()
		for i := range rs {
			e := rs[i].Err
			if e == nil {
				e = checkValue(keys[i], rs[i].Value, c.seqs)
			}
			if e != nil && err == nil {
				err = e
			}
			rs[i].Release()
		}
	}
	c.finish(name, false, len(keys), node, c.d.frameClass(keys, node), t0, t1, deadline, err)
	return t1
}

func (c *client) putFrame(deadline time.Time) time.Time {
	keys := c.putKeys
	c.putKeys = c.putKeys[:0]
	node := c.node()
	var vals [frameOps][]byte
	for i, k := range keys {
		vals[i] = stamp(c.putVals[i][:], k, uint32(c.id), c.seqs[c.id].Add(1))
	}
	var err error
	var name uint8
	var t0, t1 time.Time
	if c.sampled() {
		name = spanNodeMultiPut
		t0 = time.Now()
		err = c.d.members[node].LocalNode().MultiPut(keys, vals[:len(keys)])
		t1 = time.Now()
	} else {
		name = spanClientPut
		ops := c.ops[:0]
		for i, k := range keys {
			ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: k, Value: vals[i]})
		}
		t0 = time.Now()
		var rs []cluster.Result
		rs, err = c.d.client.Batch(node, ops)
		t1 = time.Now()
		for i := range rs {
			if rs[i].Err != nil && err == nil {
				err = rs[i].Err
			}
		}
	}
	c.finish(name, true, len(keys), node, c.d.frameClass(keys, node), t0, t1, deadline, err)
	return t1
}

// finish accounts one call of n ops: correctness always, and latency and
// throughput only for calls that completed before the deadline.
func (c *client) finish(name uint8, isPut bool, n, node int, class uint8, t0, t1, deadline time.Time, err error) {
	r := c.res
	r.attempted += uint64(n)
	if err != nil {
		r.fail(n, fmt.Errorf("client %d %s of %d op(s) on node %d: %w", c.id, spanNames[name], n, node, err))
	}
	if !t1.Before(deadline) {
		return
	}
	ns := t1.Sub(t0).Nanoseconds()
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	win := &r.win[int64(t1.Sub(c.start))*int64(len(r.win))/int64(c.dur)]
	if isPut {
		win.putLat = append(win.putLat, uint32(ns))
		r.puts += uint64(n)
	} else {
		win.getLat = append(win.getLat, uint32(ns))
	}
	win.ops += uint64(n)
	r.ops += uint64(n)
	if c.rec != nil {
		c.rec.add(span{
			trace: uint64(c.id+1)<<48 | c.calls, id: 1,
			frame: uint16(n), name: name, node: uint8(node), class: class,
		}, t0, t1)
	}
}

// Key classes tag spans; classMixed marks a frame whose ops differ.
const (
	classHot uint8 = iota
	classLocal
	classRemote
	classMixed
)

var classNames = [...]string{"hot", "local", "remote", "mixed"}

// keyClass names where key is served from relative to node, using the hot
// set and Cluster.HomeNode.
func (d *deployment) keyClass(key uint64, node int) uint8 {
	switch {
	case key < cacheItems:
		return classHot
	case d.members[0].HomeNode(key) == node:
		return classLocal
	default:
		return classRemote
	}
}

// frameClass is the class shared by every key of a frame, or classMixed.
func (d *deployment) frameClass(keys []uint64, node int) uint8 {
	cl := d.keyClass(keys[0], node)
	for _, k := range keys[1:] {
		if d.keyClass(k, node) != cl {
			return classMixed
		}
	}
	return cl
}

// converge waits until every member returns the same value for every hot
// key, and checks each value. Under SC, updates are applied asynchronously,
// so this is a bounded poll once the load has stopped.
func converge(d *deployment, seqs writerSeqs, timeout time.Duration) error {
	hot := hotSet()
	ops := make([]cluster.Op, len(hot))
	for i, k := range hot {
		ops[i] = cluster.Op{Kind: cluster.OpGet, Key: k}
	}
	deadline := time.Now().Add(timeout)
	for {
		vals := make([][][]byte, numNodes)
		for node := range vals {
			rs, err := d.client.Batch(node, ops)
			if err != nil {
				return fmt.Errorf("convergence read on node %d: %w", node, err)
			}
			vals[node] = make([][]byte, len(hot))
			for i := range rs {
				if rs[i].Err != nil {
					return fmt.Errorf("convergence read of key %d on node %d: %w", hot[i], node, rs[i].Err)
				}
				if err := checkValue(hot[i], rs[i].Value, seqs); err != nil {
					return fmt.Errorf("convergence read on node %d: %w", node, err)
				}
				vals[node][i] = rs[i].ValueCopy()
				rs[i].Release()
			}
		}
		diff := -1
		for i := range hot {
			for node := 1; node < numNodes; node++ {
				if string(vals[node][i]) != string(vals[0][i]) {
					diff = i
				}
			}
		}
		if diff < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hot key %d did not converge within %v: %x / %x / %x",
				hot[diff], timeout, vals[0][diff], vals[1][diff], vals[2][diff])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
