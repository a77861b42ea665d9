package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
)

// The pinned deployment. Every workload runs on the same one; only the
// protocol differs.
const (
	numNodes       = 3
	numKeys        = 1 << 18
	cacheItems     = numKeys / 100 // 2621 hot ranks, 1% of the keys
	workersPerNode = 2
	frameOps       = 32
	numClients     = 2
	clientFabricID = 250 // outside the member id range, like cckvs-load
)

// deployment is cckvs-node's wiring without the process boundary: three
// cluster members in one process, each on its own loopback TCP transport
// with a benchmark-owned fabric.Stats, and one session client dialled to
// all of them.
type deployment struct {
	members []*cluster.Cluster
	trs     []*fabric.TCPTransport
	stats   []*fabric.Stats
	client  *cluster.Client

	// Set-up timings: the Populate calls, Client.Refresh of the hot set,
	// and the whole set-up including start-up and WaitReady.
	started, popStart, instStart time.Time
	populate, install, total     time.Duration

	closed bool
}

// hotSet returns ranks [0, cacheItems), the hot set cckvs-load -hotset installs.
func hotSet() []uint64 { return cluster.DefaultHotSet(cacheItems) }

// deploy stands the deployment up. On error everything started is stopped.
func deploy(proto core.Protocol) (d *deployment, err error) {
	d = &deployment{started: time.Now()}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	cfg := cluster.Config{
		Nodes:          numNodes,
		System:         cluster.CCKVS,
		Protocol:       proto,
		NumKeys:        numKeys,
		CacheItems:     cacheItems,
		WorkersPerNode: workersPerNode,
		ValueSize:      valueSize,
	}
	for i := 0; i < numNodes; i++ {
		st := fabric.NewStats()
		tr, err := fabric.NewTCPTransport(uint8(i), "127.0.0.1:0", st)
		if err != nil {
			return d, err
		}
		d.trs = append(d.trs, tr)
		d.stats = append(d.stats, st)
	}
	addrs := make([]string, numNodes)
	for i, tr := range d.trs {
		addrs[i] = tr.ListenAddr()
	}
	for i, tr := range d.trs {
		for j, a := range addrs {
			if j != i {
				tr.AddPeer(uint8(j), a)
			}
		}
		m, err := cluster.NewMember(cfg, i, tr, d.stats[i])
		if err != nil {
			return d, err
		}
		d.members = append(d.members, m)
		tr.SetPeerDownHandler(func(peer uint8, cause error) {
			if int(peer) < numNodes {
				m.PeerDown(peer, cause)
			}
		})
	}
	d.popStart = time.Now()
	for _, m := range d.members {
		m.Populate()
	}
	d.populate = time.Since(d.popStart)
	if d.client, err = cluster.DialTCP(clientFabricID, addrs); err != nil {
		return d, err
	}
	if err := d.client.WaitReady(15 * time.Second); err != nil {
		return d, err
	}
	d.instStart = time.Now()
	promoted, _, err := d.client.Refresh(0, hotSet())
	if err != nil {
		return d, fmt.Errorf("hot-set install: %w", err)
	}
	if promoted != cacheItems {
		return d, fmt.Errorf("hot-set install promoted %d keys, want %d", promoted, cacheItems)
	}
	d.install = time.Since(d.instStart)
	d.total = time.Since(d.started)
	return d, nil
}

// close stops the client, then every member and transport, and waits for
// their goroutines. Closing twice is a no-op. Peer-down handling is detached first: members leaving
// one by one is teardown, not a failure to react to.
func (d *deployment) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	var errs []error
	if d.client != nil {
		errs = append(errs, d.client.Close())
	}
	for _, tr := range d.trs {
		tr.SetPeerDownHandler(nil)
	}
	for _, m := range d.members {
		errs = append(errs, m.Close())
	}
	for _, tr := range d.trs {
		errs = append(errs, tr.Close())
	}
	return errors.Join(errs...)
}
