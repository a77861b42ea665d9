// Command cckvs-load drives a multi-process cckvs-node deployment through
// the session layer: it bootstraps the hot set, runs a YCSB-style Zipfian
// workload against every node (the paper's black-box load balancing),
// optionally applies an online hot-set refresh in the middle of the run,
// and can finish with a consistency check that fails on any stale or lost
// read — the multi-process counterpart of cmd/cckvs-verify.
//
// Example (after starting three cckvs-node processes):
//
//	cckvs-load -nodes 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	           -keys 16384 -hotset 64 -alpha 0.99 -writes 0.05 \
//	           -ops 5000 -clients 4 -refresh-at 0.5 -verify -min-hit-rate 0.2
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and drives the deployment end to end, returning the
// process exit code (factored out of main so the CLI is testable).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cckvs-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodeList   = fs.String("nodes", "127.0.0.1:7000", "comma-separated node addresses, ordered by node id")
		keys       = fs.Uint64("keys", 16384, "keyspace size (must match the nodes' -keys)")
		alpha      = fs.Float64("alpha", 0.99, "zipfian exponent (0 = uniform)")
		writes     = fs.Float64("writes", 0.05, "write ratio")
		putFrac    = fs.Float64("put-frac", -1, "put fraction of the workload (overrides -writes when >= 0; e.g. 0.5 drives the write-heavy consistency-plane mix)")
		rmwFrac    = fs.Float64("rmw-frac", 0, "fraction of ops issued as atomic fetch-and-adds (start the nodes with -value 8 so populated values decode as counters; forces -value 8 here)")
		ops        = fs.Int("ops", 5000, "operations per client")
		clients    = fs.Int("clients", 4, "concurrent clients")
		batch      = fs.Int("batch", 1, "operations per session frame (>1 drives the batched v2 wire format)")
		valSize    = fs.Int("value", 40, "value size in bytes")
		hotset     = fs.Int("hotset", 0, "install ranks [0,hotset) as the hot set before the run (0 = skip)")
		refreshAt  = fs.Float64("refresh-at", 0, "apply an online hot-set refresh after this fraction of ops (0 = never)")
		refShift   = fs.Int("refresh-shift", 0, "ranks to shift the hot window at the mid-run refresh (default hotset/4)")
		verify     = fs.Bool("verify", false, "run the consistency check after the workload")
		verKeys    = fs.Int("verify-keys", 12, "keys exercised by the consistency check")
		verRounds  = fs.Int("verify-rounds", 25, "sequential writes per key in the consistency check")
		minHitRate = fs.Float64("min-hit-rate", 0, "fail unless the aggregate cache hit rate reaches this")
		waitReady  = fs.Duration("wait", 15*time.Second, "how long to wait for all nodes to answer pings")
		timeout    = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		chaosDown  = fs.Int("chaos-down", -1, "chaos mode: node id that dies mid-run; the workload reroutes around it, tolerates its failure window, and the checker verifies the survivors (-1 = off)")
		chaosPid   = fs.Int("chaos-kill-pid", 0, "chaos mode: OS pid to SIGKILL once chaos-at of the ops executed (0 = the node was/will be killed externally; tolerance starts at workload start)")
		chaosAt    = fs.Float64("chaos-at", 0.5, "chaos mode: fraction of total ops after which chaos-kill-pid is killed")
		replicas   = fs.Int("replicas", 1, "shard replicas per key (must match the nodes' -replicas); with >1 a single node death must never answer home-down — the promoted backup serves")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *rmwFrac > 0 {
		if *chaosDown >= 0 {
			// Chaos retries re-run failed ops/frames whole, which is safe for
			// last-write-wins puts but would double-apply a fetch-and-add.
			fmt.Fprintln(stderr, "-rmw-frac cannot be combined with -chaos-down (retrying an RMW could apply it twice)")
			return 2
		}
		if *valSize != 8 {
			fmt.Fprintf(stdout, "rmw-frac > 0: forcing -value 8 (the counter encoding)\n")
			*valSize = 8
		}
	}

	addrs := strings.Split(*nodeList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	nodes := len(addrs)

	cl, err := cluster.DialTCP(250, addrs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer cl.Close()
	cl.SetTimeout(*timeout)
	if err := cl.WaitReady(*waitReady); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "deployment ready: %d nodes\n", nodes)

	if *hotset > 0 {
		promoted, demoted, err := cl.Refresh(0, hotWindow(0, *hotset))
		if err != nil {
			fmt.Fprintf(stderr, "hot-set install: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hot set installed: %d keys (promoted=%d demoted=%d)\n", *hotset, promoted, demoted)
	}

	if *chaosDown >= nodes {
		fmt.Fprintf(stderr, "-chaos-down %d out of range for %d nodes\n", *chaosDown, nodes)
		return 2
	}
	if *putFrac >= 0 {
		*writes = *putFrac
	}
	vo := verifyOpts{
		nodes: nodes, keys: *keys, verifyKeys: *verKeys, rounds: *verRounds,
		hotset: *hotset, shift: *refShift, chaosDown: *chaosDown, replicas: *replicas,
	}
	if vo.shift == 0 {
		vo.shift = *hotset / 4
	}
	if *chaosDown >= 0 {
		// Chaos runs exercise the view-change concurrency, not the epoch
		// change; a refresh mid-check would also try to move dead-homed
		// keys (a no-op by design, but it muddies the assertion).
		vo.shift = 0
	}
	var checked []uint64
	if *verify {
		checked = vo.checkedKeys()
	}
	shifted, code := runWorkload(cl, workloadOpts{
		nodes: nodes, keys: *keys, alpha: *alpha, writes: *writes, rmwFrac: *rmwFrac,
		ops: *ops, clients: *clients, batch: *batch, valSize: *valSize,
		hotset: *hotset, refreshAt: *refreshAt, refShift: *refShift,
		chaosDown: *chaosDown, chaosPid: *chaosPid, chaosAt: *chaosAt,
		replicas: *replicas, readOnly: keySet(checked),
	}, stdout, stderr)
	if code != 0 {
		return code
	}

	if *verify {
		vo.workloadShifted = shifted
		if err := runVerify(cl, vo, checked, stdout); err != nil {
			fmt.Fprintf(stderr, "consistency check FAILED: %v\n", err)
			return 1
		}
	}

	return reportStats(cl, nodes, *hotset, *minHitRate, *chaosDown, stdout, stderr)
}

// hotWindow returns ranks [from, from+n).
func hotWindow(from, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = uint64(from + i)
	}
	return w
}

type workloadOpts struct {
	nodes     int
	keys      uint64
	alpha     float64
	writes    float64
	rmwFrac   float64 // fraction of ops issued as atomic fetch-and-adds
	ops       int
	clients   int
	batch     int // ops per session frame; > 1 uses the batched wire format
	valSize   int
	hotset    int
	refreshAt float64
	refShift  int
	// Chaos orchestration: chaosDown is the node that dies mid-run (-1 =
	// off); chaosPid, when non-zero, is SIGKILLed once chaosAt of the total
	// ops executed. See chaosState.
	chaosDown int
	chaosPid  int
	chaosAt   float64
	// replicas mirrors the deployment's -replicas; it flips the chaos
	// checker's failure model (see chaosState.replicated).
	replicas int
	// readOnly holds the consistency check's keys; the workload only reads
	// them (see clientOp).
	readOnly map[uint64]bool
}

// keySet returns keys as a set.
func keySet(keys []uint64) map[uint64]bool {
	set := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// clientOp maps a generated operation onto the client surface. Writes to
// readOnly keys become gets: SC has no real-time order across sessions, so
// a workload put still in flight when the consistency check writes the same
// key could win the Lamport tie and overwrite the check's final value.
func clientOp(op workload.Op, readOnly map[uint64]bool) cluster.Op {
	b := cluster.Op{Key: op.Key}
	if readOnly[op.Key] {
		return b
	}
	switch op.Type {
	case workload.Put:
		b.Kind, b.Value = cluster.OpPut, op.Value
	case workload.FAA:
		b.Kind, b.Delta = cluster.OpFAA, op.Delta
	}
	return b
}

// chaosState tracks the kill: clients reroute around the downed node and
// retry failures within a bounded grace window after it — the deployment
// must converge to clean survivor-side service within it. The unreplicated
// failure model additionally tolerates ErrHomeDown outright (fail-fast on
// dead-homed keys IS the correct post-kill behavior); with shard replication
// a single node death must never answer home-down — ops on keys homed at
// the victim must succeed via the promoted backup, so ErrHomeDown falls
// through to the grace-window retry and fails the run if it persists.
type chaosState struct {
	node       int
	replicated bool         // shard replication on: home-down is a failure, not a fact of life
	killedAt   atomic.Int64 // unixnano; 0 = not yet killed
	down       []atomic.Bool
	homeDown   atomic.Uint64 // ops answered with the home-down status
	retried    atomic.Uint64 // ops retried within the grace window
}

const chaosGrace = 10 * time.Second

// kill SIGKILLs the victim (if a pid was given) and flips the routing mask.
func (c *chaosState) kill(pid int, stdout io.Writer) {
	if pid > 0 {
		if p, err := os.FindProcess(pid); err == nil {
			_ = p.Kill()
		}
	}
	c.killedAt.Store(time.Now().UnixNano())
	c.down[c.node].Store(true)
	fmt.Fprintf(stdout, "chaos: killed node %d (pid %d)\n", c.node, pid)
}

// withinGrace reports whether the post-kill tolerance window is open.
func (c *chaosState) withinGrace() bool {
	at := c.killedAt.Load()
	return at != 0 && time.Since(time.Unix(0, at)) < chaosGrace
}

// route returns the first non-down node at or after start (round-robin load
// balancing that skips excised members).
func (c *chaosState) route(start, nodes int) int {
	for j := 0; j < nodes; j++ {
		n := (start + j) % nodes
		if !c.down[n].Load() {
			return n
		}
	}
	return start % nodes
}

// runWorkload drives the Zipfian phase, optionally applying one online
// hot-set refresh once the deployment has executed refreshAt of the total
// operations — while the clients keep hammering it. shifted reports whether
// that refresh actually ran (the verifier picks its own refresh target so
// the epoch change always has a real delta).
func runWorkload(cl *cluster.Client, o workloadOpts, stdout, stderr io.Writer) (shifted bool, code int) {
	gen, err := workload.New(workload.Config{
		NumKeys: o.keys, Alpha: o.alpha, WriteRatio: o.writes, RMWFrac: o.rmwFrac,
		ValueSize: o.valSize, Seed: 42,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return false, 1
	}

	lat := metrics.NewHistogram()
	var done atomic.Uint64
	var firstErr error
	var errMu sync.Mutex
	fail := func(client int, err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("client %d: %w", client, err)
		}
		errMu.Unlock()
	}

	total := uint64(o.clients * o.ops)
	refreshTrigger := make(chan struct{}, 1)
	threshold := uint64(float64(total) * o.refreshAt)

	var chaos *chaosState
	var chaosThreshold uint64
	var killOnce sync.Once
	if o.chaosDown >= 0 {
		chaos = &chaosState{node: o.chaosDown, replicated: o.replicas > 1, down: make([]atomic.Bool, o.nodes)}
		if o.chaosPid > 0 {
			chaosThreshold = uint64(float64(total) * o.chaosAt)
			if chaosThreshold == 0 {
				chaosThreshold = 1
			}
		} else {
			// External kill (the script owns the SIGKILL): the tolerance
			// window opens at workload start, as the flag documents, and
			// re-opens whenever an op fails on the victim (a kill later than
			// the initial grace is learned from its first failure).
			chaos.killedAt.Store(time.Now().UnixNano())
		}
	}

	// progress advances the shared op counter by a whole frame and fires the
	// crossing-triggered events. The crossing tests (n >= t && n-m < t) fire
	// exactly once however many ops a frame carries; the checks stay
	// independent — folding them into if/else would silently skip the kill
	// whenever the two thresholds land in the same frame.
	progress := func(m uint64) {
		n := done.Add(m)
		if threshold > 0 && n >= threshold && n-m < threshold {
			select {
			case refreshTrigger <- struct{}{}:
			default:
			}
		}
		if chaosThreshold > 0 && n >= chaosThreshold && n-m < chaosThreshold {
			killOnce.Do(func() { chaos.kill(o.chaosPid, stdout) })
		}
	}
	// retry decides what to do with a failed op or frame routed to node:
	// reroute-and-retry in chaos mode (marking an observed victim death,
	// tolerating survivor hiccups inside the grace window), give up
	// otherwise.
	retry := func(node, attempt int) bool {
		if chaos == nil {
			return false
		}
		// An op routed to the victim: note the death (external kills are
		// learned here — the grace window slides to the observed failure),
		// reroute, retry.
		if node == o.chaosDown {
			chaos.down[node].Store(true)
			chaos.killedAt.Store(time.Now().UnixNano())
			chaos.retried.Add(1)
			return true
		}
		// Collateral failure on a survivor (a server-side RPC caught
		// mid-flip, a Lin write racing the excision): tolerated within the
		// grace window — the deployment must converge to clean service
		// inside it.
		if chaos.withinGrace() && attempt < 1000 {
			chaos.retried.Add(1)
			time.Sleep(10 * time.Millisecond)
			return true
		}
		return false
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := gen.Clone(uint64(id))
			if o.batch > 1 {
				runBatchedClient(cl, g, o, id, lat, chaos, progress, retry, fail)
				return
			}
			for i := 0; i < o.ops; i++ {
				op := clientOp(g.Next(), o.readOnly)
				for attempt := 0; ; attempt++ {
					// Round-robin load balancing; chaos mode skips downed nodes.
					node := (id + i + attempt) % o.nodes
					if chaos != nil {
						node = chaos.route(node, o.nodes)
					}
					t0 := time.Now()
					var err error
					switch op.Kind {
					case cluster.OpPut:
						err = cl.Put(node, op.Key, op.Value)
					case cluster.OpFAA:
						// A missing key reads as counter 0, so no NotFound
						// tolerance is needed on the RMW path.
						_, err = cl.FetchAndAdd(node, op.Key, op.Delta)
					default:
						_, err = cl.Get(node, op.Key)
						if errors.Is(err, store.ErrNotFound) {
							err = nil // keyspace mismatch tolerance on cold reads
						}
					}
					lat.Record(uint64(time.Since(t0).Nanoseconds()))
					if err == nil {
						break
					}
					if chaos != nil && !chaos.replicated && errors.Is(err, cluster.ErrHomeDown) {
						// A dead-homed key answering home-down IS the correct
						// post-kill behavior when unreplicated: count it and
						// move on. (Replicated: fall through to the grace
						// retry — the promoted backup must serve.)
						chaos.homeDown.Add(1)
						break
					}
					if retry(node, attempt) {
						continue
					}
					fail(id, err)
					return
				}
				progress(1)
			}
		}(c)
	}

	// Online refresh under full client load: shift the hot window by
	// refShift ranks through an arbitrary node, exactly the §4 epoch change.
	// workloadDone aborts the refresher when the threshold was never reached
	// (a client failed, or refresh-at is past the end) — it must not run a
	// pointless epoch change after the workload.
	var refreshErr error
	var didRefresh atomic.Bool
	refreshed := make(chan struct{})
	workloadDone := make(chan struct{})
	if threshold > 0 && o.hotset > 0 {
		go func() {
			defer close(refreshed)
			select {
			case <-workloadDone:
				// The workload may have reached the threshold in its final
				// ops, leaving both channels ready; honor a fired trigger
				// with priority so a short run cannot randomly skip the
				// refresh it earned.
				select {
				case <-refreshTrigger:
				default:
					return
				}
			case <-refreshTrigger:
			}
			shift := o.refShift
			if shift == 0 {
				shift = o.hotset / 4
			}
			promoted, demoted, err := cl.Refresh(1%o.nodes, hotWindow(shift, o.hotset))
			if err != nil {
				refreshErr = err
				return
			}
			didRefresh.Store(true)
			fmt.Fprintf(stdout, "mid-run refresh: shifted hot window by %d (promoted=%d demoted=%d)\n",
				shift, promoted, demoted)
		}()
	} else {
		close(refreshed)
	}

	wg.Wait()
	close(workloadDone)
	elapsed := time.Since(start)
	<-refreshed
	if firstErr != nil {
		fmt.Fprintln(stderr, firstErr)
		return didRefresh.Load(), 1
	}
	if refreshErr != nil {
		fmt.Fprintf(stderr, "mid-run refresh: %v\n", refreshErr)
		return didRefresh.Load(), 1
	}

	snap := lat.Snapshot()
	fmt.Fprintf(stdout, "%d nodes, %d clients, %d ops in %v\n", o.nodes, o.clients, total, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "throughput: %.0f ops/s\n", float64(total)/elapsed.Seconds())
	fmt.Fprintf(stdout, "latency:    avg %.1fus  p50 %.1fus  p95 %.1fus  p99 %.1fus\n",
		snap.Mean/1000, float64(snap.P50)/1000, float64(snap.P95)/1000, float64(snap.P99)/1000)
	if chaos != nil {
		if chaos.killedAt.Load() == 0 && o.chaosPid > 0 {
			fmt.Fprintln(stderr, "chaos: the kill never triggered (run too short for -chaos-at?)")
			return didRefresh.Load(), 1
		}
		fmt.Fprintf(stdout, "chaos: survivors served through the kill (%d home-down fast-fails, %d ops retried in the failure window)\n",
			chaos.homeDown.Load(), chaos.retried.Load())
	}
	return didRefresh.Load(), 0
}

// runBatchedClient is one client goroutine's loop in batched mode: every
// frame packs up to o.batch consecutive operations of this client's stream
// into one v2 session frame. A failed frame is retried whole after
// rerouting — re-running it is safe (puts are last-write-wins re-executions
// of the same values, gets are read-only; frames never carry RMWs in chaos
// mode, the only mode that retries, because -rmw-frac rejects -chaos-down).
func runBatchedClient(cl *cluster.Client, g *workload.Generator, o workloadOpts, id int,
	lat *metrics.Histogram, chaos *chaosState,
	progress func(uint64), retry func(int, int) bool, fail func(int, error)) {
	buf := make([]cluster.Op, 0, o.batch)
	for i := 0; i < o.ops; {
		m := min(o.batch, o.ops-i)
		buf = buf[:0]
		for j := 0; j < m; j++ {
			b := clientOp(g.Next(), o.readOnly)
			if b.Kind == cluster.OpPut {
				// The generator reuses its value buffer across Next calls;
				// the frame holds all m values at once.
				b.Value = append([]byte(nil), b.Value...)
			}
			buf = append(buf, b)
		}
		for attempt := 0; ; attempt++ {
			node := (id + i + attempt) % o.nodes
			if chaos != nil {
				node = chaos.route(node, o.nodes)
			}
			t0 := time.Now()
			rs, err := cl.Batch(node, buf)
			lat.Record(uint64(time.Since(t0).Nanoseconds()))
			if err == nil {
				err = batchOutcome(buf, rs, chaos)
			}
			if err == nil {
				break
			}
			if retry(node, attempt) {
				continue
			}
			fail(id, err)
			return
		}
		progress(uint64(m))
		i += m
	}
}

// batchOutcome scans a settled frame's per-op results: absent keys on the
// read path are tolerated (keyspace mismatch on cold reads, like the
// single-op loop), home-down fast-fails are counted and tolerated in chaos
// mode (they ARE the correct post-kill behavior), anything else is the
// frame's failure.
func batchOutcome(ops []cluster.Op, rs []cluster.Result, chaos *chaosState) error {
	for i := range rs {
		err := rs[i].Err
		if err == nil {
			continue
		}
		if ops[i].EffectiveKind() == cluster.OpGet && errors.Is(err, store.ErrNotFound) {
			continue
		}
		if chaos != nil && !chaos.replicated && errors.Is(err, cluster.ErrHomeDown) {
			chaos.homeDown.Add(1)
			continue
		}
		return err
	}
	return nil
}

type verifyOpts struct {
	nodes      int
	keys       uint64
	verifyKeys int
	rounds     int
	hotset     int
	shift      int
	// workloadShifted records whether the workload's mid-run refresh moved
	// the hot window to [shift, shift+hotset); the verifier's own refresh
	// targets the *other* window so its epoch change always has a delta.
	workloadShifted bool
	// chaosDown, when >= 0, restricts the check to the survivors: writers
	// and readers use only live nodes, cold checked keys must keep a live
	// shard replica (dead-homed HOT keys stay in the set on purpose — they
	// must keep serving from the symmetric cache), and convergence is
	// asserted on the survivors only. With replicas > 1 a single death
	// leaves every key a live replica, so dead-homed COLD keys stay in the
	// set too — the promoted backup must serve them.
	chaosDown int
	replicas  int
}

// hasLiveReplica reports whether key keeps a shard replica after down died.
func hasLiveReplica(key uint64, nodes, replicas, down int) bool {
	for _, r := range cluster.ReplicasOf(key, nodes, replicas) {
		if r != down {
			return true
		}
	}
	return false
}

// liveNodes lists the check's usable nodes.
func (o verifyOpts) liveNodes() []int {
	var live []int
	for n := 0; n < o.nodes; n++ {
		if n != o.chaosDown {
			live = append(live, n)
		}
	}
	return live
}

// checkedKeys picks the consistency check's keys: half from the hot window
// (cache protocol paths), half cold (remote-access paths). With no (or a
// small) hot set the cold side takes up the slack — the keys must be
// distinct, or two writers would race one key and fake a stale read. In
// chaos mode the cold keys must be homed on survivors (dead-homed cold keys
// correctly fail fast and cannot be checked); dead-homed HOT keys stay in —
// the symmetric cache serves them through the node death, and that is
// exactly what gets verified.
func (o verifyOpts) checkedKeys() []uint64 {
	var keys []uint64
	hot := min(o.verifyKeys/2, o.hotset)
	for i := 0; i < hot; i++ {
		keys = append(keys, uint64(i))
	}
	for k := o.keys / 2; len(keys) < o.verifyKeys && k < o.keys; k++ {
		if o.chaosDown >= 0 && !hasLiveReplica(k, o.nodes, max(o.replicas, 1), o.chaosDown) {
			continue
		}
		keys = append(keys, k)
	}
	return keys
}

// runVerify is the lost/stale-read detector over keys (checkedKeys, which
// the workload never wrote): one writer per key issues a strictly
// increasing sequence of tagged values through a fixed node while one
// reader per node concurrently checks that the sequence it observes never
// goes backwards; half-way through, an online hot-set refresh runs under
// the checked traffic. Afterwards every node must converge to every key's
// final value. Any regression, mismatch, non-convergence or lost final
// write fails the run.
func runVerify(cl *cluster.Client, o verifyOpts, keys []uint64, stdout io.Writer) error {
	live := o.liveNodes()

	var (
		halfway      = make(chan struct{})
		halfwayOnce  sync.Once
		halfProgress = atomic.Int64{}
		errMu        sync.Mutex
		firstErr     error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			// The halfway barrier must always fall, even when a writer fails
			// or rounds is tiny — otherwise the refresh select below would
			// stall for its full timeout on an already-doomed run.
			marked := false
			mark := func() {
				if !marked {
					marked = true
					if halfProgress.Add(1) == int64(len(keys)) {
						halfwayOnce.Do(func() { close(halfway) })
					}
				}
			}
			defer mark()
			node := live[int(key)%len(live)] // writer affinity: per-key writes serialize
			for seq := 1; seq <= o.rounds; seq++ {
				if err := cl.Put(node, key, encodeVerify(key, uint64(seq))); err != nil {
					fail(fmt.Errorf("writer key %d seq %d: %w", key, seq, err))
					return
				}
				if seq == (o.rounds+1)/2 {
					mark()
				}
			}
		}(k)
	}

	// Readers: per-node monotonicity. A fixed replica may only ever move
	// forward through a key's write sequence.
	readerStop := make(chan struct{})
	var readers sync.WaitGroup
	for _, node := range live {
		readers.Add(1)
		go func(node int) {
			defer readers.Done()
			last := make(map[uint64]uint64, len(keys))
			for {
				select {
				case <-readerStop:
					return
				default:
				}
				for _, k := range keys {
					v, err := cl.Get(node, k)
					if err != nil {
						if errors.Is(err, store.ErrNotFound) {
							continue
						}
						fail(fmt.Errorf("reader node %d key %d: %w", node, k, err))
						return
					}
					seq, stamped, err := readSeq(k, v)
					if err != nil {
						fail(fmt.Errorf("reader node %d key %d: %w", node, k, err))
						return
					}
					if !stamped {
						continue // pre-check populate value
					}
					if seq > uint64(o.rounds) {
						fail(fmt.Errorf("reader node %d key %d: impossible seq %d > %d", node, k, seq, o.rounds))
						return
					}
					if seq < last[k] {
						fail(fmt.Errorf("STALE READ: node %d key %d went backwards: %d after %d", node, k, seq, last[k]))
						return
					}
					last[k] = seq
				}
			}
		}(node)
	}

	// The online refresh under checked traffic: shift the hot window once
	// every writer is half done. The target is whichever window is NOT
	// currently installed — [shift,·) if the workload never refreshed,
	// back to [0,·) if it did — so the epoch change always moves real keys
	// (including checked hot keys, when shift reaches into them). A
	// zero-delta refresh would silently skip the very reconfiguration
	// concurrency this phase exists to exercise, hence the tripwire.
	var refreshErr error
	if o.hotset > 0 && o.shift > 0 {
		target := hotWindow(o.shift, o.hotset)
		if o.workloadShifted {
			target = hotWindow(0, o.hotset)
		}
		select {
		case <-halfway:
			promoted, demoted, err := cl.Refresh(live[0], target)
			switch {
			case err != nil:
				refreshErr = fmt.Errorf("refresh during check: %w", err)
			case promoted == 0 && demoted == 0:
				refreshErr = errors.New("refresh during check moved no keys (zero delta: reconfiguration concurrency not exercised)")
			default:
				fmt.Fprintf(stdout, "consistency check: hot window shifted under checked traffic (promoted=%d demoted=%d)\n",
					promoted, demoted)
			}
		case <-time.After(2 * time.Minute):
			refreshErr = errors.New("writers never reached the refresh point")
		}
	}

	wg.Wait()
	close(readerStop)
	readers.Wait()
	if firstErr != nil {
		return firstErr
	}
	if refreshErr != nil {
		return refreshErr
	}

	// Convergence: every node must serve every key's final write. A node
	// stuck below it has lost the write or serves a stale replica.
	deadline := time.Now().Add(15 * time.Second)
	for _, k := range keys {
		for _, node := range live {
			for {
				v, err := cl.Get(node, k)
				if err == nil {
					if seq, ok := decodeVerify(k, v); ok && seq == uint64(o.rounds) {
						break
					}
				}
				if time.Now().After(deadline) {
					seq := uint64(0)
					if err == nil {
						seq, _ = decodeVerify(k, v)
					}
					return fmt.Errorf("LOST/STALE: node %d key %d stuck at seq %d, want %d (err=%v)",
						node, k, seq, o.rounds, err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	fmt.Fprintf(stdout, "consistency check passed: %d keys x %d writes, %d readers, all live nodes converged\n",
		len(keys), o.rounds, len(live))
	return nil
}

// encodeVerify tags a checker value with its key and sequence number.
func encodeVerify(key, seq uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v[:8], key)
	binary.LittleEndian.PutUint64(v[8:], seq)
	return v
}

// decodeVerify recovers the sequence number of a checker value; ok=false
// for anything else (e.g. the populate-time value before the first write).
func decodeVerify(key uint64, v []byte) (uint64, bool) {
	if len(v) != 16 || binary.LittleEndian.Uint64(v[:8]) != key {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v[8:]), true
}

// readSeq classifies a value read from a checked key. A checker stamp
// yields its sequence number (stamped=true). The value Cluster.Populate
// wrote before the first checked write (byte j is byte(key)^byte(j)) yields
// stamped=false. Anything else is an error: the workload never writes
// checked keys, so a foreign value means the cluster served a value nobody
// wrote to this key.
func readSeq(key uint64, v []byte) (seq uint64, stamped bool, err error) {
	if seq, ok := decodeVerify(key, v); ok {
		return seq, true, nil
	}
	for j, b := range v {
		if b != byte(key)^byte(j) {
			return 0, false, fmt.Errorf("FOREIGN VALUE %x: neither a checker stamp nor the populate value", v)
		}
	}
	return 0, false, nil
}

// reportStats prints per-node counters and enforces the hit-rate floor. In
// chaos mode the dead node is skipped: it cannot answer, and the floor is a
// survivors' property.
func reportStats(cl *cluster.Client, nodes, hotset int, minHitRate float64, chaosDown int, stdout, stderr io.Writer) int {
	var agg cluster.SessionStats
	for node := 0; node < nodes; node++ {
		if node == chaosDown {
			continue
		}
		st, err := cl.Stats(node)
		if err != nil {
			fmt.Fprintf(stderr, "stats node %d: %v\n", node, err)
			return 1
		}
		fmt.Fprintf(stdout, "node %d: hits=%d misses=%d local=%d remote=%d hot=%d hit-rate=%.3f\n",
			node, st.CacheHits, st.CacheMisses, st.LocalOps, st.RemoteOps, st.HotKeys, st.HitRate())
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.LocalOps += st.LocalOps
		agg.RemoteOps += st.RemoteOps
	}
	fmt.Fprintf(stdout, "aggregate hit rate: %.3f\n", agg.HitRate())
	if hotset > 0 && agg.CacheHits == 0 {
		fmt.Fprintln(stderr, "no cache hits despite an installed hot set")
		return 1
	}
	if minHitRate > 0 && agg.HitRate() < minHitRate {
		fmt.Fprintf(stderr, "aggregate hit rate %.3f below required %.3f\n", agg.HitRate(), minHitRate)
		return 1
	}
	return 0
}
