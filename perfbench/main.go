// Command perfbench is the repository's end-to-end benchmark. It stands up a
// three-member ccKVS deployment over loopback TCP in one process, drives it
// with one of three named closed-loop workloads, checks every answer, and
// prints every metric by name and unit. With --trace 1 it also runs a traced
// phase that times the calls into each layer's public functions and writes
// the spans to one file.
//
//	go run . --workload zipf-single-sc --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The process exits non-zero
// when any output check or workload guard fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRuns is how many times a run stands the deployment up; setup metrics
// are the median over the set-ups the host did not steal from (see
// quietWindows). The last deployment carries the load.
const setupRuns = 7

// warmup runs the load unmeasured first, so connections, pools and the
// caches' working state are in place before timing.
const warmup = time.Second

// Metric kinds. The end-to-end metrics are the result of a --trace 0 run
// and the per-layer ones of a --trace 1 run. The p99s and the failure share
// are end-to-end too, but printed only: host CPU steal moves the p99s by
// more than any bound a run could hold (see README.md), and failures are
// the result's own "failed" count.
const (
	endToEnd = iota
	printedOnly
	perLayer
)

type metricDef struct {
	name, unit string
	kind       int
}

// The metrics, in print order. BENCHMARK.json lists the same names and
// units; README.md maps each per-layer metric to the end-to-end metric it
// should move.
var metricDefs = []metricDef{
	{"throughput_ops_s", "ops/s", endToEnd},
	{"cpu_us_per_op", "us", endToEnd},
	{"get_p50_us", "us", endToEnd},
	{"get_p99_us", "us", printedOnly},
	{"put_p50_us", "us", endToEnd},
	{"put_p99_us", "us", printedOnly},
	{"failed_ops_frac", "ratio", printedOnly},
	{"setup_s", "s", endToEnd},
	{"live_heap_mb", "MiB", endToEnd},

	{"edge.get_hit_p50_us", "us", perLayer},
	{"node.get_hit_p50_us", "us", perLayer},
	{"edge.get_hit_overhead_us", "us", perLayer},
	{"node.get_remote_p50_us", "us", perLayer},
	{"node.put_hot_p50_us", "us", perLayer},
	{"node.put_remote_p50_us", "us", perLayer},
	{"fabric.rtt_p50_us", "us", perLayer},
	{"fabric.read_syscalls_per_op", "syscalls/op", perLayer},
	{"fabric.write_syscalls_per_op", "syscalls/op", perLayer},
	{"fabric.pkts_per_op", "pkts/op", perLayer},
	{"fabric.bytes_per_op", "B/op", perLayer},
	{"fabric.bytes_per_op.miss", "B/op", perLayer},
	{"fabric.bytes_per_op.update", "B/op", perLayer},
	{"fabric.bytes_per_op.inv", "B/op", perLayer},
	{"fabric.bytes_per_op.ack", "B/op", perLayer},
	{"fabric.bytes_per_op.credit", "B/op", perLayer},
	{"fabric.send_blocked_per_kop", "1/kop", perLayer},
	{"fabric.flattened_bytes", "B", perLayer},
	{"pipeline.msgs_per_pkt", "msgs/pkt", perLayer},
	{"consistency.msgs_per_pkt", "msgs/pkt", perLayer},
	{"consistency.msgs_per_put", "msgs/put", perLayer},
	{"cache.hit_rate", "ratio", perLayer},
	{"cache.read_ns", "ns", perLayer},
	{"node.remote_frac", "ratio", perLayer},
	{"core.retries_per_op", "retries/op", perLayer},
	{"store.get_ns", "ns", perLayer},
	{"store.put_ns", "ns", perLayer},
	{"reconfig.install_ms", "ms", perLayer},
	{"setup.populate_s", "s", perLayer},
	{"runtime.allocs_per_op", "allocs/op", perLayer},
	{"runtime.gc_per_s", "1/s", perLayer},
	{"cpu.sys_frac", "ratio", perLayer},
	{"runtime.ctxsw_per_op", "1/op", perLayer},
	{"workload.next_ns", "ns", perLayer},
	{"trace.overhead_frac", "ratio", perLayer},
}

// guard asserts that a workload exercises the layer it was chosen for; a
// drifted configuration fails the run instead of measuring the wrong path.
type guard struct {
	metric string
	min    float64 // exclusive when strict
	max    float64
	strict bool
}

func (g guard) check(v float64) error {
	lowOK := v >= g.min && (!g.strict || v > g.min)
	if lowOK && v <= g.max {
		return nil
	}
	op := ">="
	if g.strict {
		op = ">"
	}
	return fmt.Errorf("workload guard: %s = %.4g, want %s %.4g and <= %.4g", g.metric, v, op, g.min, g.max)
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: zipf-single-sc, uniform-batch-sc or zipf-writeheavy-lin")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 20, "length of the measured phase in seconds (the traced phase runs half as long)")
		trace   = fs.Int("trace", 0, "1: also run a traced phase and report the per-layer metrics")
		spanDir = fs.String("span-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := findSpec(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	b := &bench{sp: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1, spanDir: *spanDir, out: stdout}
	res, err := b.run()
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintln(stdout, string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    uint64
	dur     time.Duration
	traced  bool
	spanDir string
	out     io.Writer

	vals       map[string]float64
	counts     map[string]int // latency sample counts
	checks     []error        // output-check and guard failures
	quiet      int            // measured windows the end-to-end metrics use,
	allWindows int            // out of this many
	// quietSetups is how many of the setupRuns set-ups the setup metrics use.
	quietSetups int
	res         phaseResult // attempts and failures over every phase
	// phaseCPUPerOp is the measured phase's CPU time per op, over the whole
	// phase like the traced phase's it is compared with.
	phaseCPUPerOp float64
}

func (b *bench) set(name string, v float64) { b.vals[name] = v }

func (b *bench) absorb(rs ...phaseResult) {
	for _, r := range rs {
		b.res.attempted += r.attempted
		b.res.failed += r.failed
		for _, e := range r.errs {
			if len(b.checks) < 10 {
				b.checks = append(b.checks, e)
			}
		}
	}
}

// run executes the benchmark. It returns an error when the deployment could
// not be measured at all; failed checks mark the result incorrect.
func (b *bench) run() (*result, error) {
	b.vals, b.counts = map[string]float64{}, map[string]int{}
	base, err := workload.New(workload.Config{
		NumKeys: numKeys, Alpha: b.sp.alpha, WriteRatio: b.sp.putFrac, ValueSize: valueSize, Seed: b.seed,
	})
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	setupRec := &recorder{epoch: epoch}

	// Set-up, several times; the last deployment carries the load.
	var d *deployment
	var totals, pops, installs []float64
	var setupHost []hostWindow
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		var h0, h1 hostSample
		if h0, err = sampleHost(); err != nil {
			return nil, err
		}
		if d, err = deploy(b.sp.proto); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if h1, err = sampleHost(); err != nil {
			return nil, err
		}
		setupHost = append(setupHost, h1.since(h0))
		totals = append(totals, d.total.Seconds())
		pops = append(pops, d.populate.Seconds())
		installs = append(installs, float64(d.install)/float64(time.Millisecond))
		recordSetup(setupRec, d, uint64(i))
	}
	defer d.close()
	quiet := quietWindows(setupHost)
	pick := func(xs []float64) float64 {
		var q []float64
		for _, i := range quiet {
			q = append(q, xs[i])
		}
		return quantile(q, 0.5)
	}
	b.set("setup_s", pick(totals))
	b.set("setup.populate_s", pick(pops))
	b.set("reconfig.install_ms", pick(installs))
	b.quietSetups = len(quiet)

	seqs := make(writerSeqs, numWriters)
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i, d, b.sp, base, seqs)
	}
	rs, _, err := runPhase(clients, warmup, 1, nil)
	if err != nil {
		return nil, err
	}
	b.absorb(rs...)

	// The measured phase: every end-to-end metric and every counter ratio.
	before, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	rs, host, err := runPhase(clients, b.dur, b.windows(), nil)
	if err != nil {
		return nil, err
	}
	after, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	b.absorb(rs...)
	b.endToEnd(rs, host, before, after)
	b.perLayerCounters(rs, before, after)
	for i := range rs {
		rs[i].win = nil // the benchmark's own samples are not the program's heap
	}
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second drops them, so pooled buffers left over from
	// whatever was in flight when the load stopped are not counted.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))

	var recs []*recorder
	if b.traced {
		if recs, err = b.tracedPhase(d, clients, base, seqs, epoch); err != nil {
			return nil, err
		}
	}

	if err := converge(d, seqs, 10*time.Second); err != nil {
		b.checks = append(b.checks, err)
	}
	var flattened uint64
	for _, st := range d.stats {
		flattened += st.FlattenedBytes.Load()
	}
	b.set("fabric.flattened_bytes", float64(flattened))
	if flattened != 0 {
		b.checks = append(b.checks, fmt.Errorf("fabric flattened %d bytes; TCP must send vectored payloads as-is", flattened))
	}
	for _, g := range b.sp.guards {
		if err := g.check(b.vals[g.metric]); err != nil {
			b.checks = append(b.checks, err)
		}
	}
	if err := d.close(); err != nil {
		b.checks = append(b.checks, fmt.Errorf("teardown: %w", err))
	}

	if b.traced {
		path := filepath.Join(b.spanDir, b.sp.name+".csv")
		n, err := writeSpans(path, append(recs, setupRec))
		if err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(b.out, "spans: %d written to %s\n", n, path)
	}
	return b.report(), nil
}

// windows is how many equal slices the measured phase is split into.
func (b *bench) windows() int { return int(b.dur / time.Second) }

// quietSteal is the host steal share above which a window is left out of
// the end-to-end metrics: a vCPU the hypervisor takes away stalls the
// closed loop, and sustained steal of ~10% cuts throughput by a quarter.
const quietSteal = 0.05

// quietWindows returns the windows the end-to-end metrics (or the set-ups
// the setup metrics) are taken from: those whose host steal stayed at or
// below quietSteal or, when fewer than a quarter did, the quarter with the
// least steal.
func quietWindows(host []hostWindow) []int {
	var quiet []int
	for w, h := range host {
		if h.steal <= quietSteal {
			quiet = append(quiet, w)
		}
	}
	if least := max(1, len(host)/4); len(quiet) < least {
		quiet = quiet[:0]
		for w := range host {
			quiet = append(quiet, w)
		}
		sort.SliceStable(quiet, func(i, j int) bool { return host[quiet[i]].steal < host[quiet[j]].steal })
		quiet = quiet[:least]
	}
	return quiet
}

// endToEnd derives the end-to-end metrics of the measured phase. Each is
// computed per window, over the quiet windows only, and reported as the
// median over them, so neither a burst of host noise nor the hypervisor
// moves the run's figure.
func (b *bench) endToEnd(rs []phaseResult, host []hostWindow, before, after counters) {
	winDur := b.dur.Seconds() / float64(len(host))
	quiet := quietWindows(host)
	var thr, cpuOp, g50, g99, p50, p99 []float64
	var gets, puts int
	for _, w := range quiet {
		var ops uint64
		var g, p []float64
		for _, r := range rs {
			ops += r.win[w].ops
			for _, ns := range r.win[w].getLat {
				g = append(g, float64(ns)/1e3)
			}
			for _, ns := range r.win[w].putLat {
				p = append(p, float64(ns)/1e3)
			}
		}
		gets += len(g)
		puts += len(p)
		thr = append(thr, float64(ops)/winDur)
		cpuOp = append(cpuOp, perOp(float64(host[w].cpu)/1e3, ops))
		g50 = append(g50, quantile(g, 0.5))
		g99 = append(g99, quantile(g, 0.99))
		p50 = append(p50, quantile(p, 0.5))
		p99 = append(p99, quantile(p, 0.99))
	}
	b.set("throughput_ops_s", quantile(thr, 0.5))
	b.set("cpu_us_per_op", quantile(cpuOp, 0.5))
	b.set("get_p50_us", quantile(g50, 0.5))
	b.set("get_p99_us", quantile(g99, 0.5))
	b.set("put_p50_us", quantile(p50, 0.5))
	b.set("put_p99_us", quantile(p99, 0.5))
	for _, m := range []string{"get_p50_us", "get_p99_us"} {
		b.counts[m] = gets
	}
	for _, m := range []string{"put_p50_us", "put_p99_us"} {
		b.counts[m] = puts
	}
	b.quiet, b.allWindows = len(quiet), len(host)
	b.set("host.steal_frac", ratio(float64(after.hostSteal-before.hostSteal), float64(after.hostTotal-before.hostTotal)))
}

// perLayerCounters derives the counter ratios of the measured phase.
func (b *bench) perLayerCounters(rs []phaseResult, before, after counters) {
	var ops, puts uint64
	for _, r := range rs {
		ops += r.ops
		puts += r.puts
	}
	fops := float64(ops)
	b.set("fabric.read_syscalls_per_op", float64(after.syscr-before.syscr)/fops)
	b.set("fabric.write_syscalls_per_op", float64(after.syscw-before.syscw)/fops)
	b.set("fabric.pkts_per_op", float64(after.sends-before.sends)/fops)
	b.set("fabric.bytes_per_op", float64(after.wireBytes-before.wireBytes)/fops)
	for i, suffix := range []string{"miss", "update", "inv", "ack", "credit"} {
		b.set("fabric.bytes_per_op."+suffix, float64(after.classBytes[i]-before.classBytes[i])/fops)
	}
	b.set("fabric.send_blocked_per_kop", 1e3*float64(after.blocked-before.blocked)/fops)
	b.set("pipeline.msgs_per_pkt", ratio(float64(after.reqMsgs-before.reqMsgs), float64(after.reqPkts-before.reqPkts)))
	b.set("consistency.msgs_per_pkt", ratio(float64(after.conMsgs-before.conMsgs), float64(after.conPkts-before.conPkts)))
	b.set("consistency.msgs_per_put", ratio(float64(after.conMsgs-before.conMsgs), float64(puts)))
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	b.set("cache.hit_rate", ratio(hits, hits+misses))
	local, remote := float64(after.local-before.local), float64(after.remote-before.remote)
	b.set("node.remote_frac", ratio(remote, local+remote))
	retries := (after.invRetries - before.invRetries) + (after.pendRetries - before.pendRetries) + (after.frozRetries - before.frozRetries)
	b.set("core.retries_per_op", float64(retries)/fops)
	b.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/fops)
	b.set("runtime.gc_per_s", float64(after.numGC-before.numGC)/after.at.Sub(before.at).Seconds())
	cpu := after.cpu() - before.cpu()
	b.phaseCPUPerOp = perOp(float64(cpu)/1e3, ops)
	b.set("cpu.sys_frac", ratio(float64(after.stime-before.stime), float64(cpu)))
	b.set("runtime.ctxsw_per_op", float64(after.nvcsw-before.nvcsw)/fops)
}

// tracedPhase runs the load again with spans on, plus the probes, and
// derives the traced per-layer metrics.
func (b *bench) tracedPhase(d *deployment, clients []*client, base *workload.Generator, seqs writerSeqs, epoch time.Time) ([]*recorder, error) {
	recs := make([]*recorder, numClients+1)
	for i := range recs {
		recs[i] = &recorder{epoch: epoch}
	}
	p, err := newProber(d, base, seqs, b.seed, recs[numClients])
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	defer p.close()
	before, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		p.run(stop)
	}()
	// The per-layer figures are unbounded medians of thousands of spans, so
	// half the measured length is enough.
	rs, _, err := runPhase(clients, max(b.dur/2, time.Second), 1, recs[:numClients])
	close(stop)
	<-probed
	if err != nil {
		return nil, err
	}
	after, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	b.absorb(rs...)
	b.absorb(p.res)

	var ops uint64
	for _, r := range rs {
		ops += r.ops
	}
	traced := perOp(float64(after.cpu()-before.cpu())/1e3, ops)
	b.set("trace.overhead_frac", traced/b.phaseCPUPerOp-1)

	lat := func(metric string, name, class uint8, frame uint16) float64 {
		v, n := spanP50(recs, name, class, frame)
		b.counts[metric] = n
		if n == 0 {
			b.checks = append(b.checks, fmt.Errorf("no %s spans of class %s for %s", spanNames[name], classNames[class], metric))
		}
		b.set(metric, v/1e3)
		return v
	}
	edge := lat("edge.get_hit_p50_us", spanClientGet, classHot, 1)
	node := lat("node.get_hit_p50_us", spanNodeGet, classHot, 1)
	b.set("edge.get_hit_overhead_us", (edge-node)/1e3)
	lat("node.get_remote_p50_us", spanNodeGet, classRemote, 1)
	lat("node.put_hot_p50_us", spanNodePut, classHot, 1)
	lat("node.put_remote_p50_us", spanNodePut, classRemote, 1)
	lat("fabric.rtt_p50_us", spanFabricRTT, classRemote, 1)
	for _, pr := range []struct {
		metric      string
		name, class uint8
	}{
		{"cache.read_ns", spanCacheRead, classHot},
		{"store.get_ns", spanStoreGet, classLocal},
		{"store.put_ns", spanStorePut, classLocal},
		{"workload.next_ns", spanWorkloadNext, classMixed},
	} {
		v, _ := spanP50(recs, pr.name, pr.class, 0)
		b.set(pr.metric, v)
	}
	return recs, nil
}

// recordSetup records one set-up as a setup span with its two timed parts.
func recordSetup(rec *recorder, d *deployment, i uint64) {
	trace := traceSetup | i
	rec.spans = append(rec.spans,
		span{trace: trace, id: 1, name: spanSetup, frame: 1, class: classMixed, start: rec.since(d.started), end: rec.since(d.started.Add(d.total))},
		span{trace: trace, id: 2, parent: 1, name: spanSetupPopulate, frame: 1, class: classMixed, start: rec.since(d.popStart), end: rec.since(d.popStart.Add(d.populate))},
		span{trace: trace, id: 3, parent: 1, name: spanReconfigInstall, frame: 1, class: classHot, start: rec.since(d.instStart), end: rec.since(d.instStart.Add(d.install))},
	)
}

// report prints every metric on its own line, then the result object.
func (b *bench) report() *result {
	failed := b.res.failed
	b.set("failed_ops_frac", ratio(float64(failed), float64(b.res.attempted)))
	fmt.Fprintf(b.out, "workload %s seed %d: %d nodes, %d keys, %d cached, %d workers/node, %d clients, frame %d\n",
		b.sp.name, b.seed, numNodes, numKeys, cacheItems, workersPerNode, numClients, b.sp.frame)
	line := func(name, unit string) {
		v, ok := b.vals[name]
		if !ok {
			return
		}
		extra := ""
		if n, ok := b.counts[name]; ok {
			extra = fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintf(b.out, "%-30s %14.4f %s%s\n", name, v, unit, extra)
	}
	for _, m := range metricDefs {
		line(m.name, m.unit)
	}
	line("host.steal_frac", "ratio")
	fmt.Fprintf(b.out, "end-to-end metrics from %d of %d windows and setup metrics from %d of %d set-ups (host steal <= %g, or the quietest quarter)\n",
		b.quiet, b.allWindows, b.quietSetups, setupRuns, quietSteal)

	correct := len(b.checks) == 0 && failed == 0
	for _, e := range b.checks {
		fmt.Fprintf(b.out, "CHECK FAILED: %v\n", e)
	}
	res := &result{Correct: correct, Attempted: b.res.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		res.Attempted = 1 // never reached; keeps the result well-formed
		res.Correct = false
	}
	for _, m := range metricDefs {
		if (m.kind == endToEnd && b.traced) || (m.kind == perLayer && !b.traced) || m.kind == printedOnly {
			continue
		}
		v, ok := b.vals[m.name]
		if !ok {
			res.Correct = false
			continue
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res
}

func perOp(total float64, ops uint64) float64 { return total / float64(max(ops, 1)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
