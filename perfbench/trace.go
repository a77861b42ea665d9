package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Spans are recorded from the benchmark's own files only, around
// its calls into each layer's public functions.
const (
	spanClientGet uint8 = iota
	spanClientPut
	spanNodeGet
	spanNodePut
	spanNodeMultiGet
	spanNodeMultiPut
	spanProbe
	spanFabricRTT
	spanStoreGet
	spanStorePut
	spanCacheRead
	spanWorkloadNext
	spanSetup
	spanSetupPopulate
	spanReconfigInstall
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.get", "client.put", "node.get", "node.put", "node.multiget", "node.multiput",
	"probe", "fabric.rtt", "store.get", "store.put", "cache.read", "workload.next",
	"setup", "setup.populate", "reconfig.install",
}

// span is one timed call. Times are nanoseconds since the run's epoch. A
// root span has parent 0; the spans of one trace share its trace id. frame
// is the number of ops the call carried (a probe span may time a loop of
// frame calls); node is the member served, and class the key class.
type span struct {
	trace      uint64
	start, end int64
	id, parent uint32
	frame      uint16
	name       uint8
	node       uint8
	class      uint8
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// recorder keeps one goroutine's spans in memory; it is not shared.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span, start, end time.Time) {
	s.start, s.end = r.since(start), r.since(end)
	r.spans = append(r.spans, s)
}

// writeSpans writes every span as one CSV file, sorted by start time.
func writeSpans(path string, recs []*recorder) (n int, err error) {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "trace,id,parent,name,start_ns,end_ns,frame,node,class")
	for _, s := range all {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d,%d,%s\n", s.trace, s.id, s.parent, spanNames[s.name],
			s.start, s.end, s.frame, s.node, classNames[s.class])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// spanP50 returns the median duration per op, in nanoseconds, of the spans
// named name that carry frame ops of class (any frame size when frame is 0),
// and how many spans matched.
func spanP50(recs []*recorder, name uint8, class uint8, frame uint16) (float64, int) {
	var ds []float64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.name == name && s.class == class && (frame == 0 || s.frame == frame) {
				ds = append(ds, float64(s.dur())/float64(s.frame))
			}
		}
	}
	return quantile(ds, 0.5), len(ds)
}
