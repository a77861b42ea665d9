package cluster

import "sync"

// lane is the doorbell queue shared by the request pipeline (pipeline.go),
// the consistency plane (consistency.go) and the worker session lanes
// (session.go): the paper's request coalescing (§6.3) and doorbell batching
// (§6.4) in goroutine form. Producers put items bound for one destination;
// one consumer takes them in batches, blocking only for the first item and
// then draining what is already pending, up to a message and a byte bound.
// It never waits for company, so concurrency is the only source of
// coalescing and an isolated item ships alone at once.
//
// The lane owns only the queue and the drain policy. Encoding, flow control
// and what happens to items refused by a closed lane stay with the caller.
type lane[T any] struct {
	q        chan T
	maxMsgs  int
	maxBytes int // 0: no byte bound
	// size returns an item's wire size. It takes the item by value: a
	// pointer would move every drained item to the heap.
	size func(T) int

	mu     sync.RWMutex
	closed bool

	// Consumer-only state. bytes is the size of the batch last returned by
	// next or fill (0 without a size function); carry is the item that would
	// have pushed that batch past maxBytes, and it heads the next batch.
	bytes    int
	carry    T
	hasCarry bool
}

// newLane returns a lane queuing up to depth items and batching up to
// maxMsgs items or maxBytes bytes (maxBytes 0: no byte bound, size may be
// nil).
func newLane[T any](depth, maxMsgs, maxBytes int, size func(T) int) *lane[T] {
	return &lane[T]{q: make(chan T, depth), maxMsgs: maxMsgs, maxBytes: maxBytes, size: size}
}

// put queues v, blocking while the lane is full (backpressure on the
// producer). It reports false, and queues nothing, once the lane is closed.
func (l *lane[T]) put(v T) bool {
	l.mu.RLock()
	// The send stays under the read lock so close cannot close the channel
	// between the check and the send.
	if l.closed {
		l.mu.RUnlock()
		return false
	}
	l.q <- v
	l.mu.RUnlock()
	return true
}

// tryPut is put minus the blocking: it reports false only when the lane is
// full. A closed lane disposes of v and reports true.
func (l *lane[T]) tryPut(v T) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return true
	}
	select {
	case l.q <- v:
		return true
	default:
		return false
	}
}

// close stops the lane accepting items. The consumer still drains what was
// queued; after that next returns an empty batch. Idempotent.
func (l *lane[T]) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.q)
	}
	l.mu.Unlock()
}

// next returns the next batch in batch's storage: it blocks for the first
// item (the carried one, if any), then fills. An empty batch means the lane
// is closed and drained. dry is as for fill.
func (l *lane[T]) next(batch []T) (_ []T, dry bool) {
	batch = batch[:0]
	first, ok := l.carry, l.hasCarry
	if ok {
		var zero T
		l.carry, l.hasCarry = zero, false
	} else if first, ok = <-l.q; !ok {
		return batch, true
	}
	l.bytes = 0
	if l.size != nil {
		l.bytes = l.size(first)
	}
	return l.fill(append(batch, first))
}

// fill appends to batch what is already pending, up to the bounds, without
// waiting. An item that would push the batch past maxBytes is carried into
// the next batch. dry reports that the queue ran empty (or closed), rather
// than a bound or a carried item ending the batch.
func (l *lane[T]) fill(batch []T) (_ []T, dry bool) {
	for len(batch) < l.maxMsgs && !l.hasCarry && (l.maxBytes == 0 || l.bytes < l.maxBytes) {
		select {
		case v, ok := <-l.q:
			if !ok {
				return batch, true
			}
			if l.size != nil {
				s := l.size(v)
				if l.maxBytes > 0 && l.bytes+s > l.maxBytes {
					l.carry, l.hasCarry = v, true
					return batch, false
				}
				l.bytes += s
			}
			batch = append(batch, v)
		default:
			return batch, true
		}
	}
	return batch, false
}
