package core

import "repro/internal/timestamp"

// SC protocol (per-key Sequential Consistency, §5.2).
//
// The protocol is the update-based design of Burckhardt, fully distributed:
// a put that hits in any cache is applied locally at once — writes are
// non-blocking and reads that follow observe the new value immediately —
// and an update carrying the new value and its Lamport timestamp is
// broadcast to the other replicas. Replicas apply an update only when its
// timestamp exceeds the stored one (session ids break ties), so all replicas
// converge on the same per-key write order: the (clock, writer) pair gives
// every write a unique point in a single total order.

// WriteSC performs a local SC write. On a cache hit it increments the
// Lamport clock, stores the value, and returns the Update that must be
// broadcast to the other N-1 replicas. On a miss it returns ErrMiss and the
// caller forwards the put to the key's home shard.
func (c *Cache) WriteSC(key uint64, value []byte) (Update, error) {
	e, ok := c.lookup(key)
	if !ok {
		c.stats.Misses.Add(1)
		return Update{}, ErrMiss
	}
	var out Update
	e.lock.Lock()
	if e.frozen {
		e.lock.Unlock()
		return Update{}, ErrFrozen
	}
	e.ts = e.ts.Next(c.nodeID)
	e.setValueLocked(value)
	e.dirty = true
	out = Update{Key: key, TS: e.ts, Value: append([]byte(nil), value...)}
	e.lock.Unlock()

	c.stats.Hits.Add(1)
	c.stats.WritesSC.Add(1)
	return out, nil
}

// RMWSC performs a local SC read-modify-write: under the entry lock it reads
// the current value, hands a copy to compute, and — when compute elects to
// write — applies the returned value immediately (SC writes are
// non-blocking) and returns the Update to broadcast. witness is the value
// compute observed (always a fresh copy); applied reports whether compute
// chose to write. The entry lock makes the read-compute-write sequence
// atomic against every other mutation of this replica; under SC this node is
// the key's single RMW serialization point, so replica convergence by
// timestamp order carries RMW atomicity cluster-wide.
func (c *Cache) RMWSC(key uint64, compute func(cur []byte) ([]byte, bool)) (upd Update, witness []byte, applied bool, err error) {
	e, ok := c.lookup(key)
	if !ok {
		c.stats.Misses.Add(1)
		return Update{}, nil, false, ErrMiss
	}
	e.lock.Lock()
	if e.frozen {
		e.lock.Unlock()
		return Update{}, nil, false, ErrFrozen
	}
	if e.installing {
		e.lock.Unlock()
		c.stats.Misses.Add(1)
		return Update{}, nil, false, ErrMiss
	}
	witness = append([]byte(nil), e.val[:e.vlen]...)
	value, ok := compute(witness)
	if !ok {
		e.lock.Unlock()
		c.stats.Hits.Add(1)
		return Update{}, witness, false, nil
	}
	e.ts = e.ts.Next(c.nodeID)
	e.setValueLocked(value)
	e.dirty = true
	upd = Update{Key: key, TS: e.ts, Value: append([]byte(nil), value...)}
	e.lock.Unlock()

	c.stats.Hits.Add(1)
	c.stats.WritesSC.Add(1)
	return upd, witness, true, nil
}

// WriteSCWithTS performs an SC write whose serialization timestamp was
// assigned externally — by a sequencer node (the Figure 4b design the paper
// contrasts with its fully-distributed protocol). The entry's clock is
// advanced to the given timestamp if it is newer; otherwise the write is
// superseded and not applied locally (the sequencer guarantees this cannot
// happen while the sequencer is the only timestamp source).
func (c *Cache) WriteSCWithTS(key uint64, value []byte, ts timestamp.TS) (Update, error) {
	e, ok := c.lookup(key)
	if !ok {
		c.stats.Misses.Add(1)
		return Update{}, ErrMiss
	}
	e.lock.Lock()
	if e.frozen {
		e.lock.Unlock()
		return Update{}, ErrFrozen
	}
	if ts.After(e.ts) {
		e.ts = ts
		e.setValueLocked(value)
		e.dirty = true
	}
	e.lock.Unlock()
	c.stats.Hits.Add(1)
	c.stats.WritesSC.Add(1)
	return Update{Key: key, TS: ts, Value: append([]byte(nil), value...)}, nil
}

// ApplyUpdateSC applies a received SC update: the change is applied only if
// the received timestamp orders after the stored one. It reports whether the
// update was applied.
func (c *Cache) ApplyUpdateSC(u Update) bool {
	e, ok := c.lookup(u.Key)
	if !ok {
		// The hot set shifted between the sender's epoch and ours; the
		// update is simply dropped — the KVS home copy is the fallback.
		c.stats.UpdatesDiscarded.Add(1)
		return false
	}
	applied := false
	e.lock.Lock()
	if u.TS.After(e.ts) {
		e.ts = u.TS
		e.setValueLocked(u.Value)
		e.dirty = true
		applied = true
	}
	e.lock.Unlock()
	if applied {
		c.stats.UpdatesApplied.Add(1)
	} else {
		c.stats.UpdatesDiscarded.Add(1)
	}
	return applied
}

// MaxTS returns the highest timestamp stored for key (test hook used by
// convergence property tests).
func (c *Cache) MaxTS(key uint64) timestamp.TS {
	e, ok := c.lookup(key)
	if !ok {
		return timestamp.TS{}
	}
	var ts timestamp.TS
	e.lock.Read(func() { ts = e.ts })
	return ts
}
