package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Every value the benchmark writes is a 40-byte stamp naming the key it was
// written to, the writer and the writer's sequence number, sealed with a
// checksum. A read can then be judged on its own: it must return either the
// populated value of the key or an intact stamp for the same key whose
// sequence number the writer has already issued. The checker assumes no
// real-time order between writers, which SC does not promise.
const (
	valueSize  = 40
	stampMagic = 0x63634b56 // "ccKV"
)

// populated is the value cluster.Populate writes for key: byte(key)^byte(j).
func populated(key uint64, j int) byte { return byte(key) ^ byte(j) }

// writerSeqs holds the highest sequence number each writer has issued.
type writerSeqs []atomic.Uint64

// stamp encodes (key, writer, seq) into dst, which must hold valueSize bytes.
func stamp(dst []byte, key uint64, writer uint32, seq uint64) []byte {
	dst = dst[:valueSize]
	binary.LittleEndian.PutUint64(dst[0:8], key)
	binary.LittleEndian.PutUint32(dst[8:12], writer)
	binary.LittleEndian.PutUint64(dst[12:20], seq)
	binary.LittleEndian.PutUint32(dst[20:24], stampMagic)
	clear(dst[24:32])
	binary.LittleEndian.PutUint64(dst[32:40], checksum(dst[:32]))
	return dst
}

// checksum is FNV-1a over b.
func checksum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// checkValue reports why v is not a value key may hold, or nil if it is.
func checkValue(key uint64, v []byte, seqs writerSeqs) error {
	if len(v) != valueSize {
		return fmt.Errorf("key %d: value of %d bytes, want %d", key, len(v), valueSize)
	}
	if isPopulated(key, v) {
		return nil
	}
	if binary.LittleEndian.Uint32(v[20:24]) != stampMagic || checksum(v[:32]) != binary.LittleEndian.Uint64(v[32:40]) {
		return fmt.Errorf("key %d: value is neither the populated value nor an intact stamp: %x", key, v)
	}
	k := binary.LittleEndian.Uint64(v[0:8])
	w := binary.LittleEndian.Uint32(v[8:12])
	seq := binary.LittleEndian.Uint64(v[12:20])
	if k != key {
		return fmt.Errorf("key %d: returned the stamp of key %d (writer %d seq %d)", key, k, w, seq)
	}
	if int(w) >= len(seqs) || seq == 0 || seq > seqs[w].Load() {
		return fmt.Errorf("key %d: stamp writer %d seq %d was never issued", key, w, seq)
	}
	return nil
}

func isPopulated(key uint64, v []byte) bool {
	for j, c := range v {
		if c != populated(key, j) {
			return false
		}
	}
	return true
}
