// Package dedup keeps the per-source sequence state behind at-most-once
// delivery: for each source a node has heard, the set of sequence numbers
// it has already accepted. This is the per-source seq_id/last_id state of
// Contiki-style multicast forwarding, not a table over every node in the
// network, so a node's footprint grows with the sources it hears (in the
// paper's workload, one) and never with the network size.
package dedup

// Seen records (source, sequence) pairs. The zero value is empty and
// ready to use. Sources are found by a linear scan, which beats any index
// at the handful of sources a node hears; sequence numbers are dense per
// source (they count up from a small start), so each source keeps a
// bitset indexed by sequence number.
type Seen[K comparable] struct {
	srcs []source[K]
}

type source[K comparable] struct {
	key  K
	bits []uint64
}

// Mark records (src, seq) and reports whether it was new. Storage grows
// on demand; steady state allocates nothing once each source's bitset
// has caught up with its sequence counter.
func (s *Seen[K]) Mark(src K, seq uint32) bool {
	i := 0
	for i < len(s.srcs) && s.srcs[i].key != src {
		i++
	}
	if i == len(s.srcs) {
		s.srcs = append(s.srcs, source[K]{key: src})
	}
	e := &s.srcs[i]
	w, bit := int(seq>>6), uint64(1)<<(seq&63)
	for w >= len(e.bits) {
		e.bits = append(e.bits, 0)
	}
	if e.bits[w]&bit != 0 {
		return false
	}
	e.bits[w] |= bit
	return true
}
