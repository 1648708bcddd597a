package attrspace

// replica is the LASS cache's mirror of one CASS context: per attribute
// the newest write known, a delete kept as a tombstone so that an older
// write arriving late — a fill — cannot bring the attribute back. Acks,
// fills and events all go through apply, so whatever order they land
// in, the newest write of an attribute wins. Not safe for concurrent
// use: its owner's lock guards it.
type replica struct {
	entries map[string]rentry
	max     int // entry bound, 0 for none; beyond it an arbitrary entry goes
}

// rentry is one attribute of a replica: its value and the seq of the
// write that produced it, or a tombstone (dead).
type rentry struct {
	value string
	seq   uint64
	dead  bool
}

// apply installs the write of attribute at seq, a tombstone when dead,
// unless the replica holds a write at least as new. Allocation-free once
// the map has room.
func (r *replica) apply(attribute, value string, seq uint64, dead bool) {
	if e, ok := r.entries[attribute]; ok && e.seq >= seq {
		return
	} else if !ok && r.max > 0 && len(r.entries) >= r.max {
		for k := range r.entries { // evict an arbitrary entry: a future miss
			delete(r.entries, k)
			break
		}
	}
	r.entries[attribute] = rentry{value: value, seq: seq, dead: dead}
}
