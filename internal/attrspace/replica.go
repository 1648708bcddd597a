package attrspace

// replica is a downstream copy of one server context: a Session's
// record of what its consumers have been told, the LASS cache's mirror
// of a CASS context. It holds the incarnation it copies (SUB's OK names
// it), the newest context seq applied, and per attribute the newest
// write known, a delete kept as a tombstone so that an older write
// arriving late — a fill, a replay — cannot bring the attribute back.
// Acks, fills, events and resyncs all go through apply, so whatever
// order they land in, the newest write of an attribute wins. Not safe
// for concurrent use: its owner's lock guards it.
type replica struct {
	inc     uint64 // 0: none copied yet, or the last one was destroyed
	seq     uint64 // high-water: the newest context seq applied
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
// unless the replica holds a write at least as new; it reports whether
// it did. Allocation-free once the map has room.
func (r *replica) apply(attribute, value string, seq uint64, dead bool) bool {
	if e, ok := r.entries[attribute]; ok && e.seq >= seq {
		return false
	} else if !ok && r.max > 0 && len(r.entries) >= r.max {
		for k := range r.entries { // evict an arbitrary entry: a future miss
			delete(r.entries, k)
			break
		}
	}
	r.entries[attribute] = rentry{value: value, seq: seq, dead: dead}
	r.seq = max(r.seq, seq)
	return true
}

// reset empties the replica for incarnation inc.
func (r *replica) reset(inc uint64) {
	r.inc, r.seq = inc, 0
	clear(r.entries)
}

// applyDelta applies a mutation log ending at ctxSeq (SNAPD's DELTA),
// calling emit with each write that was news.
func (r *replica) applyDelta(ops []DeltaOp, ctxSeq uint64, emit func(Event)) {
	for _, op := range ops {
		if r.apply(op.Attr, op.Value, op.Seq, op.Delete) {
			emit(deltaEvent(op.Attr, op.Value, op.Seq, op.Delete))
		}
	}
	r.seq = max(r.seq, ctxSeq)
}

// applyFull applies a complete versioned snapshot taken at ctxSeq,
// calling emit with each change: a put for every attribute newer there,
// a delete versioned ctxSeq for every attribute live here that the
// snapshot lacks — unless it was written after ctxSeq (live events can
// overtake the snapshot's reply), when its absence says nothing.
func (r *replica) applyFull(snap map[string]Versioned, ctxSeq uint64, emit func(Event)) {
	for k, v := range snap {
		if r.apply(k, v.Value, v.Seq, false) {
			emit(deltaEvent(k, v.Value, v.Seq, false))
		}
	}
	for k, e := range r.entries {
		if _, ok := snap[k]; !ok && !e.dead && e.seq <= ctxSeq {
			r.entries[k] = rentry{seq: ctxSeq, dead: true}
			emit(deltaEvent(k, "", ctxSeq, true))
		}
	}
	r.seq = max(r.seq, ctxSeq)
}

// deltaEvent is a write a resync replays to consumers.
func deltaEvent(attribute, value string, seq uint64, dead bool) Event {
	op := "put"
	if dead {
		op = "delete"
	}
	return Event{Attr: attribute, Value: value, Op: op, Seq: seq, Resync: true}
}
