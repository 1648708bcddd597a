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
	seq     uint64 // high-water: the newest context seq applied; see applyFull
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

// applyFull applies a complete versioned snapshot taken at ctxSeq,
// calling emit with each change: a put for every attribute written
// there after the high-water seq and newer than the replica's copy, and
// a delete versioned ctxSeq for every attribute live here that the
// snapshot lacks — unless it was written after ctxSeq (live events can
// overtake the snapshot's reply), when its absence says nothing. A write
// at or below the high-water is not news: the replica applied it, or it
// predates the subscription the replica was started from. So a replica
// that has applied nothing, or whose owner zeroed seq on a declared
// loss, takes every write the snapshot holds.
func (r *replica) applyFull(snap map[string]Versioned, ctxSeq uint64, emit func(Event)) {
	floor := r.seq
	for k, v := range snap {
		if v.Seq > floor && r.apply(k, v.Value, v.Seq, false) {
			emit(replayEvent(k, v.Value, v.Seq, false))
		}
	}
	for k, e := range r.entries {
		if _, ok := snap[k]; !ok && !e.dead && e.seq <= ctxSeq {
			r.entries[k] = rentry{seq: ctxSeq, dead: true}
			emit(replayEvent(k, "", ctxSeq, true))
		}
	}
	r.seq = max(r.seq, ctxSeq)
}

// replayEvent is a write a resync replays to consumers.
func replayEvent(attribute, value string, seq uint64, dead bool) Event {
	op := "put"
	if dead {
		op = "delete"
	}
	return Event{Attr: attribute, Value: value, Op: op, Seq: seq, Resync: true}
}
