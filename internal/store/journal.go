package store

import "encoding/json"

// compactEvery is how many records a journal's log holds before it is
// rewritten down to one state record.
const compactEvery = 64

// Journal is a keyed log that is its own snapshot. Its records are the
// caller's change records and state records: a state record carries the
// caller's whole state, and replay resets to it. Compaction rewrites
// the log to one state record (RewriteLog, one atomic rename), so the
// log never holds more than compactEvery records. The tenant registry
// and every transformation library persist through one.
//
// A Journal is not safe for concurrent use; its owner's lock guards it
// together with the state it logs.
type Journal struct {
	st   Store
	kind LogKind
	id   string
	n    int // records in the log
}

// NewJournal returns the journal of the keyed log; it counts the
// records already on disk only once Replay has read them.
func NewJournal(st Store, kind LogKind, id string) *Journal {
	return &Journal{st: st, kind: kind, id: id}
}

// Replay streams the log's records to apply in append order.
func (j *Journal) Replay(apply func(rec []byte) error) error {
	return j.st.ReplayLog(j.kind, j.id, func(rec []byte) error {
		j.n++
		return apply(rec)
	})
}

// Append durably appends the change record rec. The caller has already
// applied the change in memory and undoes it if Append fails. When the
// log then holds compactEvery records it is rewritten to the one
// record state returns, which therefore already holds the change. A
// failed rewrite leaves the log whole and is retried on the next
// append, so its error is dropped.
func (j *Journal) Append(rec any, state func() any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := j.st.AppendLog(j.kind, j.id, data); err != nil {
		return err
	}
	if j.n++; j.n >= compactEvery {
		if data, err := json.Marshal(state()); err == nil {
			if _, err := j.st.RewriteLog(j.kind, j.id, [][]byte{data}); err == nil {
				j.n = 1
			}
		}
	}
	return nil
}
