// Package store is goldrecd's durable persistence subsystem. It
// preserves the one resource the paper's budgeted-review loop treats as
// precious — the human reviewer's decisions — across service restarts
// and TTL evictions.
//
// The model is a per-dataset snapshot plus a per-session write-ahead
// log:
//
//   - A dataset snapshot captures the clustered table exactly as it was
//     ingested (version 1) or as of the last compaction (version N).
//     Snapshots are immutable once written; a new version replaces the
//     old atomically.
//   - A session WAL is an append-only record of every interaction with
//     the session's goldrec.Session, in order: one "issue" record per
//     group handed out by NextGroup and one "decide" record per
//     reviewer verdict. Because group generation is deterministic,
//     replaying the WAL over the snapshot rebuilds the in-memory
//     session — including its pending, undecided groups — exactly.
//   - Compaction folds a finished column's applied decisions into a new
//     snapshot version, archives the session's final ReviewState, and
//     deletes its WAL, bounding log growth without losing reviewable
//     history.
//
// The tenant registry, the per-tenant transformation libraries and the
// per-tenant event logs persist as keyed logs of opaque records
// (Store.AppendLog). A keyed log is its own snapshot: compaction
// rewrites it in one atomic rename, and for the registry and the
// libraries (Journal) down to one state record that replay resets to.
// Every log — session WAL or keyed — is one durable-log primitive
// underneath: one append path, one torn-tail repair, one replay loop.
//
// Two backends implement Store: Null (no-ops, for tests and stores-off
// operation) and FS (a directory tree with atomic-rename writes and
// fsynced WAL appends; see OpenFS for the layout).
package store

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"github.com/goldrec/goldrec/table"
)

// ErrNotExist is returned when a dataset or session is not in the store
// (never persisted, or deleted).
var ErrNotExist = errors.New("store: does not exist")

// DatasetMeta describes one persisted dataset.
type DatasetMeta struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	KeyCol  string    `json:"key_col"`
	Created time.Time `json:"created"`
	// Owner is the id of the tenant the dataset belongs to ("" = the
	// dataset was created in open mode and belongs to no tenant).
	Owner string `json:"owner,omitempty"`
}

// SessionMeta describes one persisted column session.
type SessionMeta struct {
	ID        string    `json:"id"`
	DatasetID string    `json:"dataset_id"`
	Column    string    `json:"column"`
	Created   time.Time `json:"created"`
	// Compacted marks a finished session whose decisions were folded
	// into the dataset snapshot; its WAL is gone and its final
	// ReviewState is archived (LoadSessionState).
	Compacted bool `json:"compacted,omitempty"`
	// Owner mirrors the owning dataset's Owner so a session lookup by
	// id (FindSession) can enforce tenant visibility in one read.
	Owner string `json:"owner,omitempty"`
}

// WALOp is the kind of one WAL record.
type WALOp string

const (
	// OpIssue records that NextGroup handed out one more group. Issue
	// records carry the group id, which is the group's issue index
	// (goldrec's Session.issue assigns it), so replay's id check only
	// catches an issue record missing or out of sequence in the log,
	// never a regenerated group that differs from the one first
	// issued. Replay trusts the engine to issue the same groups in the
	// same order; the root package's TestGroupSequenceDigest guards
	// that determinism.
	OpIssue WALOp = "issue"
	// OpDecide records a reviewer verdict on an issued group.
	OpDecide WALOp = "decide"
	// OpWarm records the warm-start context a session was built with:
	// the library priors offered to the engine, frozen at open time.
	// It is always the first record of a session's log (absent for
	// cold sessions). Replay rebuilds the engine from this record, not
	// from the live library — the library keeps learning after the
	// session opens, and group generation must replay byte-identically
	// regardless.
	OpWarm WALOp = "warm"
)

// WALRecord is one entry of a session's decision log. Records are
// replayed in append order; the interleaving of issues and decides
// matters because applied decisions change which groups are generated
// next.
type WALRecord struct {
	Op      WALOp `json:"op"`
	GroupID int   `json:"group"`
	// Decision is the goldrec.Decision string form ("approve",
	// "approve-backward", "reject"); empty for issue records.
	Decision string `json:"decision,omitempty"`
	// Warm is the serialized warm-start context of an OpWarm record
	// (the service owns its encoding); empty otherwise.
	Warm json.RawMessage `json:"warm,omitempty"`
}

// LogKind names a family of keyed logs (see Store.AppendLog). Its
// value is also the family's directory under the FS root.
type LogKind string

const (
	// TenantLog is the tenant registry's change log (one log, no id).
	TenantLog LogKind = "tenants"
	// LibraryLog is a tenant's transformation-library change log.
	LibraryLog LogKind = "libraries"
	// EventLog is a tenant's audit/event log, bounded by RewriteLog
	// retention compaction.
	EventLog LogKind = "events"
)

// Store persists datasets and session review logs. Implementations must
// be safe for concurrent use; goldrecd appends to distinct session WALs
// from concurrent goroutines.
type Store interface {
	// PutDataset writes the dataset's meta and its version-1 snapshot.
	// It is called once, at upload time, before any session can mutate
	// the dataset. The context carries the request's trace span (if
	// any); backends never use it for cancellation — a durability write
	// must not be torn by a disconnecting client.
	PutDataset(ctx context.Context, meta DatasetMeta, ds *table.Dataset) error
	// LoadDataset returns the meta and the latest snapshot.
	LoadDataset(id string) (DatasetMeta, *table.Dataset, error)
	// ListDatasets returns every persisted dataset's meta, oldest first.
	ListDatasets() ([]DatasetMeta, error)
	// DeleteDataset removes the dataset, its snapshots and all its
	// sessions. Deleting a missing dataset is not an error.
	DeleteDataset(id string) error

	// PutSession writes (or overwrites) a session's meta.
	PutSession(meta SessionMeta) error
	// ListSessions returns the dataset's persisted sessions, oldest
	// first.
	ListSessions(datasetID string) ([]SessionMeta, error)
	// FindSession resolves a session id to its meta without knowing the
	// dataset id.
	FindSession(sessionID string) (SessionMeta, error)
	// DeleteSession removes one session's meta, WAL and archived state.
	// Deleting a missing session is not an error.
	DeleteSession(datasetID, sessionID string) error

	// AppendWAL durably appends recs to the session's log, in order,
	// as one write and (at most) one fsync. The records must be on
	// stable storage (or as close as the backend promises; see
	// FSOptions.NoSync) when the call returns. All-or-nothing
	// acknowledgment: a nil return means every record is durable; an
	// error means the caller must assume none are (a crash mid-batch
	// leaves a clean prefix, which ReplayWAL returns). Unlike
	// PutDataset, the context also cancels: a caller that is gone gets
	// ctx.Err() back promptly instead of waiting out a group-commit
	// flush. Cancellation abandons the wait, not the write — a
	// record already handed to the committer may still become durable.
	AppendWAL(ctx context.Context, datasetID, sessionID string, recs ...WALRecord) error
	// ReplayWAL streams the session's log in append order. A torn final
	// record (from a crash mid-append) is silently dropped; corruption
	// anywhere else is an error. A missing WAL replays zero records.
	ReplayWAL(ctx context.Context, datasetID, sessionID string, fn func(WALRecord) error) error
	// CloseWAL releases any cached handle for the session's log, e.g.
	// when the owning session is evicted. Appending later reopens it.
	CloseWAL(datasetID, sessionID string) error

	// CompactSession folds a finished session into the dataset: column
	// col of the latest snapshot is replaced with values (indexed
	// [cluster][row]), the session's final ReviewState is archived as
	// state, its WAL is deleted and its meta marked Compacted.
	CompactSession(datasetID, sessionID string, col int, values [][]string, state []byte) error
	// LoadSessionState returns the archived ReviewState of a compacted
	// session.
	LoadSessionState(datasetID, sessionID string) ([]byte, error)

	// Keyed logs. The tenant registry, each tenant's transformation
	// library and each tenant's audit/event log persist as an
	// append-only log of opaque JSON records, with the payload encoding
	// owned by the caller (internal/tenant, internal/library,
	// internal/events). A keyed log is its own snapshot: compaction
	// rewrites it (RewriteLog), the registry and the libraries down to
	// one state record through a Journal, the event logs to their
	// retained tail. A log is named by its kind and a tenant id ("" =
	// the open-mode log; TenantLog takes no id). Appends share the
	// session WALs' durability promise and group commit.

	// AppendLog durably appends recs, each one complete JSON value, to
	// the log in order, as one write and (at most) one fsync. An empty
	// append is a no-op.
	AppendLog(kind LogKind, id string, recs ...[]byte) error
	// ReplayLog streams the log in append order. A torn final record is
	// dropped; corruption anywhere else is an error; a missing log
	// replays nothing.
	ReplayLog(kind LogKind, id string, fn func(rec []byte) error) error
	// RewriteLog atomically replaces the log with recs (compaction),
	// returning the new size in bytes.
	RewriteLog(kind LogKind, id string, recs [][]byte) (int64, error)
	// ListLogs returns every id with persisted state of the kind,
	// sorted; the open-mode log lists as "".
	ListLogs(kind LogKind) ([]string, error)
	// DeleteLog removes the log. Deleting a missing log is not an
	// error.
	DeleteLog(kind LogKind, id string) error

	// Close releases backend resources (open WAL handles). The store is
	// unusable afterwards.
	Close() error
}

// Null is the no-op backend: writes vanish, reads find nothing. It is
// the store of record for tests and for goldrecd without -data-dir,
// where eviction means deletion exactly as before persistence existed.
type Null struct{}

var _ Store = Null{}

func (Null) PutDataset(context.Context, DatasetMeta, *table.Dataset) error { return nil }
func (Null) LoadDataset(string) (DatasetMeta, *table.Dataset, error) {
	return DatasetMeta{}, nil, ErrNotExist
}
func (Null) ListDatasets() ([]DatasetMeta, error) { return nil, nil }
func (Null) DeleteDataset(string) error           { return nil }

func (Null) PutSession(SessionMeta) error               { return nil }
func (Null) ListSessions(string) ([]SessionMeta, error) { return nil, nil }
func (Null) FindSession(string) (SessionMeta, error)    { return SessionMeta{}, ErrNotExist }
func (Null) DeleteSession(string, string) error         { return nil }

// AppendWAL honors cancellation even though the write itself is free:
// callers rely on every backend returning ctx.Err() promptly once the
// request is gone, and the Null backend must not be the one that hides
// a leaked-context bug until production runs on FS.
func (Null) AppendWAL(ctx context.Context, _, _ string, _ ...WALRecord) error { return ctx.Err() }
func (Null) ReplayWAL(context.Context, string, string, func(WALRecord) error) error {
	return nil
}
func (Null) CloseWAL(string, string) error { return nil }

func (Null) CompactSession(string, string, int, [][]string, []byte) error { return nil }
func (Null) LoadSessionState(string, string) ([]byte, error)              { return nil, ErrNotExist }

func (Null) AppendLog(LogKind, string, ...[]byte) error          { return nil }
func (Null) ReplayLog(LogKind, string, func([]byte) error) error { return nil }
func (Null) RewriteLog(LogKind, string, [][]byte) (int64, error) { return 0, nil }
func (Null) ListLogs(LogKind) ([]string, error)                  { return nil, nil }
func (Null) DeleteLog(LogKind, string) error                     { return nil }

func (Null) Close() error { return nil }
