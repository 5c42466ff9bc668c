package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/table"
)

// FSOptions configure the filesystem backend.
type FSOptions struct {
	// NoSync skips the fsync after every log append. Appends become
	// OS-buffered: much faster, but a host crash (not just a process
	// crash) can lose the tail of the log. Process crashes lose nothing
	// either way. Snapshots and metas are always fsynced — they are
	// rare, whole-file writes whose loss would cost far more than one
	// log record.
	NoSync bool
	// Metrics receives durability-path latency histograms (WAL append
	// write and fsync, group-flush latency and batch size, snapshot
	// writes, WAL replay). Nil disables instrumentation at zero cost.
	Metrics *obs.Registry
}

// walBuckets resolve the WAL hot path: the write syscall is tens of
// microseconds, a disk fsync hundreds of microseconds to tens of
// milliseconds.
var walBuckets = []float64{0.000025, 0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096}

// FS is the filesystem backend. The layout under the root is one
// directory per dataset holding its meta, versioned snapshots, and one
// directory per session, plus one directory per keyed-log family:
//
//	<root>/datasets/<ds_id>/
//	    meta.json                 dataset meta (atomic rename)
//	    snapshot-000001.json      versioned snapshots; highest wins,
//	                              older versions are pruned
//	    sessions/<cs_id>/
//	        meta.json             session meta (atomic rename)
//	        wal.jsonl             append-only decision log, one JSON
//	                              record per line
//	        state.json            archived ReviewState (after compaction)
//	<root>/tenants/
//	    changes.jsonl             tenant-registry journal: change records
//	                              after at most one leading state record
//	                              (the whole registry); compaction
//	                              rewrites it to one state record
//	<root>/libraries/<tenant>/
//	    changes.jsonl             transformation-library journal, the
//	                              same shape
//	<root>/events/<tenant>/
//	    log.jsonl                 append-only audit/event log, bounded by
//	                              retention rewrites
//
// <tenant> is the tenant id; the open-mode library and event log live
// under "_open". A snapshot.json beside a journal, where older versions
// compacted it, replays as the journal's first record until the next
// compaction removes it. Every non-append write lands in a temp file
// first and is renamed into place, so readers never observe a partial
// meta, snapshot or rewritten log. Every .jsonl file is a durable log
// (log.go): appends are O_APPEND single writes followed by fsync
// (unless NoSync), and a crash mid-append leaves at most one torn final
// line, which replay drops.
type FS struct {
	root string
	opts FSOptions

	mu sync.Mutex
	// logs is the handle cache of every durable log, keyed by path
	// relative to the root (nil once closed).
	logs map[string]*logFile
	// dsMu serializes snapshot read-modify-write cycles per dataset:
	// without it, two sessions compacting concurrently would both write
	// the same next snapshot version and one session's fold would be
	// silently overwritten.
	dsMu map[string]*sync.Mutex

	// gc is the group committer (nil under NoSync: unsynced appends
	// have nothing to amortize and skip the rendezvous entirely).
	gc        *groupCommitter
	closeOnce sync.Once
	// syncHook, when set, replaces f.Sync() on the append path; crash
	// tests inject fsync failures through it.
	syncHook func(*os.File) error

	// Durability-path histograms (nil handles no-op when FSOptions.Metrics
	// is unset).
	walAppend       *obs.Histogram
	walFsync        *obs.Histogram
	walGroupFlush   *obs.Histogram
	walGroupRecords *obs.Histogram
	snapWrite       *obs.Histogram
	walReplay       *obs.Histogram
}

// datasetLock returns the dataset's snapshot-writer mutex.
func (s *FS) datasetLock(dsID string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dsMu == nil {
		s.dsMu = make(map[string]*sync.Mutex)
	}
	if m, ok := s.dsMu[dsID]; ok {
		return m
	}
	m := &sync.Mutex{}
	s.dsMu[dsID] = m
	return m
}

var _ Store = (*FS)(nil)

// OpenFS opens (creating if needed) a filesystem store rooted at dir.
func OpenFS(dir string, opts FSOptions) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "datasets"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	m := opts.Metrics
	s := &FS{
		root: dir,
		opts: opts,
		logs: make(map[string]*logFile),
		walAppend: m.NewHistogram("goldrec_store_wal_append_seconds",
			"Durable-log append write latency, every log (the write syscall, excluding fsync).", walBuckets).Histogram(),
		walFsync: m.NewHistogram("goldrec_store_wal_fsync_seconds",
			"Durable-log fsync latency, every log (absent under -store-nosync).", walBuckets).Histogram(),
		walGroupFlush: m.NewHistogram("goldrec_store_wal_group_flush_seconds",
			"Group-commit flush latency (write + fsync for every log file in the batch).", walBuckets).Histogram(),
		walGroupRecords: m.NewHistogram("goldrec_store_wal_group_records",
			"Log records made durable per group-commit flush (1 = no coalescing).", walGroupRecordBuckets).Histogram(),
		snapWrite: m.NewHistogram("goldrec_store_snapshot_write_seconds",
			"Dataset snapshot write latency (marshal excluded, fsync+rename included).", nil).Histogram(),
		walReplay: m.NewHistogram("goldrec_store_wal_replay_seconds",
			"Per-session WAL replay latency during recovery or restore.", nil).Histogram(),
	}
	if !opts.NoSync {
		s.startCommitter()
	}
	return s, nil
}

// idPattern matches the registry's opaque ids ("ds_9f86d081884c7d65").
// Ids become path components, so anything else is rejected outright.
var idPattern = regexp.MustCompile(`^[a-z]+_[0-9a-f]+$`)

func checkID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("store: invalid id %q", id)
	}
	return nil
}

// checkLookupID is checkID for read paths keyed by caller-supplied ids
// (LoadDataset, FindSession): an id the store could never contain is a
// miss, not an internal failure, so the error wraps ErrNotExist and the
// service maps it to 404 instead of 500.
func checkLookupID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("store: invalid id %q: %w", id, ErrNotExist)
	}
	return nil
}

func (s *FS) datasetDir(dsID string) string {
	return filepath.Join(s.root, "datasets", dsID)
}

func (s *FS) sessionDir(dsID, csID string) string {
	return filepath.Join(s.datasetDir(dsID), "sessions", csID)
}

// writeFileAtomic writes data to path via a temp file + rename, always
// fsyncing the file and its directory (NoSync covers log appends only).
func (s *FS) writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives a host crash. Errors
// are ignored: some filesystems refuse directory fsync and the rename
// itself already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// snapshot is the on-disk snapshot document. Folded is the commit
// record for compaction: a session listed there had its decisions
// folded into this version's cell values, so recovery must never replay
// its WAL (a leftover wal.jsonl from a crash mid-compaction is dormant
// garbage, not state).
type snapshot struct {
	Version int            `json:"version"`
	Folded  []string       `json:"folded,omitempty"`
	Dataset *table.Dataset `json:"dataset"`
}

// snapshotHeader decodes a snapshot's bookkeeping without building the
// dataset.
type snapshotHeader struct {
	Version int      `json:"version"`
	Folded  []string `json:"folded"`
}

// readFolded returns the folded-session set of the dataset's latest
// snapshot (empty when there is none).
func readFolded(dsDir string) (map[string]bool, error) {
	_, path, err := latestSnapshot(dsDir)
	if err != nil || path == "" {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h snapshotHeader
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot %s: %w", filepath.Base(path), err)
	}
	out := make(map[string]bool, len(h.Folded))
	for _, id := range h.Folded {
		out[id] = true
	}
	return out, nil
}

var snapshotPattern = regexp.MustCompile(`^snapshot-(\d{6})\.json$`)

// latestSnapshot returns the highest snapshot version present in dir
// (0 when none).
func latestSnapshot(dir string) (version int, path string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", err
	}
	for _, e := range entries {
		m := snapshotPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, _ := strconv.Atoi(m[1])
		if v > version {
			version, path = v, filepath.Join(dir, e.Name())
		}
	}
	return version, path, nil
}

func snapshotPath(dir string, version int) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%06d.json", version))
}

// pruneSnapshots removes every snapshot version below keep.
func pruneSnapshots(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		m := snapshotPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if v, _ := strconv.Atoi(m[1]); v < keep {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// PutDataset writes the dataset meta and its version-1 snapshot.
func (s *FS) PutDataset(ctx context.Context, meta DatasetMeta, ds *table.Dataset) error {
	if err := checkID(meta.ID); err != nil {
		return err
	}
	dir := s.datasetDir(meta.ID)
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return fmt.Errorf("store: dataset %s: %w", meta.ID, err)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	snapJSON, err := json.Marshal(snapshot{Version: 1, Dataset: ds})
	if err != nil {
		return err
	}
	start := time.Now()
	_, snapSpan := trace.StartSpan(ctx, "snapshot_write")
	snapSpan.Annotate("bytes", strconv.Itoa(len(snapJSON)))
	if err := s.writeFileAtomic(snapshotPath(dir, 1), snapJSON); err != nil {
		snapSpan.Fail(err.Error())
		snapSpan.End()
		return fmt.Errorf("store: dataset %s snapshot: %w", meta.ID, err)
	}
	snapSpan.End()
	s.snapWrite.ObserveSince(start)
	if err := s.writeFileAtomic(filepath.Join(dir, "meta.json"), metaJSON); err != nil {
		return fmt.Errorf("store: dataset %s meta: %w", meta.ID, err)
	}
	return nil
}

// LoadDataset returns the meta and the latest snapshot.
func (s *FS) LoadDataset(id string) (DatasetMeta, *table.Dataset, error) {
	if err := checkLookupID(id); err != nil {
		return DatasetMeta{}, nil, err
	}
	dir := s.datasetDir(id)
	meta, err := readMeta[DatasetMeta](filepath.Join(dir, "meta.json"))
	if err != nil {
		return DatasetMeta{}, nil, err
	}
	_, path, err := latestSnapshot(dir)
	if err != nil {
		return DatasetMeta{}, nil, fmt.Errorf("store: dataset %s: %w", id, err)
	}
	if path == "" {
		return DatasetMeta{}, nil, fmt.Errorf("store: dataset %s has no snapshot: %w", id, ErrNotExist)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return DatasetMeta{}, nil, fmt.Errorf("store: dataset %s: %w", id, err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return DatasetMeta{}, nil, fmt.Errorf("store: dataset %s: corrupt snapshot %s: %w", id, filepath.Base(path), err)
	}
	if snap.Dataset == nil {
		return DatasetMeta{}, nil, fmt.Errorf("store: dataset %s: snapshot %s has no dataset", id, filepath.Base(path))
	}
	return meta, snap.Dataset, nil
}

// readMeta loads a meta.json, mapping a missing file to ErrNotExist.
func readMeta[M any](path string) (M, error) {
	var meta M
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return meta, fmt.Errorf("%s: %w", path, ErrNotExist)
	}
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return meta, fmt.Errorf("store: corrupt meta %s: %w", path, err)
	}
	return meta, nil
}

// ListDatasets returns every persisted dataset's meta, oldest first.
func (s *FS) ListDatasets() ([]DatasetMeta, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		return nil, err
	}
	var out []DatasetMeta
	for _, e := range entries {
		if !e.IsDir() || checkID(e.Name()) != nil {
			continue
		}
		meta, err := readMeta[DatasetMeta](filepath.Join(s.datasetDir(e.Name()), "meta.json"))
		if err != nil {
			// Missing (crash mid-Put) or corrupt: skip rather than fail
			// the listing — one bad entry must not make every healthy
			// dataset unlistable (and unrecoverable at boot).
			continue
		}
		out = append(out, meta)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// DeleteDataset removes the dataset, its snapshots and all its sessions.
func (s *FS) DeleteDataset(id string) error {
	if err := checkID(id); err != nil {
		return err
	}
	lock := s.datasetLock(id)
	lock.Lock()
	defer lock.Unlock()
	s.mu.Lock()
	prefix := "datasets/" + id + "/"
	var keys []string
	for key := range s.logs {
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	delete(s.dsMu, id)
	s.mu.Unlock()
	for _, key := range keys {
		s.replaceLog(key, nil)
	}
	return os.RemoveAll(s.datasetDir(id))
}

// PutSession writes (or overwrites) a session's meta.
func (s *FS) PutSession(meta SessionMeta) error {
	if err := checkID(meta.DatasetID); err != nil {
		return err
	}
	if err := checkID(meta.ID); err != nil {
		return err
	}
	dir := s.sessionDir(meta.DatasetID, meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: session %s: %w", meta.ID, err)
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return s.writeFileAtomic(filepath.Join(dir, "meta.json"), raw)
}

// ListSessions returns the dataset's persisted sessions, oldest first.
func (s *FS) ListSessions(datasetID string) ([]SessionMeta, error) {
	if err := checkID(datasetID); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(s.datasetDir(datasetID), "sessions"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	folded, err := readFolded(s.datasetDir(datasetID))
	if err != nil {
		return nil, err
	}
	var out []SessionMeta
	for _, e := range entries {
		if !e.IsDir() || checkID(e.Name()) != nil {
			continue
		}
		meta, err := readMeta[SessionMeta](filepath.Join(s.sessionDir(datasetID, e.Name()), "meta.json"))
		if err != nil {
			// Missing or corrupt: skip, as in ListDatasets.
			continue
		}
		// The snapshot's folded set, not the meta flag, is compaction's
		// commit record; overlay it so a crash between the snapshot
		// write and the meta flip still reads as compacted.
		if folded[meta.ID] {
			meta.Compacted = true
		}
		out = append(out, meta)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// FindSession scans the datasets for a session id. The scan is linear in
// the number of persisted datasets; goldrecd only calls it on a registry
// miss (a passivated session's first touch).
func (s *FS) FindSession(sessionID string) (SessionMeta, error) {
	if err := checkLookupID(sessionID); err != nil {
		return SessionMeta{}, err
	}
	datasets, err := s.ListDatasets()
	if err != nil {
		return SessionMeta{}, err
	}
	for _, d := range datasets {
		meta, err := readMeta[SessionMeta](filepath.Join(s.sessionDir(d.ID, sessionID), "meta.json"))
		if err != nil {
			continue // missing here, or corrupt: keep scanning
		}
		if !meta.Compacted {
			folded, err := readFolded(s.datasetDir(d.ID))
			if err != nil {
				return SessionMeta{}, err
			}
			if folded[meta.ID] {
				meta.Compacted = true
			}
		}
		return meta, nil
	}
	return SessionMeta{}, fmt.Errorf("store: session %s: %w", sessionID, ErrNotExist)
}

// DeleteSession removes one session's meta, WAL and archived state.
func (s *FS) DeleteSession(datasetID, sessionID string) error {
	if err := checkID(datasetID); err != nil {
		return err
	}
	if err := checkID(sessionID); err != nil {
		return err
	}
	return s.replaceLog(walKey(datasetID, sessionID), func(string) error {
		return os.RemoveAll(s.sessionDir(datasetID, sessionID))
	})
}

// AppendWAL durably appends recs to the session's log with one write
// and one fsync. The concatenated batch is still a sequence of complete
// lines, so a crash mid-batch leaves a clean prefix plus at most one
// torn record — exactly what ReplayWAL already tolerates.
func (s *FS) AppendWAL(ctx context.Context, datasetID, sessionID string, recs ...WALRecord) error {
	if err := checkID(datasetID); err != nil {
		return err
	}
	if err := checkID(sessionID); err != nil {
		return err
	}
	if len(recs) == 0 {
		return ctx.Err()
	}
	var payload []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if payload == nil {
			payload = line // the common single record appends in place
		} else {
			payload = append(payload, line...)
		}
		payload = append(payload, '\n')
	}
	return s.appendLog(ctx, walKey(datasetID, sessionID), payload, len(recs))
}

// ReplayWAL streams the session's log in append order.
func (s *FS) ReplayWAL(ctx context.Context, datasetID, sessionID string, fn func(WALRecord) error) error {
	if err := checkID(datasetID); err != nil {
		return err
	}
	if err := checkID(sessionID); err != nil {
		return err
	}
	_, rsp := trace.StartSpan(ctx, "wal_replay")
	defer rsp.End()
	defer s.walReplay.ObserveSince(time.Now())
	return s.replayLog(walKey(datasetID, sessionID), func(line []byte) error {
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("store: session %s wal: corrupt record: %w", sessionID, err)
		}
		return fn(rec)
	})
}

// CloseWAL releases the cached handle for the session's log.
func (s *FS) CloseWAL(datasetID, sessionID string) error {
	if err := checkID(datasetID); err != nil {
		return err
	}
	if err := checkID(sessionID); err != nil {
		return err
	}
	return s.replaceLog(walKey(datasetID, sessionID), nil)
}

// CompactSession folds a finished session into the dataset snapshot.
func (s *FS) CompactSession(datasetID, sessionID string, col int, values [][]string, state []byte) error {
	if err := checkID(datasetID); err != nil {
		return err
	}
	if err := checkID(sessionID); err != nil {
		return err
	}
	lock := s.datasetLock(datasetID)
	lock.Lock()
	defer lock.Unlock()
	dsDir := s.datasetDir(datasetID)
	version, path, err := latestSnapshot(dsDir)
	if err != nil || path == "" {
		return fmt.Errorf("store: dataset %s: no snapshot to compact into: %w", datasetID, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil || snap.Dataset == nil {
		return fmt.Errorf("store: dataset %s: corrupt snapshot %s: %v", datasetID, filepath.Base(path), err)
	}
	ds := snap.Dataset
	if col < 0 || col >= len(ds.Attrs) {
		return fmt.Errorf("store: dataset %s: compact column %d out of range", datasetID, col)
	}
	if len(values) != len(ds.Clusters) {
		return fmt.Errorf("store: dataset %s: compact values cover %d clusters, snapshot has %d",
			datasetID, len(values), len(ds.Clusters))
	}
	for ci := range ds.Clusters {
		recs := ds.Clusters[ci].Records
		if len(values[ci]) != len(recs) {
			return fmt.Errorf("store: dataset %s: compact cluster %d has %d values, snapshot has %d records",
				datasetID, ci, len(values[ci]), len(recs))
		}
		for ri := range recs {
			recs[ri].Values[col] = values[ci][ri]
		}
	}
	snap.Version = version + 1
	if !containsString(snap.Folded, sessionID) {
		snap.Folded = append(snap.Folded, sessionID)
		sort.Strings(snap.Folded)
	}
	out, err := json.Marshal(snap)
	if err != nil {
		return err
	}

	// Ordering is the crash-safety argument. (1) Archive the final
	// ReviewState; an orphan state.json is inert. (2) Land the new
	// snapshot — this is the commit point: the folded set now names this
	// session, so recovery serves the archive and ignores the WAL no
	// matter what survives below. (3) Drop the WAL. (4) Flip the meta (a
	// read-fast-path duplicate of the folded set). (5) Prune obsolete
	// snapshot versions.
	//
	// Steps 3-5 are best-effort: once the snapshot committed, reporting
	// an error would make the caller treat the fold as failed and keep
	// the session decidable — but recovery would honor the folded set
	// and silently discard those later decisions. A lingering WAL or
	// stale meta, by contrast, is dormant garbage the folded-set overlay
	// already neutralizes.
	sessDir := s.sessionDir(datasetID, sessionID)
	if state != nil {
		if err := s.writeFileAtomic(filepath.Join(sessDir, "state.json"), state); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := s.writeFileAtomic(snapshotPath(dsDir, snap.Version), out); err != nil {
		return err
	}
	s.snapWrite.ObserveSince(start)
	s.replaceLog(walKey(datasetID, sessionID), func(path string) error {
		os.Remove(path)
		return nil
	})
	if meta, err := readMeta[SessionMeta](filepath.Join(sessDir, "meta.json")); err == nil {
		meta.Compacted = true
		if metaJSON, err := json.Marshal(meta); err == nil {
			s.writeFileAtomic(filepath.Join(sessDir, "meta.json"), metaJSON)
		}
	}
	pruneSnapshots(dsDir, snap.Version)
	return nil
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// LoadSessionState returns the archived ReviewState of a compacted
// session.
func (s *FS) LoadSessionState(datasetID, sessionID string) ([]byte, error) {
	if err := checkID(datasetID); err != nil {
		return nil, err
	}
	if err := checkID(sessionID); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(s.sessionDir(datasetID, sessionID), "state.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: session %s state: %w", sessionID, ErrNotExist)
	}
	return raw, err
}

// Close releases every open log handle.
func (s *FS) Close() error {
	// Stop the committer before invalidating handles: in-flight batches
	// finish flushing, requests still at the rendezvous fail cleanly,
	// and no flusher goroutine survives to race the handle close below.
	s.stopCommitter()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, lf := range s.logs {
		if lf.f == nil {
			continue
		}
		if err := lf.f.Close(); err != nil && first == nil {
			first = err
		}
		lf.f = nil
	}
	s.logs = nil
	return first
}
