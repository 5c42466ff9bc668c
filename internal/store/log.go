package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/goldrec/goldrec/internal/obs/trace"
)

// The durable log. Every append-only log the store keeps — session
// WALs and the tenant, library and event logs — is a JSONL file of
// complete records, each written together with its trailing '\n'. One
// implementation serves them all:
//
//   - One handle cache (FS.logs): an append handle opens on first use
//     and stays open until the log is rewritten, deleted or closed, or
//     a write on it fails.
//   - One tail repair (repairTail): a crash mid-append leaves at most
//     one torn final line, truncated when the next handle opens.
//   - One replay loop (replayLog): a final line without its '\n' is
//     torn and dropped; any other line that is not a JSON value is
//     corruption and an error.
//   - One append path: the group committer (groupcommit.go), or a
//     direct write under NoSync.

// errClosed is returned by every log operation after Close.
var errClosed = errors.New("store: closed")

// openLogDir names the directory of the open-mode (tenantless) library
// and event logs. It cannot collide with a real tenant id: idPattern
// rejects a leading underscore.
const openLogDir = "_open"

// logFile is one durable log's handle-cache entry.
type logFile struct {
	key  string // path relative to the root; the cache key
	path string
	// mu orders appends against replacement: an append holds the read
	// side until its records are durable (or failed), even when its
	// caller stopped waiting; RewriteLog, DeleteLog, CloseWAL and
	// compaction hold the write side, so no append can land on an inode
	// they unlink or replace.
	mu sync.RWMutex
	// retired is set under the write side of mu once the entry left
	// the cache; a locker that finds it set starts over.
	retired bool
	f       *os.File // guarded by FS.mu; nil until the first append
}

// walKey is the cache key of a session's WAL.
func walKey(datasetID, sessionID string) string {
	return "datasets/" + datasetID + "/sessions/" + sessionID + "/wal.jsonl"
}

// logKey returns the cache key of a keyed log: its file's path
// relative to the root.
func logKey(kind LogKind, id string) (string, error) {
	var dir string
	switch kind {
	case TenantLog:
		if id != "" {
			return "", fmt.Errorf("store: %s log takes no id, got %q", kind, id)
		}
		dir = string(kind)
	case LibraryLog, EventLog:
		if id == "" {
			id = openLogDir
		} else if err := checkID(id); err != nil {
			return "", err
		}
		dir = string(kind) + "/" + id
	default:
		return "", fmt.Errorf("store: unknown log kind %q", kind)
	}
	if kind == EventLog {
		return dir + "/log.jsonl", nil
	}
	return dir + "/changes.jsonl", nil
}

// lockLog returns the log's cache entry (creating it on first use)
// with mu held: the read side for an append, the write side to replace
// the file. A closed store refuses appends but still replaces and
// deletes files, through an entry it no longer caches.
func (s *FS) lockLog(key string, exclusive bool) (*logFile, error) {
	for {
		s.mu.Lock()
		if s.logs == nil && !exclusive {
			s.mu.Unlock()
			return nil, errClosed
		}
		lf := s.logs[key]
		if lf == nil {
			lf = &logFile{key: key, path: filepath.Join(s.root, key)}
			if s.logs != nil {
				s.logs[key] = lf
			}
		}
		s.mu.Unlock()
		if exclusive {
			lf.mu.Lock()
			if !lf.retired {
				return lf, nil
			}
			lf.mu.Unlock()
		} else {
			lf.mu.RLock()
			if !lf.retired {
				return lf, nil
			}
			lf.mu.RUnlock()
		}
	}
}

// replaceLog runs fn on the log's path with every append to it held
// off, then retires the cache entry: its handle closes, and the next
// append reopens whatever file fn left behind. A nil fn just closes the
// handle.
func (s *FS) replaceLog(key string, fn func(path string) error) error {
	lf, err := s.lockLog(key, true)
	if err != nil {
		return err
	}
	defer lf.mu.Unlock()
	if fn != nil {
		err = fn(lf.path)
	}
	s.retire(lf)
	return err
}

// retire removes lf from the cache and closes its handle. Caller holds
// the write side of lf.mu.
func (s *FS) retire(lf *logFile) {
	lf.retired = true
	s.mu.Lock()
	if s.logs[lf.key] == lf {
		delete(s.logs, lf.key)
	}
	s.mu.Unlock()
	s.dropHandle(lf)
}

// handle returns the log's append handle, opening it on first use.
// Caller holds lf.mu (either side).
func (s *FS) handle(lf *logFile) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logs == nil {
		return nil, errClosed
	}
	if lf.f != nil {
		return lf.f, nil
	}
	// A session WAL lives in its session's directory and must not
	// resurrect a deleted one; every other log owns its directory.
	if !strings.HasPrefix(lf.key, "datasets/") {
		if err := os.MkdirAll(filepath.Dir(lf.path), 0o755); err != nil {
			return nil, fmt.Errorf("store: %s: %w", lf.key, err)
		}
	}
	f, err := openLog(lf.path)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", lf.key, err)
	}
	lf.f = f
	return f, nil
}

// dropHandle closes the log's handle. After a failed write or fsync the
// file may end in torn bytes, and the next append must reopen it —
// repairing the tail — rather than append after them.
func (s *FS) dropHandle(lf *logFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lf.f != nil {
		lf.f.Close()
		lf.f = nil
	}
}

// openLog opens the log at path for appending, creating it if needed,
// and truncates a torn tail first — otherwise the next append would
// merge with the torn bytes into one corrupt line and take an
// acknowledged record down with it.
func openLog(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// repairTail truncates a log that does not end in a newline back to its
// last complete record. The clean case — the file ends in a newline —
// costs a one-byte read at the tail; the full read runs only on the
// torn tail a crash left, at most once per file.
func repairTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	raw := make([]byte, st.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		return err
	}
	return f.Truncate(int64(bytes.LastIndexByte(raw, '\n') + 1))
}

// replayLog streams the records of the log at key in append order.
// Every append writes whole records, each with its '\n', in one call,
// so a final line without its newline is a torn append from a crash:
// it is dropped even when its bytes parse (a truncated record can
// itself be valid JSON), exactly as repairTail will drop it. Every
// other non-blank line must be a JSON value; anything else is
// corruption and an error. A missing file replays nothing. Errors from
// fn are returned as they are.
func (s *FS) replayLog(key string, fn func(rec []byte) error) error {
	raw, err := os.ReadFile(filepath.Join(s.root, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %s: %w", key, err)
	}
	raw = raw[:bytes.LastIndexByte(raw, '\n')+1]
	for n := 1; len(raw) > 0; n++ {
		i := bytes.IndexByte(raw, '\n')
		line := raw[:i]
		raw = raw[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !json.Valid(line) {
			return fmt.Errorf("store: %s: record %d: corrupt", key, n)
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// appendLog durably appends payload — complete, newline-terminated
// records — to the log at key. Synced appends go through the group
// committer, so concurrent appends to any logs share fsyncs; NoSync
// appends write directly. The caller-side wal_append span covers the
// full durable wait; the committer's own wal_group_flush span carries
// the shared write+fsync timing on the batch leader's trace.
func (s *FS) appendLog(ctx context.Context, key string, payload []byte, records int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	lf, err := s.lockLog(key, false)
	if err != nil {
		return err
	}
	_, sp := trace.StartSpan(ctx, "wal_append")
	if records > 1 {
		sp.Annotate("records", strconv.Itoa(records))
	}
	if s.gc != nil {
		err = s.appendGrouped(ctx, lf, payload, records) // releases lf.mu
	} else {
		err = s.writeLog(lf, payload, false)
		lf.mu.RUnlock()
	}
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()
	return err
}

// writeLog writes buf to the log in one call — a single write keeps the
// torn-tail window to the records it carries — and fsyncs when sync is
// set. Caller holds lf.mu.
func (s *FS) writeLog(lf *logFile, buf []byte, sync bool) error {
	f, err := s.handle(lf)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := f.Write(buf); err != nil {
		s.dropHandle(lf)
		return fmt.Errorf("store: %s: wal append: %w", lf.key, err)
	}
	s.walAppend.ObserveSince(start)
	if !sync {
		return nil
	}
	start = time.Now()
	if err := s.syncFile(f); err != nil {
		s.dropHandle(lf)
		return fmt.Errorf("store: %s: wal sync: %w", lf.key, err)
	}
	s.walFsync.ObserveSince(start)
	return nil
}

// syncFile is the fsync of a log append, indirected through syncHook so
// crash tests can inject an fsync failure mid-batch.
func (s *FS) syncFile(f *os.File) error {
	if s.syncHook != nil {
		return s.syncHook(f)
	}
	return f.Sync()
}

// joinRecords concatenates recs into one newline-terminated payload.
func joinRecords(recs [][]byte) []byte {
	n := 0
	for _, r := range recs {
		n += len(r) + 1
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = append(append(buf, r...), '\n')
	}
	return buf
}

// AppendLog durably appends recs to the keyed log.
func (s *FS) AppendLog(kind LogKind, id string, recs ...[]byte) error {
	key, err := logKey(kind, id)
	if err != nil || len(recs) == 0 {
		return err
	}
	return s.appendLog(context.Background(), key, joinRecords(recs), len(recs))
}

// legacySnapshot names the file beside a keyed log into which older
// versions compacted it. It holds a state record: the first record of
// its log.
const legacySnapshot = "snapshot.json"

// ReplayLog streams the keyed log in append order, a leftover
// legacySnapshot first.
func (s *FS) ReplayLog(kind LogKind, id string, fn func(rec []byte) error) error {
	key, err := logKey(kind, id)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(s.root, filepath.Dir(key), legacySnapshot))
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return fmt.Errorf("store: %s: %w", key, err)
	case !json.Valid(raw):
		return fmt.Errorf("store: %s: corrupt %s", key, legacySnapshot)
	default:
		if err := fn(bytes.TrimSpace(raw)); err != nil {
			return err
		}
	}
	return s.replayLog(key, fn)
}

// RewriteLog atomically replaces the keyed log with recs, then removes
// a leftover legacySnapshot. A crash between the two replays the old
// snapshot before the new log, whose state record supersedes it.
func (s *FS) RewriteLog(kind LogKind, id string, recs [][]byte) (int64, error) {
	key, err := logKey(kind, id)
	if err != nil {
		return 0, err
	}
	payload := joinRecords(recs)
	err = s.replaceLog(key, func(path string) error {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := s.writeFileAtomic(path, payload); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(filepath.Dir(path), legacySnapshot)); !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %s rewrite: %w", key, err)
	}
	return int64(len(payload)), nil
}

// ListLogs returns every id with persisted state of the kind, sorted.
func (s *FS) ListLogs(kind LogKind) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, string(kind)))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		switch name := e.Name(); {
		case name == openLogDir:
			out = append(out, "")
		case checkID(name) == nil:
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// DeleteLog removes the keyed log's directory.
func (s *FS) DeleteLog(kind LogKind, id string) error {
	key, err := logKey(kind, id)
	if err != nil {
		return err
	}
	return s.replaceLog(key, func(path string) error {
		return os.RemoveAll(filepath.Dir(path))
	})
}
