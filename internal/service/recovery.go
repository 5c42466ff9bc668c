package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/table"
)

// Recover reloads every persisted dataset and session from the store,
// rebuilding the registries exactly as they were: finished (compacted)
// sessions come back serving their archived ReviewState, mid-review
// sessions replay their WAL over the dataset snapshot in the background
// and then resume generating groups. goldrecd calls this once at boot,
// before serving traffic; datasets that fail to restore are logged and
// skipped so one corrupt entry cannot hold the whole service down.
//
// Recovery is parallel across registry shards: datasets are partitioned
// by the shard their id hashes to and one goroutine per shard replays
// its datasets' snapshots and WALs, serialized only by that shard's
// restore lock. The resulting state is identical for any shard count —
// restores of distinct datasets are independent.
func (s *Service) Recover() (datasets, sessions int, err error) {
	metas, err := s.store.ListDatasets()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: listing datasets: %v", ErrStorage, err)
	}
	byShard := make([][]store.DatasetMeta, s.datasets.numShards())
	for _, m := range metas {
		i := s.datasets.shardIndex(m.ID)
		byShard[i] = append(byShard[i], m)
	}
	var (
		wg       sync.WaitGroup
		nDataset atomic.Int64
		nSession atomic.Int64
	)
	for _, shard := range byShard {
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func(metas []store.DatasetMeta) {
			defer wg.Done()
			for _, m := range metas {
				_, n, err := s.restoreDataset(m.ID)
				if err != nil {
					s.opts.Logf("recover: dataset %s: %v", m.ID, err)
					continue
				}
				nDataset.Add(1)
				nSession.Add(int64(n))
			}
		}(shard)
	}
	wg.Wait()
	return int(nDataset.Load()), int(nSession.Load()), nil
}

// restoreDataset rebuilds one dataset (and all its sessions) from the
// store, registering them under their persisted ids. Concurrent misses
// on the same dataset serialize on its shard's restore lock; losers
// find it live and return early. Datasets on distinct shards restore in
// parallel.
func (s *Service) restoreDataset(id string) (*dataset, int, error) {
	mu := &s.restoreMu[s.datasets.shardIndex(id)]
	mu.Lock()
	defer mu.Unlock()
	if d, ok := s.datasets.get(id); ok {
		return d, 0, nil
	}
	if err := s.alive(); err != nil {
		return nil, 0, err
	}
	meta, ds, err := s.store.LoadDataset(id)
	if errors.Is(err, store.ErrNotExist) {
		return nil, 0, fmt.Errorf("dataset %s: %w", id, ErrNotFound)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: loading dataset %s: %v", ErrStorage, id, err)
	}
	cons, err := goldrec.New(ds)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: dataset %s snapshot invalid: %v", ErrStorage, id, err)
	}
	d := &dataset{
		id:      meta.ID,
		created: meta.Created,
		keyCol:  meta.KeyCol,
		owner:   meta.Owner,
		cons:    cons,
		columns: make(map[int]string),
	}
	if !s.datasets.addWithID(meta.ID, d) {
		// Unreachable under restoreMu; treat as already-live.
		d, _ := s.datasets.get(meta.ID)
		return d, 0, nil
	}

	sessionMetas, err := s.store.ListSessions(id)
	if err != nil {
		s.opts.Logf("dataset %s: listing sessions: %v", id, err)
	}
	restored := 0
	for _, sm := range sessionMetas {
		if err := s.restoreSession(d, sm); err != nil {
			s.opts.Logf("session %s: restore failed: %v", sm.ID, err)
			continue
		}
		restored++
	}
	s.opts.Logf("dataset %s: restored %q (%d clusters, %d records, %d session(s))",
		id, ds.Name, len(ds.Clusters), ds.NumRecords(), restored)
	return d, restored, nil
}

// restoreSession re-registers one persisted session. Compacted sessions
// restore synchronously from their archived ReviewState; mid-review
// sessions start a background generator that replays the WAL before
// publishing the session (status "initializing" until then, exactly
// like a freshly opened session).
func (s *Service) restoreSession(d *dataset, sm store.SessionMeta) error {
	col := d.cons.Dataset().ColumnIndex(sm.Column)
	if col < 0 {
		return fmt.Errorf("dataset %s has no column %q", d.id, sm.Column)
	}
	// The session takes the dataset's owner, not the meta's: the two
	// only diverge for metas written before tenancy existed, which have
	// no owner at all.
	cs := newColumnSession(d, sm.ID, sm.Column, col, s.opts.Prefetch)
	if sm.Compacted {
		raw, err := s.store.LoadSessionState(d.id, sm.ID)
		if err != nil {
			return fmt.Errorf("loading archived state: %w", err)
		}
		st := &goldrec.ReviewState{}
		if err := json.Unmarshal(raw, st); err != nil {
			return fmt.Errorf("archived state corrupt: %w", err)
		}
		cs.archived = st
		cs.stats = st.Stats
		cs.compacted = true
		cs.exhausted = true
	} else {
		cs.resume = true
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Restored sessions bypass MaxSessions: they were admitted once and
	// refusing them now would turn a restart into data the reviewer can
	// see but never touch.
	if !s.sessions.addWithID(sm.ID, cs) {
		s.mu.Unlock()
		return fmt.Errorf("session id %s already live", sm.ID)
	}
	d.mu.Lock()
	d.columns[col] = sm.ID
	d.mu.Unlock()
	s.mu.Unlock()

	if cs.resume {
		// Recovery has no originating request: the replay runs untraced.
		go s.generate(context.Background(), cs)
	}
	return nil
}

// replay rebuilds the session's state by re-executing its WAL: issue
// records re-derive groups through NextGroup (deterministic), decide
// records re-apply the recorded verdicts. It returns the groups that
// were issued but undecided at the time of passivation — the restored
// pending buffer. The session is not yet published, so no lock is held;
// applyMu still orders the replayed applies against exports.
func (s *Service) replay(ctx context.Context, cs *columnSession, sess *goldrec.Session) ([]*goldrec.Group, error) {
	var pending []*goldrec.Group
	err := s.store.ReplayWAL(ctx, cs.datasetID, cs.id, func(rec store.WALRecord) error {
		switch rec.Op {
		case store.OpWarm:
			// Already consumed: the engine was built from this record
			// (loadWarmRecord) before replay began, and its groups came
			// pre-decided out of the session build.
			return nil
		case store.OpIssue:
			g, ok := sess.NextGroupCtx(ctx)
			if !ok {
				return fmt.Errorf("issue record %d: group stream exhausted early", rec.GroupID)
			}
			if g.ID != rec.GroupID {
				return fmt.Errorf("issue record mismatch: regenerated group %d, log says %d", g.ID, rec.GroupID)
			}
			pending = append(pending, g)
			return nil
		case store.OpDecide:
			d, err := goldrec.ParseDecision(rec.Decision)
			if err != nil {
				return err
			}
			cs.d.applyMu.RLock()
			_, err = sess.Decide(rec.GroupID, d)
			cs.d.applyMu.RUnlock()
			if err != nil {
				return fmt.Errorf("decide record: %w", err)
			}
			for i, g := range pending {
				if g.ID == rec.GroupID {
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown WAL op %q", rec.Op)
		}
	})
	if err != nil {
		return nil, err
	}
	return pending, nil
}

// columnValues copies one column's cell values, indexed [cluster][row].
func columnValues(ds *table.Dataset, col int) [][]string {
	out := make([][]string, len(ds.Clusters))
	for ci := range ds.Clusters {
		recs := ds.Clusters[ci].Records
		vals := make([]string, len(recs))
		for ri := range recs {
			vals[ri] = recs[ri].Values[col]
		}
		out[ci] = vals
	}
	return out
}

// setColumnValues restores one column's cell values from a
// columnValues copy.
func setColumnValues(ds *table.Dataset, col int, values [][]string) {
	for ci := range ds.Clusters {
		recs := ds.Clusters[ci].Records
		for ri := range recs {
			recs[ri].Values[col] = values[ci][ri]
		}
	}
}
