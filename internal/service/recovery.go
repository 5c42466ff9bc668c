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
	cs := &columnSession{
		id:        sm.ID,
		datasetID: d.id,
		column:    sm.Column,
		col:       col,
		// The dataset's owner, not the meta's, is authoritative: the two
		// only diverge for metas written before tenancy existed, which
		// have no owner at all.
		owner: d.owner,
		d:     d,
	}
	cs.cond = sync.NewCond(&cs.mu)
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
		go cs.run(context.Background(), s)
	}
	return nil
}
