package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/table"
)

// replayTarget names one session's decision log to re-execute.
type replayTarget struct {
	feed      feed
	datasetID string
	sessionID string
	// extra are decisions acknowledged after the log was copied (the
	// restart workload replays its prepared log, then the burn-down's
	// acknowledged decisions in order, because a fully decided session
	// compacts its log away).
	extra []decision
}

// replayStats is what the replay leg measures, summed over sessions.
type replayStats struct {
	ingestMS       float64   // table.ReadCSV
	candidateGenMS float64   // ColumnIndexWarmCtx minus its context_prep
	nextGroupMS    []float64 // per Session.NextGroupCtx
	applyMS        []float64 // per Session.Decide
	goldenMS       float64   // Consolidator.GoldenRecords
	timings        goldrec.PhaseTimings
	graph          goldrec.GraphStats
	candidates     int
}

// replayLeg reads each target's WAL from a copy of the data dir with
// store.OpenFS(...).ReplayWAL and re-executes it in process through the
// public Go APIs, timing every call into the engine. Regenerated group
// ids must match the log.
func (b *bench) replayLeg(ctx context.Context, rec *recorder, dataDir string, targets []replayTarget) (replayStats, error) {
	var st replayStats
	copyDir := dataDir + ".replay"
	if err := copyTree(dataDir, copyDir); err != nil {
		return st, err
	}
	defer os.RemoveAll(copyDir)
	fsStore, err := store.OpenFS(copyDir, store.FSOptions{NoSync: true})
	if err != nil {
		return st, err
	}
	defer fsStore.Close()
	for _, t := range targets {
		if err := b.replayOne(ctx, rec, fsStore, t, &st); err != nil {
			return st, fmt.Errorf("replaying session %s: %w", t.sessionID, err)
		}
	}
	return st, nil
}

func (b *bench) replayOne(ctx context.Context, rec *recorder, fsStore *store.FS, t replayTarget, st *replayStats) error {
	// Every call below is a child span of one span per replayed session.
	root, start := rec.newID("replay"), time.Now()
	defer func() {
		rec.add(span{ID: root, Layer: "bench", Name: "replay " + t.sessionID}, start, time.Since(start))
	}()
	var recs []store.WALRecord
	if err := fsStore.ReplayWAL(ctx, t.datasetID, t.sessionID, func(r store.WALRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return err
	}
	for _, d := range t.extra {
		recs = append(recs, store.WALRecord{Op: store.OpDecide, GroupID: d.group, Decision: d.verdict})
	}
	var warm *goldrec.WarmStart
	if len(recs) > 0 && recs[0].Op == store.OpWarm {
		warm = new(goldrec.WarmStart)
		if err := json.Unmarshal(recs[0].Warm, warm); err != nil {
			return fmt.Errorf("warm record: %w", err)
		}
	}

	var ds *table.Dataset
	var err error
	st.ingestMS += ms(rec.time("table", "ReadCSV", root, func() {
		ds, err = table.ReadCSV(bytes.NewReader(t.feed.csv), t.feed.name, "key", "source")
	}))
	if err != nil {
		return err
	}
	cons, err := goldrec.New(ds)
	if err != nil {
		return err
	}
	col := ds.ColumnIndex(t.feed.column)
	var sess *goldrec.Session
	open := rec.time("engine", "ColumnIndexWarmCtx", root, func() {
		sess, err = cons.ColumnIndexWarmCtx(ctx, col, warm)
	})
	if err != nil {
		return err
	}
	st.candidateGenMS += ms(open) - ms(sess.Timings().ContextPrep)
	for _, r := range recs {
		switch r.Op {
		case store.OpWarm:
		case store.OpIssue:
			var g *goldrec.Group
			var ok bool
			st.nextGroupMS = append(st.nextGroupMS, ms(rec.time("engine", "NextGroupCtx", root, func() {
				g, ok = sess.NextGroupCtx(ctx)
			})))
			if !ok {
				return fmt.Errorf("issue record %d: group stream ended early", r.GroupID)
			}
			b.check(g.ID == r.GroupID, "session %s: replay regenerated group %d where the WAL issued %d", t.sessionID, g.ID, r.GroupID)
		case store.OpDecide:
			d, err := goldrec.ParseDecision(r.Decision)
			if err != nil {
				return err
			}
			st.applyMS = append(st.applyMS, ms(rec.time("engine", "Decide", root, func() {
				_, err = sess.Decide(r.GroupID, d)
			})))
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown WAL op %q", r.Op)
		}
	}
	st.goldenMS += ms(rec.time("truth", "GoldenRecords", root, func() { cons.GoldenRecords() }))
	tm := sess.Timings()
	st.timings.ContextPrep += tm.ContextPrep
	st.timings.GraphBuild += tm.GraphBuild
	st.timings.GroupSearch += tm.GroupSearch
	gs := sess.GraphStats()
	st.graph.Nodes += gs.Nodes
	st.graph.Edges += gs.Edges
	st.candidates += sess.Stats().Candidates
	return nil
}

// replayLayers fills the per-layer metrics the replay leg measures.
func replayLayers(s sample, st replayStats) {
	s["table.ingest_ms"] = st.ingestMS
	s["engine.candidate_gen_ms"] = st.candidateGenMS
	s["engine.candidates"] = float64(st.candidates)
	s["engine.graph_nodes"] = float64(st.graph.Nodes)
	s["engine.graph_edges"] = float64(st.graph.Edges)
	s["engine.groups_issued"] = float64(len(st.nextGroupMS))
	s["engine.next_group_ms.p50"] = quantile(st.nextGroupMS, 0.5)
	s["engine.next_group_ms.p90"] = quantile(st.nextGroupMS, 0.9)
	s["engine.next_group_ms.max"] = quantile(st.nextGroupMS, 1)
	s["engine.apply_ms.mean"] = mean(st.applyMS)
	s["truth.golden_ms"] = st.goldenMS
	s["engine.replay_graph_build_s"] = st.timings.GraphBuild.Seconds()
	s["engine.replay_group_search_s"] = st.timings.GroupSearch.Seconds()
}
