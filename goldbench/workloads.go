package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/service"
)

// Why each workload exists; printed with every run and recorded in
// BENCHMARK.json.
const (
	whyReviewAddress  = "one reviewer answers one question at a time on fresh Address uploads: engine graph build and pivot search dominate; warm start bypassed"
	whyRestartBacklog = "restart on a fully issued JournalTitle backlog, then two reviewers burn it down: recovery replay in set-up, then HTTP, WAL group commit, events"
	whyReingestWarm   = "re-upload of reviewed JournalTitle feeds plus new entities: the only path through library warm priors and core pre-application"
)

// prefetchAll makes a session issue its whole group stream ahead of the
// reviewer, so the restart workload's WAL holds every group.
var prefetchAll = []string{"-prefetch", "100000"}

// sizes of each workload's inputs; smoke mode shrinks them all. A
// dataset's engine cost is heavy-tailed (one pivot search can take
// seconds on one seed and milliseconds on the next), so each run
// reviews many small datasets rather than one large one.
type sizes struct {
	addressScale  float64 // Address clusters, as a share of the default 160
	addressBudget int     // questions per Address session
	backlogFeeds  int     // JournalTitle feeds in each restart's backlog
	backlogScale  float64 // each feed's share of the default 320 clusters
	batch         int     // decisions per batch
	taughtFeeds   int     // JournalTitle feeds reviewed in full before re-ingest
	taughtScale   float64 // each taught feed's share of the default 320 clusters
	newScale      float64 // new entities added to the refreshed feed
	warmBudget    int     // questions answered on the refreshed feed
}

func (b *bench) sizes() sizes {
	if b.smoke {
		return sizes{0.15, 12, 2, 0.05, 4, 2, 0.05, 0.03, 6}
	}
	return sizes{0.3, 40, 2, 0.05, 16, 16, 0.05, 0.05, 30}
}

func (b *bench) iterDir(name string) (string, error) { return os.MkdirTemp(b.work, name+"-") }

// feedFor generates and renders a feed and builds its reviewer mirror.
func feedFor(name, family string, seed int64, scale float64) (feed, *mirror, error) {
	gen, err := generate(family, seed, scale)
	if err != nil {
		return feed{}, nil, err
	}
	f, err := makeFeed(name, gen)
	if err != nil {
		return feed{}, nil, err
	}
	m, err := newMirror(f)
	return f, m, err
}

// noPrep is the prep of a workload with nothing to prepare once per run.
func noPrep(context.Context, *bench) (any, error) { return nil, nil }

// iterReviewAddress: boot an empty server, upload a fresh Address feed,
// open an Address session, answer the question budget one long poll and
// one decision at a time, export records and golden records. Every
// iteration draws new data from the seed.
func iterReviewAddress(ctx context.Context, b *bench, _ any, i int, rec *recorder) (sample, error) {
	sz := b.sizes()
	f, m, err := feedFor("address", "address", b.seed*1000+int64(i), sz.addressScale)
	if err != nil {
		return nil, err
	}
	dir, err := b.iterDir("address")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	srv, err := b.boot(ctx, "review-address", data)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	// Set-up is an empty server's boot.
	setup, err := srv.waitReady(ctx)
	if err != nil {
		return nil, err
	}
	s := sample{"setup_s": setup.Seconds()}
	acc := newAccounting()
	defer b.acc.merge(acc)
	c := newClient(srv.base, acc, rec)
	defer c.close()
	t, err := b.reviewFeed(ctx, c, acc, rec, data, f, m, sz.addressBudget, false, s)
	if err != nil {
		return nil, err
	}
	return s, b.finishReview(ctx, srv, rec, data, t, s)
}

// reviewFeed is one reviewer's pass over a fresh upload on a ready
// server: upload f, open its session, answer up to budget questions one
// long poll and one decision at a time, export, and run every check.
// With warm, the mirror first takes the groups the server pre-decided
// from the library. It fills s with the reviewer's metrics and, on
// traced passes, the per-layer split, and returns the session to
// replay.
func (b *bench) reviewFeed(ctx context.Context, c *client, acc *accounting, rec *recorder, data string, f feed, m *mirror, budget int, warm bool, s sample) (replayTarget, error) {
	var before promSample
	var err error
	if rec != nil {
		if before, err = scrape(ctx, c); err != nil {
			return replayTarget{}, err
		}
	}
	t0 := time.Now()
	ds, err := upload(ctx, c, f)
	if err != nil {
		return replayTarget{}, err
	}
	sess, err := openSession(ctx, c, ds.ID, f.column)
	if err != nil {
		return replayTarget{}, err
	}
	// The upload's snapshot is on disk now; what the data dir grows by
	// from here is the review's log.
	var dataBefore int64
	if rec != nil {
		if dataBefore, err = treeBytes(data); err != nil {
			return replayTarget{}, err
		}
	}
	var state goldrec.ReviewState
	var beforeFirst func() error
	if warm {
		// Before the first verdict, the reviewer's mirror takes the
		// groups the server pre-decided from the library, in issue order.
		beforeFirst = func() error {
			if _, err := c.getJSON(ctx, rState, "/v1/sessions/"+sess.ID+"/state", &state); err != nil {
				return err
			}
			for _, g := range state.Groups {
				if g.Warm {
					if err := m.apply(g, g.Decision.String()); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	l, err := reviewOneByOne(ctx, c, m, sess.ID, budget, t0, beforeFirst)
	if err != nil {
		return replayTarget{}, err
	}
	if warm {
		b.check(state.Stats.WarmGroups > 0, "%s opened cold: the taught library pre-decided no group", f.name)
	} else {
		b.check(len(l.acked) == budget, "%s ran out of groups after %d of %d questions", f.name, len(l.acked), budget)
	}
	exported, done, err := b.exportAndCheck(ctx, c, m, ds.ID)
	if err != nil {
		return replayTarget{}, err
	}
	b.reviewerMetrics(s, t0, done, l)
	if err := b.quality(m, exported); err != nil {
		return replayTarget{}, err
	}
	if err := b.checkState(ctx, c, sess.ID, l.acked); err != nil {
		return replayTarget{}, err
	}
	if err := b.checkEvents(ctx, c, map[string]bool{sess.ID: true}, l.acked); err != nil {
		return replayTarget{}, err
	}
	if rec != nil {
		after, err := scrape(ctx, c)
		if err != nil {
			return replayTarget{}, err
		}
		info, err := sessionInfo(ctx, c, sess.ID)
		if err != nil {
			return replayTarget{}, err
		}
		dataAfter, err := treeBytes(data)
		if err != nil {
			return replayTarget{}, err
		}
		d := after.sub(before)
		routeLayers(s, acc, d)
		storeLayers(s, d)
		engineLayers(s, info.Timings)
		s["engine.review_share"] = (s["engine.graph_build_s"] + s["engine.group_search_s"]) / s["review_s"]
		s["engine.first_group_s"] = d.get("goldrec_session_first_group_seconds_sum", "")
		s["service.first_question_lag_s"] = s["first_question_s"] - s["engine.first_group_s"]
		s["store.bytes_per_decision"] = float64(dataAfter-dataBefore) / float64(len(l.acked))
		s["library.programs"] = after.get("goldrec_library_programs", "")
		s["library.hits"] = d.sumPrefix("goldrec_library_hits_total")
		s["library.warm_groups"] = float64(info.Stats.WarmGroups)
		if info.Stats.CellsChanged > 0 {
			s["library.warm_share"] = float64(info.Stats.WarmCells) / float64(info.Stats.CellsChanged)
		}
	}
	return replayTarget{feed: f, datasetID: ds.ID, sessionID: sess.ID}, nil
}

// finishReview stops the server, reading its peak memory and CPU first,
// and on traced passes replays the reviewed session in process.
func (b *bench) finishReview(ctx context.Context, srv *server, rec *recorder, data string, t replayTarget, s sample) error {
	if err := finish(srv, s); err != nil || rec == nil {
		return err
	}
	st, err := b.replayLeg(ctx, rec, data, []replayTarget{t})
	if err != nil {
		return err
	}
	replayLayers(s, st)
	return nil
}

// backlog is the restart workload's prepared data dir: every feed's
// session has issued its whole group stream, nothing is decided.
type backlog struct {
	dir      string
	feeds    []feed
	datasets []string
	sessions []string
	pages    [][]goldrec.GroupState // pending groups before the prep server stopped
}

// prepBacklog builds iteration i's backlog in dir, untimed: a server
// with -prefetch high enough to issue every group takes fresh
// JournalTitle feeds drawn for the iteration, then stops. The cost of
// replaying one feed is heavy-tailed, so each iteration restores
// another draw and the run's median is not fixed by one costly feed.
func (b *bench) prepBacklog(ctx context.Context, dir string, i int) (*backlog, error) {
	sz := b.sizes()
	bl := &backlog{dir: dir}
	srv, err := b.boot(ctx, "restart-backlog", bl.dir, prefetchAll...)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if _, err := srv.waitReady(ctx); err != nil {
		return nil, err
	}
	acc := newAccounting()
	defer b.acc.merge(acc)
	c := newClient(srv.base, acc, nil)
	defer c.close()
	for k := 0; k < sz.backlogFeeds; k++ {
		seed := b.seed*1000 + 100 + int64(i*sz.backlogFeeds+k)
		f, _, err := feedFor(fmt.Sprintf("journal-%d", k), "journal", seed, sz.backlogScale)
		if err != nil {
			return nil, err
		}
		ds, err := upload(ctx, c, f)
		if err != nil {
			return nil, err
		}
		sess, err := openSession(ctx, c, ds.ID, f.column)
		if err != nil {
			return nil, err
		}
		// With the whole stream prefetched, the state call waits on the
		// session until the generator stops, so this seldom loops.
		for {
			var state goldrec.ReviewState
			if _, err := c.getJSON(ctx, rState, "/v1/sessions/"+sess.ID+"/state", &state); err != nil {
				return nil, err
			}
			if state.Exhausted {
				break
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
		}
		var page service.GroupPage
		if _, err := c.getJSON(ctx, rGroups, "/v1/sessions/"+sess.ID+"/groups?limit=0", &page); err != nil {
			return nil, err
		}
		bl.feeds = append(bl.feeds, f)
		bl.datasets = append(bl.datasets, ds.ID)
		bl.sessions = append(bl.sessions, sess.ID)
		bl.pages = append(bl.pages, page.Groups)
	}
	return bl, srv.stop()
}

// iterRestartBacklog prepares the iteration's backlog, restarts
// goldrecd on a fresh copy of it, waits until every recovered session
// is reviewable (WAL replay re-derives every group through the engine),
// then burns the backlog down with two reviewers, each owning every
// other feed: one sends single decisions chosen by the budget planner,
// the other sends batches from groups pages and follows the event feed.
func iterRestartBacklog(ctx context.Context, b *bench, _ any, i int, rec *recorder) (sample, error) {
	sz := b.sizes()
	dir, err := b.iterDir("backlog")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bl, err := b.prepBacklog(ctx, filepath.Join(dir, "prep"), i)
	if err != nil {
		return nil, fmt.Errorf("backlog prep: %w", err)
	}
	data := filepath.Join(dir, "data")
	if err := copyTree(bl.dir, data); err != nil {
		return nil, err
	}
	var mirrors []*mirror
	for _, f := range bl.feeds {
		m, err := newMirror(f)
		if err != nil {
			return nil, err
		}
		mirrors = append(mirrors, m)
	}

	s := sample{}
	srv, err := b.boot(ctx, "restart-backlog", data, prefetchAll...)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	acc := newAccounting()
	defer b.acc.merge(acc)
	c := newClient(srv.base, acc, rec)
	defer c.close()
	if err := awaitReviewable(ctx, c, srv, s, bl.sessions); err != nil {
		return nil, err
	}
	for k, sid := range bl.sessions {
		var page service.GroupPage
		if _, err := c.getJSON(ctx, rGroups, "/v1/sessions/"+sid+"/groups?limit=0", &page); err != nil {
			return nil, err
		}
		b.check(reflect.DeepEqual(page.Groups, bl.pages[k]),
			"session %s: %d pending group(s) after restart differ from the %d captured before the prep server stopped", sid, len(page.Groups), len(bl.pages[k]))
	}

	var before promSample
	if rec != nil {
		if before, err = scrape(ctx, c); err != nil {
			return nil, err
		}
		s["store.wal_replay_ms"] = 1000 * before.get("goldrec_store_wal_replay_seconds_sum", "")
		for _, sid := range bl.sessions {
			info, err := sessionInfo(ctx, c, sid)
			if err != nil {
				return nil, err
			}
			engineLayers(s, info.Timings)
		}
	}
	var feedTail struct {
		LastSeq uint64 `json:"last_seq"`
	}
	if _, err := c.getJSON(ctx, rEvents, "/v1/events?limit=1", &feedTail); err != nil {
		return nil, err
	}

	// The burn-down gets its own accounting, so per-route client
	// latencies line up with the exposition diff taken over it.
	burnAcc := newAccounting()
	defer b.acc.merge(burnAcc)
	cb := newClient(srv.base, burnAcc, rec)
	defer cb.close()
	t0 := time.Now()
	var wg sync.WaitGroup
	la, lb := loop{lastAck: t0}, loop{lastAck: t0}
	var errA, errB error
	var lags []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < len(bl.feeds) && errA == nil; k += 2 {
			errA = burnByPlan(ctx, cb, mirrors[k], bl.datasets[k], bl.sessions[k], bl.pages[k], &la)
		}
	}()
	go func() {
		defer wg.Done()
		for k := 1; k < len(bl.feeds) && errB == nil; k += 2 {
			errB = burnByBatch(ctx, cb, mirrors[k], bl.datasets[k], bl.sessions[k], sz.batch, feedTail.LastSeq, &lb, &lags)
		}
	}()
	wg.Wait()
	if errA != nil {
		return nil, errA
	}
	if errB != nil {
		return nil, errB
	}
	var done time.Time
	backlogGroups := 0
	for k, m := range mirrors {
		rows, at, err := b.exportAndCheck(ctx, cb, m, bl.datasets[k])
		if err != nil {
			return nil, err
		}
		if err := b.quality(m, rows); err != nil {
			return nil, err
		}
		done = at
		backlogGroups += len(bl.pages[k])
	}
	all := la.merge(lb)
	b.reviewerMetrics(s, t0, done, all)
	for _, sid := range bl.sessions {
		if err := b.checkState(ctx, cb, sid, all.acked); err != nil {
			return nil, err
		}
	}
	b.check(len(all.acked) == backlogGroups, "burn-down acknowledged %d decisions, the backlog held %d groups", len(all.acked), backlogGroups)
	sessions := map[string]bool{}
	for _, sid := range bl.sessions {
		sessions[sid] = true
	}
	if err := b.checkEvents(ctx, cb, sessions, all.acked); err != nil {
		return nil, err
	}
	if rec != nil {
		after, err := scrape(ctx, c)
		if err != nil {
			return nil, err
		}
		d := after.sub(before)
		routeLayers(s, burnAcc, d)
		storeLayers(s, d)
		s["engine.review_group_search_s"] = d.get("goldrec_engine_phase_seconds_sum", `phase="group_search"`)
		s["events.feed_lag_ms.p50"] = median(lags)
		s["decisions_per_s"] = float64(len(all.acked)) / all.lastAck.Sub(t0).Seconds()
	}
	if err := finish(srv, s); err != nil {
		return nil, err
	}
	if rec != nil {
		var targets []replayTarget
		for k := range bl.feeds {
			t := replayTarget{feed: bl.feeds[k], datasetID: bl.datasets[k], sessionID: bl.sessions[k]}
			for _, d := range all.acked {
				if d.session == bl.sessions[k] {
					t.extra = append(t.extra, d)
				}
			}
			targets = append(targets, t)
		}
		st, err := b.replayLeg(ctx, rec, bl.dir, targets)
		if err != nil {
			return nil, err
		}
		replayLayers(s, st)
	}
	return s, nil
}

// burnByPlan decides one group at a time, always the one the budget
// planner ranks first for the dataset, until nothing is pending. Group
// contents come from the pending page read at set-up. l accumulates
// across sessions; l.lastAck starts at the burn-down's start.
func burnByPlan(ctx context.Context, c *client, m *mirror, datasetID, sid string, pending []goldrec.GroupState, l *loop) error {
	byID := map[int]goldrec.GroupState{}
	for _, g := range pending {
		byID[g.ID] = g
	}
	for {
		var plan service.BudgetPlan
		r, err := c.getJSON(ctx, rPlan, "/v1/datasets/"+datasetID+"/plan?budget=1", &plan)
		if err != nil {
			return err
		}
		if plan.Allocated == 0 {
			return nil
		}
		l.question(r.at)
		gid := plan.Columns[0].Groups[0].GroupID
		g, ok := byID[gid]
		if !ok {
			return fmt.Errorf("plan offered group %d, which was not pending after restart", gid)
		}
		v, err := m.verdict(g)
		if err != nil {
			return err
		}
		ack, err := decide(ctx, c, sid, gid, v)
		if err != nil {
			return err
		}
		if err := m.apply(g, v); err != nil {
			return err
		}
		l.ack(decision{session: sid, group: gid, verdict: v, ack: ack.at})
	}
}

// burnByBatch reviews a groups page of up to batch groups at a time,
// submits the verdicts as one batch, then reads the event feed's
// catch-up page from cursor: the lag from a batch's ack to its decision
// events arriving there is the feed lag. It stops when nothing is
// pending.
func burnByBatch(ctx context.Context, c *client, m *mirror, datasetID, sid string, batch int, cursor uint64, l *loop, lags *[]float64) error {
	acks := map[int]time.Time{}
	for {
		var page service.GroupPage
		r, err := c.getJSON(ctx, rGroups, fmt.Sprintf("/v1/datasets/%s/sessions/%s/groups?limit=%d", datasetID, sid, batch), &page)
		if err != nil {
			return err
		}
		if len(page.Groups) == 0 {
			return nil
		}
		l.question(r.at)
		req := service.BatchDecisionsRequest{}
		for _, g := range page.Groups {
			v, err := m.verdict(g)
			if err != nil {
				return err
			}
			req.Decisions = append(req.Decisions, service.DecisionRequest{GroupID: g.ID, Decision: v})
		}
		var res service.BatchDecisionsResult
		ack, err := c.postJSON(ctx, rDecideBatch, fmt.Sprintf("/v1/datasets/%s/sessions/%s/decisions", datasetID, sid), req, &res)
		if err != nil {
			return err
		}
		if len(res.Results) != len(req.Decisions) {
			return fmt.Errorf("batch of %d acknowledged with %d results", len(req.Decisions), len(res.Results))
		}
		for k, g := range page.Groups {
			v := req.Decisions[k].Decision
			if err := m.apply(g, v); err != nil {
				return err
			}
			l.ack(decision{session: sid, group: g.ID, verdict: v, ack: ack.at})
			acks[g.ID] = ack.at
		}

		var feed struct {
			Events []events.Event `json:"events"`
		}
		fr, err := c.getJSON(ctx, rEvents, fmt.Sprintf("/v1/events?since=%d&limit=1024", cursor), &feed)
		if err != nil {
			return err
		}
		for _, e := range feed.Events {
			cursor = e.Seq
			if e.Type != events.TypeDecisionRecorded || e.Session != sid {
				continue
			}
			gid, _ := e.Data["group_id"].(float64)
			if at, ok := acks[int(gid)]; ok {
				*lags = append(*lags, ms(fr.at.Sub(at)))
				delete(acks, int(gid))
			}
		}
	}
}

// warmPrep is the re-ingest workload's prepared data dir: several
// JournalTitle feeds, each reviewed to the end, which taught the
// library.
type warmPrep struct {
	dir    string
	taught int
}

// warmSeed is the generator seed of taught feed k.
func (b *bench) warmSeed(k int) int64 { return b.seed*1000 + 200 + int64(k) }

func prepReingestWarm(ctx context.Context, b *bench) (any, error) {
	sz := b.sizes()
	wp := &warmPrep{dir: filepath.Join(b.work, "warm-prep"), taught: sz.taughtFeeds}
	srv, err := b.boot(ctx, "reingest-warm", wp.dir)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if _, err := srv.waitReady(ctx); err != nil {
		return nil, err
	}
	acc := newAccounting()
	defer b.acc.merge(acc)
	c := newClient(srv.base, acc, nil)
	defer c.close()
	for k := 0; k < wp.taught; k++ {
		seed := b.warmSeed(k)
		f, m, err := feedFor(fmt.Sprintf("journal-taught-%d", k), "journal", seed, sz.taughtScale)
		if err != nil {
			return nil, err
		}
		if err := reviewAll(ctx, c, f, m); err != nil {
			return nil, err
		}
	}
	return wp, srv.stop()
}

// reviewAll uploads a feed and reviews its whole group stream a page at
// a time through the batch endpoint.
func reviewAll(ctx context.Context, c *client, f feed, m *mirror) error {
	ds, err := upload(ctx, c, f)
	if err != nil {
		return err
	}
	sess, err := openSession(ctx, c, ds.ID, f.column)
	if err != nil {
		return err
	}
	base := "/v1/datasets/" + ds.ID + "/sessions/" + sess.ID
	for {
		var page service.GroupPage
		if _, err := c.getJSON(ctx, rGroups, base+"/groups?limit=64&wait=true", &page); err != nil {
			return err
		}
		if len(page.Groups) == 0 {
			if page.Status == service.StatusExhausted {
				return nil
			}
			continue
		}
		req := service.BatchDecisionsRequest{}
		for _, g := range page.Groups {
			v, err := m.verdict(g)
			if err != nil {
				return err
			}
			req.Decisions = append(req.Decisions, service.DecisionRequest{GroupID: g.ID, Decision: v})
		}
		if _, err := c.postJSON(ctx, rDecideBatch, base+"/decisions", req, nil); err != nil {
			return err
		}
		for k, g := range page.Groups {
			if err := m.apply(g, req.Decisions[k].Decision); err != nil {
				return err
			}
		}
	}
}

// refreshedFeed is taught feed k again plus new entities, drawn afresh
// for iteration i.
func (b *bench) refreshedFeed(k, i int) (feed, *mirror, error) {
	sz := b.sizes()
	taughtSeed := b.warmSeed(k)
	freshSeed := b.seed*1000 + 500 + int64(i)
	taught, err := generate("journal", taughtSeed, sz.taughtScale)
	if err != nil {
		return feed{}, nil, err
	}
	fresh, err := generate("journal", freshSeed, sz.newScale)
	if err != nil {
		return feed{}, nil, err
	}
	f, err := makeFeed(fmt.Sprintf("journal-refreshed-%d", k), appendClusters(taught, fresh))
	if err != nil {
		return feed{}, nil, err
	}
	m, err := newMirror(f)
	return f, m, err
}

// iterReingestWarm restarts on a copy of the taught data dir, uploads
// the refreshed feed, opens its session (warm priors pre-decide what
// the library explains), answers the question budget and exports.
func iterReingestWarm(ctx context.Context, b *bench, prep any, i int, rec *recorder) (sample, error) {
	wp := prep.(*warmPrep)
	sz := b.sizes()
	f, m, err := b.refreshedFeed(i%wp.taught, i)
	if err != nil {
		return nil, err
	}
	dir, err := b.iterDir("warm")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	if err := copyTree(wp.dir, data); err != nil {
		return nil, err
	}
	srv, err := b.boot(ctx, "reingest-warm", data)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	acc := newAccounting()
	defer b.acc.merge(acc)
	c := newClient(srv.base, acc, rec)
	defer c.close()
	s := sample{}
	if err := awaitReviewable(ctx, c, srv, s, nil); err != nil {
		return nil, err
	}
	t, err := b.reviewFeed(ctx, c, acc, rec, data, f, m, sz.warmBudget, true, s)
	if err != nil {
		return nil, err
	}
	return s, b.finishReview(ctx, srv, rec, data, t, s)
}

// awaitReviewable waits for /readyz, then polls the session listing
// until every session in want (every listed session when want is nil)
// has left initializing. It records /readyz and the end of set-up as
// times since exec.
func awaitReviewable(ctx context.Context, c *client, srv *server, s sample, want []string) error {
	readyz, err := srv.waitReady(ctx)
	if err != nil {
		return err
	}
	s["service.readyz_s"] = readyz.Seconds()
	for {
		var list struct {
			Sessions []service.SessionInfo `json:"sessions"`
		}
		if _, err := c.getJSON(ctx, rSessions, "/v1/sessions", &list); err != nil {
			return err
		}
		status := map[string]service.SessionInfo{}
		for _, info := range list.Sessions {
			status[info.ID] = info
		}
		ids := want
		if ids == nil {
			for id := range status {
				ids = append(ids, id)
			}
		}
		ready := 0
		for _, id := range ids {
			if info, ok := status[id]; ok && info.Status != service.StatusInitializing {
				ready++
			}
		}
		if ready == len(ids) {
			s["setup_s"] = time.Since(srv.started).Seconds()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
