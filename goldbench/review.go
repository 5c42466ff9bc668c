package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/service"
)

// serverFlags are the flags every goldrecd under test runs with on top
// of the defaults: a durable data dir (fsync stays on).
func serverFlags(dataDir string, extra ...string) []string {
	return append([]string{"-data-dir", dataDir}, extra...)
}

// boot starts goldrecd for one role of the workload, remembering its
// flags and, on first boot, its /healthz build identity.
func (b *bench) boot(ctx context.Context, role, dataDir string, extra ...string) (*server, error) {
	flags := serverFlags(dataDir, extra...)
	if b.flags == nil {
		b.flags = map[string][]string{}
	}
	b.flags[role] = serverFlags("DATA_DIR", extra...)
	logPath := filepath.Join(b.work, fmt.Sprintf("goldrecd-%s-%d.log", role, time.Now().UnixNano()))
	srv, err := startServer(b.bin, logPath, flags...)
	if err != nil {
		return nil, err
	}
	if b.identity == nil {
		var id map[string]any
		c := newClient(srv.base, newAccounting(), nil)
		if _, err := c.getJSON(ctx, "healthz", "/healthz", &id); err != nil {
			srv.kill()
			return nil, fmt.Errorf("reading build identity: %w", err)
		}
		c.close()
		b.identity = id
	}
	return srv, nil
}

// upload posts a feed as a new dataset.
func upload(ctx context.Context, c *client, f feed) (service.DatasetInfo, error) {
	var info service.DatasetInfo
	path := "/v1/datasets?name=" + url.QueryEscape(f.name) + "&key=key&source=source"
	r, err := c.do(ctx, rUpload, http.MethodPost, path, f.csv, false)
	if err != nil {
		return info, err
	}
	return info, json.Unmarshal(r.body, &info)
}

func openSession(ctx context.Context, c *client, datasetID, column string) (service.SessionInfo, error) {
	var info service.SessionInfo
	_, err := c.postJSON(ctx, rOpen, "/v1/datasets/"+datasetID+"/sessions", service.OpenSessionRequest{Column: column}, &info)
	return info, err
}

// decision is one acknowledged verdict.
type decision struct {
	session string
	group   int
	verdict string
	ack     time.Time
}

// loop holds what a reviewer observed, for the end-to-end metrics.
type loop struct {
	firstQuestion time.Time  // first group on screen
	lastAck       time.Time  // last decision acknowledged
	waits         []float64  // ms from an ack to the next question on screen
	acked         []decision // in acknowledgement order
}

// question notes a question arriving on screen at t.
func (l *loop) question(t time.Time) {
	if l.firstQuestion.IsZero() {
		l.firstQuestion = t
	}
	l.waits = append(l.waits, ms(t.Sub(l.lastAck)))
}

// ack notes an acknowledged decision.
func (l *loop) ack(d decision) {
	l.lastAck = d.ack
	l.acked = append(l.acked, d)
}

// merge combines two reviewers' loops over the same period.
func (l loop) merge(o loop) loop {
	out := loop{
		firstQuestion: l.firstQuestion,
		lastAck:       l.lastAck,
		waits:         append(append([]float64(nil), l.waits...), o.waits...),
		acked:         append(append([]decision(nil), l.acked...), o.acked...),
	}
	if out.firstQuestion.IsZero() || (!o.firstQuestion.IsZero() && o.firstQuestion.Before(out.firstQuestion)) {
		out.firstQuestion = o.firstQuestion
	}
	if o.lastAck.After(out.lastAck) {
		out.lastAck = o.lastAck
	}
	return out
}

// reviewOneByOne is the paper's protocol on one session: up to budget
// rounds of a long poll for the next group, the oracle's verdict, one
// decision. since is when the reviewer started waiting for the first
// question, which is not counted as a wait. beforeFirst, when set,
// runs once the first question is on screen, before its verdict.
func reviewOneByOne(ctx context.Context, c *client, m *mirror, sid string, budget int, since time.Time, beforeFirst func() error) (loop, error) {
	l := loop{lastAck: since}
	for len(l.acked) < budget {
		r, err := c.do(ctx, rGroups, http.MethodGet, "/v1/sessions/"+sid+"/groups?limit=1&wait=30s", nil, true)
		if err != nil {
			return l, err
		}
		if r.status == http.StatusNoContent {
			continue
		}
		var page service.GroupPage
		if err := json.Unmarshal(r.body, &page); err != nil {
			return l, err
		}
		if len(page.Groups) == 0 {
			if page.Status == service.StatusExhausted {
				return l, nil
			}
			continue
		}
		if l.firstQuestion.IsZero() {
			l.firstQuestion = r.at
			if beforeFirst != nil {
				if err := beforeFirst(); err != nil {
					return l, err
				}
			}
		} else {
			l.question(r.at)
		}
		g := page.Groups[0]
		v, err := m.verdict(g)
		if err != nil {
			return l, err
		}
		ack, err := decide(ctx, c, sid, g.ID, v)
		if err != nil {
			return l, err
		}
		if err := m.apply(g, v); err != nil {
			return l, err
		}
		l.ack(decision{session: sid, group: g.ID, verdict: v, ack: ack.at})
	}
	return l, nil
}

func decide(ctx context.Context, c *client, sid string, gid int, verdict string) (response, error) {
	var res service.DecisionResult
	r, err := c.postJSON(ctx, rDecide, "/v1/sessions/"+sid+"/decisions", service.DecisionRequest{GroupID: gid, Decision: verdict}, &res)
	if err == nil && res.GroupID != gid {
		err = fmt.Errorf("decision on group %d acknowledged as group %d", gid, res.GroupID)
	}
	return r, err
}

// exportAndCheck fetches both exports of a dataset and checks them
// against the reviewer's mirror: the records export byte for byte, the
// golden export against truth discovery over the mirror. It returns
// the records export and when the golden export arrived.
func (b *bench) exportAndCheck(ctx context.Context, c *client, m *mirror, datasetID string) ([]byte, time.Time, error) {
	rec, err := c.do(ctx, rExport, http.MethodGet, "/v1/datasets/"+datasetID+"/records?format=csv", nil, false)
	if err != nil {
		return nil, time.Time{}, err
	}
	gold, err := c.do(ctx, rExport, http.MethodGet, "/v1/datasets/"+datasetID+"/golden?format=csv", nil, false)
	if err != nil {
		return nil, time.Time{}, err
	}
	wantRec, err := m.recordsCSV()
	if err != nil {
		return nil, time.Time{}, err
	}
	b.check(bytes.Equal(rec.body, wantRec), "dataset %s (%s): records export differs from the reviewer's mirror", datasetID, m.f.name)
	wantGold, err := m.goldenCSV()
	if err != nil {
		return nil, time.Time{}, err
	}
	b.check(bytes.Equal(gold.body, wantGold), "dataset %s (%s): golden export differs from truth discovery over the mirror", datasetID, m.f.name)
	return rec.body, gold.at, nil
}

// checkState checks that every acknowledged decision appears in the
// session's /state with the acknowledged verdict.
func (b *bench) checkState(ctx context.Context, c *client, sid string, acked []decision) error {
	var st goldrec.ReviewState
	if _, err := c.getJSON(ctx, rState, "/v1/sessions/"+sid+"/state", &st); err != nil {
		return err
	}
	for _, d := range acked {
		if d.session != sid {
			continue
		}
		ok := d.group >= 0 && d.group < len(st.Groups) && st.Groups[d.group].ID == d.group &&
			st.Groups[d.group].Decision.String() == d.verdict
		b.check(ok, "session %s: acknowledged %s on group %d is missing from /state", sid, d.verdict, d.group)
	}
	return nil
}

// readEvents pages the audit feed from since to its end.
func readEvents(ctx context.Context, c *client, since uint64) ([]events.Event, error) {
	var all []events.Event
	for {
		var page struct {
			Events  []events.Event `json:"events"`
			LastSeq uint64         `json:"last_seq"`
		}
		if _, err := c.getJSON(ctx, rEvents, fmt.Sprintf("/v1/events?since=%d&limit=1024", since), &page); err != nil {
			return nil, err
		}
		all = append(all, page.Events...)
		if len(page.Events) == 0 {
			return all, nil
		}
		since = page.Events[len(page.Events)-1].Seq
	}
}

// checkEvents reads the whole feed and checks that sequence numbers are
// contiguous, no gap marker appears, and the decision events of the
// given sessions are exactly the acknowledged decisions, and that the
// event bus dropped nothing.
func (b *bench) checkEvents(ctx context.Context, c *client, sessions map[string]bool, acked []decision) error {
	evs, err := readEvents(ctx, c, 0)
	if err != nil {
		return err
	}
	type key struct {
		session string
		group   int
		verdict string
	}
	want := map[key]int{}
	for _, d := range acked {
		want[key{d.session, d.group, d.verdict}]++
	}
	got := map[key]int{}
	for i, e := range evs {
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			b.check(false, "event feed skips from seq %d to %d", evs[i-1].Seq, e.Seq)
		}
		b.check(e.Type != events.TypeGap, "event feed carries an %s marker at seq %d", events.TypeGap, e.Seq)
		if e.Type != events.TypeDecisionRecorded || !sessions[e.Session] {
			continue
		}
		gid, _ := e.Data["group_id"].(float64)
		verdict, _ := e.Data["decision"].(string)
		got[key{e.Session, int(gid), verdict}]++
	}
	for k, n := range want {
		b.check(got[k] == n, "session %s: %d decision event(s) for %s on group %d, want %d", k.session, got[k], k.verdict, k.group, n)
	}
	for k, n := range got {
		b.check(want[k] > 0, "session %s: %d unacknowledged decision event(s) for %s on group %d", k.session, n, k.verdict, k.group)
	}
	exp, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	dropped := exp.sumPrefix("goldrec_events_dropped_total")
	b.check(dropped == 0, "the event bus dropped %v event(s)", dropped)
	return nil
}

// sessionInfo reads a session's counters and phase timings.
func sessionInfo(ctx context.Context, c *client, sid string) (service.SessionInfo, error) {
	var info service.SessionInfo
	_, err := c.getJSON(ctx, rSession, "/v1/sessions/"+sid, &info)
	return info, err
}

// scrape reads the server's Prometheus exposition.
func scrape(ctx context.Context, c *client) (promSample, error) {
	r, err := c.do(ctx, rScrape, http.MethodGet, "/metrics/prometheus", nil, false)
	if err != nil {
		return nil, err
	}
	return parseProm(r.body), nil
}

// finish reads the server's peak RSS and CPU time, then stops it.
func finish(srv *server, s sample) error {
	rss, err := srv.peakRSSMB()
	if err != nil {
		srv.kill()
		return err
	}
	cpu, err := srv.cpuSeconds()
	if err != nil {
		srv.kill()
		return err
	}
	s["server_rss_mb"] = rss
	s["server.cpu_s"] = cpu
	return srv.stop()
}

// reviewerMetrics fills the end-to-end metrics a reviewer's loop
// determines, measured from since (when the reviewer started waiting
// for the first question) to done (golden export received). Question
// waits pool across the run's iterations.
func (b *bench) reviewerMetrics(s sample, since, done time.Time, l loop) {
	s["first_question_s"] = l.firstQuestion.Sub(since).Seconds()
	if n := len(l.acked); n > 0 && l.lastAck.After(l.firstQuestion) {
		s["questions_per_s"] = float64(n) / l.lastAck.Sub(l.firstQuestion).Seconds()
	}
	s["review_s"] = done.Sub(since).Seconds()
	if b.pooling {
		b.waits = append(b.waits, l.waits...)
	}
}

// quality scores an exported records CSV by the paper's protocol and
// pools the confusion counts across the run's scored iterations.
func (b *bench) quality(m *mirror, exported []byte) error {
	c, err := m.quality(exported, b.seed)
	if err != nil || !b.scoring {
		return err
	}
	b.confusion.TP += c.TP
	b.confusion.FP += c.FP
	b.confusion.FN += c.FN
	b.confusion.TN += c.TN
	return nil
}

// routeLayers fills the per-route service metrics: client latency from
// the accounting of this pass, server time from the exposition diff.
func routeLayers(s sample, acc *accounting, d promSample) {
	for _, r := range timedRoutes {
		xs := acc.samples(r)
		s["service."+r+".client_ms.p50"] = quantile(xs, 0.5)
		s["service."+r+".client_ms.p90"] = quantile(xs, 0.9)
		var sum, n float64
		for _, label := range serverRoute[r] {
			l := fmt.Sprintf("route=%q", label)
			for _, h := range []string{"goldrec_http_request_seconds", "goldrec_http_stream_seconds"} {
				sum += d.get(h+"_sum", l)
				n += d.get(h+"_count", l)
			}
		}
		if n > 0 {
			s["service."+r+".server_ms.mean"] = 1000 * sum / n
			s["service."+r+".overhead_ms"] = mean(xs) - 1000*sum/n
		}
	}
}

// storeLayers fills the store and events metrics from an exposition
// diff covering the timed phase.
func storeLayers(s sample, d promSample) {
	records := d.get("goldrec_store_wal_group_records_sum", "")
	fsyncs := d.get("goldrec_store_wal_fsync_seconds_count", "")
	s["store.wal_appends"] = records
	s["store.wal_append_ms.mean"] = d.histMeanMS("goldrec_store_wal_append_seconds", "")
	s["store.fsyncs"] = fsyncs
	s["store.wal_fsync_ms.mean"] = d.histMeanMS("goldrec_store_wal_fsync_seconds", "")
	if fsyncs > 0 {
		s["store.records_per_fsync"] = records / fsyncs
	}
	s["store.snapshot_write_ms"] = 1000 * d.get("goldrec_store_snapshot_write_seconds_sum", "")
	s["events.emitted"] = d.sumPrefix("goldrec_events_emitted_total")
	s["events.dropped"] = d.sumPrefix("goldrec_events_dropped_total")
}

// engineLayers fills the engine phase metrics from session timings.
func engineLayers(s sample, t goldrec.PhaseTimings) {
	s["engine.context_prep_s"] += t.ContextPrep.Seconds()
	s["engine.graph_build_s"] += t.GraphBuild.Seconds()
	s["engine.group_search_s"] += t.GroupSearch.Seconds()
}
