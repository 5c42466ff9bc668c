package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/table"
)

// generatedCSV renders a datagen dataset as the clustered CSV the
// service ingests. The generator's random keys are replaced with ones
// that sort in generation order, so the parsed dataset's cluster i is
// the generator's cluster i and its ground truth stays aligned.
func generatedCSV(t *testing.T, gen *datagen.Generated) []byte {
	t.Helper()
	for ci := range gen.Data.Clusters {
		gen.Data.Clusters[ci].Key = fmt.Sprintf("c%07d", ci)
	}
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf, gen.Data, "key"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inProcessSession parses csv exactly as an upload does and opens a
// library session on column col.
func inProcessSession(t *testing.T, csv []byte, col int) (*goldrec.Session, *table.Dataset) {
	t.Helper()
	ds, err := table.ReadCSV(bytes.NewReader(csv), "gen", "key", "")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := goldrec.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cons.ColumnIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	return sess, ds
}

// issuedGroups is the identity of every issued group the differential
// test compares: id, program, structure and member pairs.
func issuedGroups(st goldrec.ReviewState) []goldrec.GroupState {
	out := make([]goldrec.GroupState, len(st.Groups))
	for i, g := range st.Groups {
		out[i] = goldrec.GroupState{ID: g.ID, Program: g.Program, Structure: g.Structure, Pairs: g.Pairs}
	}
	return out
}

// lagSchedule reviews sess the way a reviewer who answers b groups at
// a time (b <= prefetch) and the service's generator interleave: issue
// prefetch groups, then decide the next b (the oracle's verdicts; fewer
// for the budget's last batch) and issue as many more, for budget
// decisions. b = 1 is the one-at-a-time reviewer. It returns the
// verdicts in order.
func lagSchedule(t *testing.T, sess *goldrec.Session, truth *table.Truth, prefetch, b, budget int) []goldrec.Decision {
	t.Helper()
	verify := sess.OracleVerifier(truth, 0)
	var groups []*goldrec.Group
	issue := func() {
		if sess.Exhausted() {
			return
		}
		if g, ok := sess.NextGroup(); ok {
			groups = append(groups, g)
		}
	}
	for i := 0; i < prefetch; i++ {
		issue()
	}
	var verdicts []goldrec.Decision
	for k := 0; k < budget && k < len(groups); {
		n := min(b, budget-k, len(groups)-k)
		for _, g := range groups[k : k+n] {
			d := goldrec.Rejected
			if ok, dir := verify(g); ok {
				d = goldrec.Approved
				if dir == goldrec.Backward {
					d = goldrec.ApprovedBackward
				}
			}
			if _, err := sess.Decide(g.ID, d); err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, d)
		}
		for i := 0; i < n; i++ {
			issue()
		}
		k += n
	}
	return verdicts
}

// TestLagScheduleDifferential checks that the service's session is the
// library's Session under the lag-prefetch schedule, whatever the
// generator's timing and whichever decision route the reviewer uses: a
// reviewer over HTTP who answers b groups at a time — one by one on the
// single-decision route, or b per request on the batch route — sees
// the same groups (id, program, pairs) as an in-process Session that
// issues prefetch groups and then decides b / issues b more, the
// reviewed column ends identical, the WAL records exactly that
// schedule, and re-executing the WAL regenerates the same group ids.
func TestLagScheduleDifferential(t *testing.T) {
	const budget = 10
	for _, tc := range []struct {
		name     string
		gen      func(datagen.Config) *datagen.Generated
		clusters int
	}{
		{"Address", datagen.Address, 6},
		{"JournalTitle", datagen.JournalTitle, 24},
	} {
		for _, p := range []struct {
			prefetch int
			legs     []lagLeg
		}{
			{1, []lagLeg{{1, []string{"single"}}}},
			{2, []lagLeg{{1, []string{"single", "batch"}}, {2, []string{"batch"}}}},
			{8, []lagLeg{{1, []string{"single", "batch"}}, {8, []string{"batch"}}}},
		} {
			prefetch := p.prefetch
			t.Run(fmt.Sprintf("%s/prefetch=%d", tc.name, prefetch), func(t *testing.T) {
				gen := tc.gen(datagen.Config{Seed: 7, Clusters: tc.clusters})
				csv := generatedCSV(t, gen)
				for _, leg := range p.legs {
					b := leg.b
					t.Run(fmt.Sprintf("b=%d", b), func(t *testing.T) {
						ref, refDS := inProcessSession(t, csv, gen.Col)
						verdicts := lagSchedule(t, ref, gen.Truth, prefetch, b, budget)
						issued := issuedGroups(ref.ReviewState())
						if len(verdicts) != budget || len(issued) <= budget {
							t.Fatalf("dataset too small: %d group(s) issued for a budget of %d", len(issued), budget)
						}

						// The WAL the schedule implies: issue 0..prefetch-1, then
						// for each batch of n decisions from k, decide k..k+n-1 /
						// issue k+prefetch..k+prefetch+n-1.
						var want []store.WALRecord
						for id := 0; id < prefetch && id < len(issued); id++ {
							want = append(want, store.WALRecord{Op: store.OpIssue, GroupID: id})
						}
						for k := 0; k < len(verdicts); k += b {
							n := min(b, len(verdicts)-k)
							for i := k; i < k+n; i++ {
								want = append(want, store.WALRecord{Op: store.OpDecide, GroupID: i, Decision: verdicts[i].String()})
							}
							for i := k + prefetch; i < k+prefetch+n && i < len(issued); i++ {
								want = append(want, store.WALRecord{Op: store.OpIssue, GroupID: i})
							}
						}
						// Re-executing that WAL regenerates the same ids and groups.
						// Each route below checks its WAL equals it.
						replayed, replayDS := inProcessSession(t, csv, gen.Col)
						for i, r := range want {
							switch r.Op {
							case store.OpIssue:
								g, ok := replayed.NextGroup()
								if !ok || g.ID != r.GroupID {
									t.Fatalf("WAL record %d: replay issued (%v, ok=%v), log says group %d", i, g, ok, r.GroupID)
								}
							case store.OpDecide:
								d, err := goldrec.ParseDecision(r.Decision)
								if err != nil {
									t.Fatal(err)
								}
								if _, err := replayed.Decide(r.GroupID, d); err != nil {
									t.Fatalf("WAL record %d: %v", i, err)
								}
							}
						}
						if got := issuedGroups(replayed.ReviewState()); !reflect.DeepEqual(got, issued) {
							t.Fatalf("replay issued\n %+v\nlag-%d schedule issued\n %+v", got, prefetch, issued)
						}

						for _, route := range leg.routes {
							t.Run(route, func(t *testing.T) {
								fsStore, err := store.OpenFS(t.TempDir(), store.FSOptions{NoSync: true})
								if err != nil {
									t.Fatal(err)
								}
								t.Cleanup(func() { fsStore.Close() }) // after the service closes
								svc, ts := newTestServer(t, Options{Prefetch: prefetch, Store: fsStore, Shards: testShards(t)})
								sess := openCSV(t, ts.URL, csv, gen.Data.Attrs[gen.Col])

								asked := func(k int, g goldrec.GroupState) {
									t.Helper()
									g.Decision, g.Sites, g.Gain = 0, 0, 0 // page annotations, not identity
									if want := issued[k]; !reflect.DeepEqual(g, want) {
										t.Fatalf("question %d: service asked %+v, lag-%d schedule issues %+v", k, g, prefetch, want)
									}
								}
								for k := 0; k < len(verdicts); k += b {
									n := min(b, len(verdicts)-k)
									if route == "single" {
										g, ok := nextGroup(t, ts.URL, sess.ID)
										if !ok {
											t.Fatalf("question %d: session exhausted", k)
										}
										asked(k, g)
										if _, status := decide(t, ts.URL, sess.ID, g.ID, verdicts[k].String()); status != http.StatusOK {
											t.Fatalf("decide group %d: status %d", g.ID, status)
										}
										continue
									}
									page := pendingN(t, ts.URL, sess.DatasetID, sess.ID, n)
									reqs := make([]DecisionRequest, n)
									for i, g := range page {
										asked(k+i, g)
										reqs[i] = DecisionRequest{GroupID: g.ID, Decision: verdicts[k+i].String()}
									}
									body, err := json.Marshal(BatchDecisionsRequest{Decisions: reqs})
									if err != nil {
										t.Fatal(err)
									}
									if status := postBatch(t, ts.URL, sess.DatasetID, sess.ID, string(body), nil); status != http.StatusOK {
										t.Fatalf("decide groups %d..%d: status %d", k, k+n-1, status)
									}
								}
								// A full-buffer wait returns once the generator parks.
								doJSON(t, "GET", fmt.Sprintf("%s/v1/sessions/%s/groups?limit=%d&wait=true", ts.URL, sess.ID, prefetch), nil, nil)
								st, err := svc.As("").ReviewState(sess.ID)
								if err != nil {
									t.Fatal(err)
								}
								if got := issuedGroups(st); !reflect.DeepEqual(got, issued) {
									t.Fatalf("service issued\n %+v\nlag-%d schedule issued\n %+v", got, prefetch, issued)
								}
								exp, err := svc.As("").Export(sess.DatasetID, false)
								if err != nil {
									t.Fatal(err)
								}
								assertColumn(t, "service", exp, refDS, gen.Col)
								assertColumn(t, "replay", exp, replayDS, gen.Col)

								var recs []store.WALRecord
								if err := fsStore.ReplayWAL(context.Background(), sess.DatasetID, sess.ID, func(r store.WALRecord) error {
									recs = append(recs, r)
									return nil
								}); err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(recs, want) {
									t.Fatalf("WAL records\n got %+v\nwant %+v", recs, want)
								}
							})
						}
					})
				}
			})
		}
	}
}

// lagLeg is one reviewer shape of TestLagScheduleDifferential: b
// decisions per round, on each of the named decision routes.
type lagLeg struct {
	b      int
	routes []string
}

// assertColumn checks an export's column col against a dataset's.
func assertColumn(t *testing.T, what string, exp ExportData, ds *table.Dataset, col int) {
	t.Helper()
	i := 0
	for _, cl := range ds.Clusters {
		for _, r := range cl.Records {
			if i >= len(exp.Records) {
				t.Fatalf("%s: export has %d record(s), dataset more", what, len(exp.Records))
			}
			if got, want := exp.Records[i].Values[col], r.Values[col]; got != want {
				t.Fatalf("%s: record %d column %d = %q, want %q", what, i, col, got, want)
			}
			i++
		}
	}
	if i != len(exp.Records) {
		t.Fatalf("%s: export has %d record(s), dataset %d", what, len(exp.Records), i)
	}
}

// openCSV uploads a clustered CSV and opens a session on column.
func openCSV(t *testing.T, base string, csv []byte, column string) SessionInfo {
	t.Helper()
	var ds DatasetInfo
	if status := doJSON(t, "POST", base+"/v1/datasets?name=gen&key=key", bytes.NewReader(csv), &ds); status != http.StatusCreated {
		t.Fatalf("upload: status %d", status)
	}
	return openSession(t, base, ds.ID, column)
}

// openGenerated uploads a generated dataset and opens a session on its
// target column.
func openGenerated(t *testing.T, base string, gen *datagen.Generated) SessionInfo {
	t.Helper()
	return openCSV(t, base, generatedCSV(t, gen), gen.Data.Attrs[gen.Col])
}

// TestLongPollReleaseRule checks the wait= release rule for pages of
// at least prefetch groups: such a wait returns only with a full
// buffer or once the stream has ended, before and between decisions,
// for limit=prefetch, limit above it, and limit=0 (counted as
// prefetch).
func TestLongPollReleaseRule(t *testing.T) {
	const prefetch = 4
	svc, ts := newTestServer(t, Options{Prefetch: prefetch})
	sess := openGenerated(t, ts.URL, datagen.JournalTitle(datagen.Config{Seed: 3, Clusters: 6}))
	for round := 0; ; round++ {
		var head *goldrec.GroupState
		for _, limit := range []int{prefetch, prefetch + 3, 0} {
			var page GroupPage
			url := fmt.Sprintf("%s/v1/sessions/%s/groups?limit=%d&wait=true", ts.URL, sess.ID, limit)
			if status := doJSON(t, "GET", url, nil, &page); status != http.StatusOK {
				t.Fatalf("round %d limit %d: status %d", round, limit, status)
			}
			if page.Pending != prefetch {
				// Only the end of the stream releases a short page, and
				// exhaustion is permanent, so the state still shows it.
				st, err := svc.As("").ReviewState(sess.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Exhausted {
					t.Fatalf("round %d limit %d: wait returned with %d of %d groups pending on a live stream (status %s)",
						round, limit, page.Pending, prefetch, page.Status)
				}
			}
			if len(page.Groups) > 0 {
				head = &page.Groups[0]
			}
		}
		if head == nil {
			return // nothing left to decide
		}
		if _, status := decide(t, ts.URL, sess.ID, head.ID, "reject"); status != http.StatusOK {
			t.Fatalf("round %d: decide group %d: status %d", round, head.ID, status)
		}
	}
}

// TestReadsDuringNextGroup opens a session whose prefetch buffer takes
// hundreds of milliseconds to fill and reads it while the generator
// works: a limit=1 wait page returns as soon as the first group is
// logged (0 < pending < prefetch, which a generator holding the session
// mutex across the whole prefetch could never show), and session info,
// the plan and the review state keep answering while NextGroup runs.
// Under -race this also checks that none of those reads touches engine
// state the generator is mutating.
func TestReadsDuringNextGroup(t *testing.T) {
	const prefetch = 32
	_, ts := newTestServer(t, Options{Prefetch: prefetch})
	sess := openGenerated(t, ts.URL, datagen.Address(datagen.Config{Seed: 1, Clusters: 12}))

	var page GroupPage
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/groups?limit=1&wait=true", nil, &page); status != http.StatusOK {
		t.Fatalf("groups: status %d", status)
	}
	if page.Pending <= 0 || page.Pending >= prefetch || len(page.Groups) != 1 || page.Status != StatusReviewing {
		t.Fatalf("first limit=1 page: status %s, pending %d of %d, %d group(s); want the first group before the buffer fills",
			page.Status, page.Pending, prefetch, len(page.Groups))
	}

	// Readers race the filling buffer until session info shows it full.
	full := make(chan struct{})
	infoPath := "/v1/sessions/" + sess.ID
	var partial int
	var wg sync.WaitGroup
	for _, path := range []string{infoPath, "/v1/plan?budget=4", infoPath + "/state"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for deadline := time.Now().Add(60 * time.Second); !chanClosed(full); {
				if time.Now().After(deadline) {
					t.Errorf("GET %s: buffer never filled", path)
					return
				}
				var info SessionInfo
				var out any
				if path == infoPath {
					out = &info
				}
				if status, err := requestJSON("GET", ts.URL+path, nil, out); err != nil || status != http.StatusOK {
					t.Errorf("GET %s: status %d, err %v", path, status, err)
					return
				}
				if out == nil {
					continue
				}
				if info.Stats.GroupsSeen < info.Pending {
					t.Errorf("session info: %d group(s) seen but %d pending", info.Stats.GroupsSeen, info.Pending)
				}
				if info.Pending >= prefetch {
					close(full)
					return
				}
				if partial == 0 {
					partial = info.Pending
				}
			}
		}(path)
	}
	wg.Wait()
	if partial == 0 {
		t.Error("session info never answered with a partly filled buffer")
	}
}
