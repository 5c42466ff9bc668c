package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
)

// The tests below drive the column-session lock protocol (column.go)
// directly, against a fake engine whose NextGroupCtx blocks until the
// test releases it: no HTTP, no real engine, no store.

// fakeEngine issues groups 0, 1, ... on demand. NextGroupCtx signals
// entered, then blocks until the test sends on release: true returns
// the next group, false ends the stream.
type fakeEngine struct {
	entered chan struct{}
	release chan bool

	mu      sync.Mutex
	inNext  bool
	issued  []*goldrec.Group
	decided []int
	// overlap lists the engine calls made while NextGroupCtx ran: the
	// protocol must never make one (only ApproveRate and Timings are
	// safe then).
	overlap []string
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{entered: make(chan struct{}), release: make(chan bool)}
}

func (f *fakeEngine) NextGroupCtx(context.Context) (*goldrec.Group, bool) {
	f.mu.Lock()
	f.inNext = true
	f.mu.Unlock()
	f.entered <- struct{}{}
	more := <-f.release
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inNext = false
	if !more {
		return nil, false
	}
	g := &goldrec.Group{ID: len(f.issued), Program: fmt.Sprintf("p%d", len(f.issued))}
	f.issued = append(f.issued, g)
	return g, true
}

// exclusiveLocked records a call made while NextGroupCtx runs. Caller
// holds f.mu.
func (f *fakeEngine) exclusiveLocked(method string) {
	if f.inNext {
		f.overlap = append(f.overlap, method)
	}
}

func (f *fakeEngine) Group(id int) (*goldrec.Group, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exclusiveLocked("Group")
	if id < 0 || id >= len(f.issued) {
		return nil, false
	}
	return f.issued[id], true
}

func (f *fakeEngine) Decide(id int, _ goldrec.Decision) (goldrec.ApplyStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exclusiveLocked("Decide")
	f.decided = append(f.decided, id)
	return goldrec.ApplyStats{}, nil
}

func (f *fakeEngine) Stats() goldrec.SessionStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exclusiveLocked("Stats")
	return goldrec.SessionStats{GroupsSeen: len(f.issued), GroupsApplied: len(f.decided)}
}

func (f *fakeEngine) ReviewState() goldrec.ReviewState {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exclusiveLocked("ReviewState")
	return goldrec.ReviewState{Column: "fake"}
}

func (f *fakeEngine) ApproveRate() float64          { return 0.5 }
func (f *fakeEngine) Timings() goldrec.PhaseTimings { return goldrec.PhaseTimings{} }

// newTestColumn returns a published session on a fake engine; cleanup
// fails the test if the protocol touched the engine while it was busy.
func newTestColumn(t *testing.T, prefetch int) (*columnSession, *fakeEngine) {
	t.Helper()
	f := newFakeEngine()
	cs := newColumnSession(&dataset{id: "ds_test"}, "cs_test", "Name", 0, prefetch)
	if !cs.publish(f, nil) {
		t.Fatal("publish on an open session failed")
	}
	t.Cleanup(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if len(f.overlap) > 0 {
			t.Errorf("engine called while NextGroupCtx ran: %v", f.overlap)
		}
	})
	return cs, f
}

func okIssue(*goldrec.Group, int) error { return nil }
func noExhaust()                        {}

// startStep runs one generator step on its own goroutine and returns
// once the step is inside NextGroupCtx (busy), with a channel that
// delivers the step's result.
func startStep(t *testing.T, cs *columnSession, f *fakeEngine, issue func(*goldrec.Group, int) error, exhausted func()) <-chan bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- cs.step(context.Background(), issue, exhausted) }()
	within(t, f.entered, "the generator entering NextGroupCtx")
	return done
}

// issueGroup runs one full generator step that buffers a group.
func issueGroup(t *testing.T, cs *columnSession, f *fakeEngine) {
	t.Helper()
	done := startStep(t, cs, f, okIssue, noExhaust)
	f.release <- true
	if !within(t, done, "the step") {
		t.Fatal("the step stopped the generator")
	}
}

// decideAsync approves ids on its own goroutine.
func decideAsync(cs *columnSession, ids ...int) <-chan error {
	done := make(chan error, 1)
	go func() {
		decisions := make([]goldrec.Decision, len(ids))
		for i := range decisions {
			decisions[i] = goldrec.Approved
		}
		_, err := cs.decide(ids, decisions, func() error { return nil }, func() {})
		done <- err
	}()
	return done
}

// within returns the next value from ch, failing the test if none
// arrives promptly.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// stays fails the test if ch delivers within a short window: the
// operation behind it must still be waiting.
func stays[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s did not wait", what)
	case <-time.After(25 * time.Millisecond):
	}
}

func chanClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestColumnReadsWhileBusy: the group page (plain, and a long poll the
// buffer already satisfies), info and the planner's read of the pending
// buffer all answer while NextGroupCtx is blocked.
func TestColumnReadsWhileBusy(t *testing.T) {
	cs, f := newTestColumn(t, 2)
	issueGroup(t, cs, f)
	step := startStep(t, cs, f, okIssue, noExhaust)

	reads := make(chan struct{})
	go func() {
		defer close(reads)
		for _, wait := range []<-chan struct{}{nil, make(chan struct{})} {
			page, _, _, err := cs.page(1, wait, nil)
			if err != nil || page.Status != StatusReviewing || len(page.Groups) != 1 || page.Groups[0].ID != 0 {
				t.Errorf("page (wait %v): %+v, %v", wait != nil, page, err)
			}
		}
		if info := cs.info(); info.Status != StatusReviewing || info.Pending != 1 {
			t.Errorf("info: status %s, pending %d", info.Status, info.Pending)
		}
		var planned []int
		cs.readPending(func(pending []*goldrec.Group, rate float64) {
			for _, g := range pending {
				planned = append(planned, g.ID)
			}
		})
		if !slices.Equal(planned, []int{0}) {
			t.Errorf("plan read %v, want [0]", planned)
		}
	}()
	within(t, reads, "reads while NextGroupCtx is blocked")
	f.release <- true
	within(t, step, "the step")
}

// TestColumnDecisionWaitsForPark: a decision on a buffered group is
// admitted only once the generator parks — buffer full, or the stream
// exhausted, stalled or closed — never while it is idle with room or
// inside NextGroupCtx.
func TestColumnDecisionWaitsForPark(t *testing.T) {
	for _, tc := range []struct {
		name    string
		more    bool  // what the blocked NextGroupCtx returns
		issue   error // what the issue callback returns
		close   bool  // close the session while the engine is busy
		wantErr error
	}{
		{name: "buffer full", more: true},
		{name: "exhausted", more: false},
		{name: "stalled", more: true, issue: errors.New("disk full")},
		{name: "closed", more: true, close: true, wantErr: ErrNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, f := newTestColumn(t, 2)
			issueGroup(t, cs, f)
			decided := decideAsync(cs, 0)
			step := startStep(t, cs, f, func(*goldrec.Group, int) error { return tc.issue }, noExhaust)
			stays(t, decided, "a decision while the generator is unparked")
			if tc.close {
				cs.close()
				if err := within(t, decided, "the decision after close"); !errors.Is(err, tc.wantErr) {
					t.Fatalf("decision after close: %v, want %v", err, tc.wantErr)
				}
			}
			f.release <- tc.more
			within(t, step, "the step")
			if tc.close {
				return
			}
			if err := within(t, decided, "the decision once parked"); err != nil {
				t.Fatalf("decision once parked: %v", err)
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			if !slices.Equal(f.decided, []int{0}) {
				t.Fatalf("engine decided %v, want [0]", f.decided)
			}
		})
	}
}

// TestColumnCloseWhileBusy: closing the session while NextGroupCtx runs
// releases every waiter; the generator exits without calling back once
// the engine returns.
func TestColumnCloseWhileBusy(t *testing.T) {
	cs, f := newTestColumn(t, 2)
	issueGroup(t, cs, f)
	callbacks := 0 // written under cs.mu by the callbacks only
	step := startStep(t, cs, f,
		func(*goldrec.Group, int) error { callbacks++; return nil },
		func() { callbacks++ })

	decided := decideAsync(cs, 0)
	polled := make(chan error, 1)
	go func() {
		_, _, _, err := cs.page(0, make(chan struct{}), nil)
		polled <- err
	}()
	state := make(chan goldrec.ReviewState, 1)
	go func() { state <- cs.state() }()
	retired := make(chan error, 1)
	go func() { retired <- cs.retire(func() error { return nil }) }()

	cs.close()
	for what, ch := range map[string]<-chan error{"decision": decided, "long poll": polled} {
		if err := within(t, ch, "the "+what+" after close"); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s after close: %v, want ErrNotFound", what, err)
		}
	}
	// state and retire read the engine, so they wait for it to return.
	f.release <- true
	if within(t, step, "the step after close") {
		t.Error("the generator went on after close")
	}
	if st := within(t, state, "state after close"); st.Column != "fake" {
		t.Errorf("state after close: %+v", st)
	}
	if err := within(t, retired, "retire after close"); !errors.Is(err, ErrNotFound) {
		t.Errorf("retire after close: %v, want ErrNotFound", err)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if callbacks != 0 {
		t.Errorf("%d callback(s) ran after close", callbacks)
	}
	if len(cs.pending) != 1 {
		t.Errorf("pending %d after close, want 1", len(cs.pending))
	}
}

// TestColumnRevMovesOnlyOnChange: rev moves once per observable change
// (issue, decision, close) and never on reads, rejected decisions or
// the generator entering and leaving the engine; leaving it still
// wakes the waiters.
func TestColumnRevMovesOnlyOnChange(t *testing.T) {
	cs, f := newTestColumn(t, 2)
	rev := func() uint64 {
		t.Helper()
		_, r, _, err := cs.page(0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r0 := rev()
	cs.info()
	cs.readPending(func([]*goldrec.Group, float64) {})
	if r := rev(); r != r0 {
		t.Fatalf("reads moved rev %d → %d", r0, r)
	}

	_, _, changed, _ := cs.page(0, nil, nil)
	var revAtIssue uint64
	var woken bool
	step := startStep(t, cs, f, func(*goldrec.Group, int) error {
		revAtIssue, woken = cs.rev, chanClosed(changed)
		return nil
	}, noExhaust)
	if r := rev(); r != r0 {
		t.Fatalf("entering the engine moved rev %d → %d", r0, r)
	}
	f.release <- true
	within(t, step, "the step")
	if revAtIssue != r0 {
		t.Errorf("leaving the engine moved rev %d → %d", r0, revAtIssue)
	}
	if !woken {
		t.Error("leaving the engine woke no waiter")
	}
	if r := rev(); r != r0+1 {
		t.Fatalf("an issue moved rev by %d, want 1", r-r0)
	}

	issueGroup(t, cs, f) // fill the buffer so decisions are admitted
	r1 := rev()
	if err := within(t, decideAsync(cs, 7), "a rejected decision"); !errors.Is(err, ErrConflict) {
		t.Fatalf("decision on an unissued group: %v, want ErrConflict", err)
	}
	if r := rev(); r != r1 {
		t.Fatalf("a rejected decision moved rev %d → %d", r1, r)
	}
	if err := within(t, decideAsync(cs, 0), "a decision"); err != nil {
		t.Fatal(err)
	}
	if r := rev(); r != r1+1 {
		t.Fatalf("a decision moved rev by %d, want 1", r-r1)
	}
	cs.close()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.rev != r1+2 {
		t.Fatalf("close moved rev by %d, want 1", cs.rev-r1-1)
	}
}

// TestColumnCancelledWaitReturns: long polls released by their cancel
// or drain channel return promptly with the current page, and the wait
// starts no goroutine that could outlive them.
func TestColumnCancelledWaitReturns(t *testing.T) {
	cs, _ := newTestColumn(t, 4)
	before := runtime.NumGoroutine()
	for _, byDrain := range []bool{false, true} {
		cancel, drain := make(chan struct{}), make(chan struct{})
		const waiters = 8
		pages := make(chan GroupPage, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				page, _, _, err := cs.page(0, cancel, drain)
				if err != nil {
					t.Error(err)
				}
				pages <- page
			}()
		}
		stays(t, pages, "a long poll on an empty buffer")
		if byDrain {
			close(drain)
		} else {
			close(cancel)
		}
		for i := 0; i < waiters; i++ {
			if page := within(t, pages, "a cancelled long poll"); page.Status != StatusReviewing || len(page.Groups) != 0 {
				t.Fatalf("cancelled long poll: %+v", page)
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) left behind by cancelled waits", runtime.NumGoroutine()-before)
		}
	}
}

// TestColumnIssueFailureStalls: when the issue callback fails, the
// group is not buffered, the session reads as stalled, held long polls
// are released, and the buffered groups can still be decided.
func TestColumnIssueFailureStalls(t *testing.T) {
	cs, f := newTestColumn(t, 3)
	issueGroup(t, cs, f)
	polled := make(chan GroupPage, 1)
	go func() {
		page, _, _, err := cs.page(0, make(chan struct{}), nil)
		if err != nil {
			t.Error(err)
		}
		polled <- page
	}()
	step := startStep(t, cs, f, func(*goldrec.Group, int) error { return errors.New("disk full") }, noExhaust)
	stays(t, polled, "a long poll before the stall")
	f.release <- true
	if within(t, step, "the failed step") {
		t.Fatal("the generator went on after a failed issue")
	}
	page := within(t, polled, "the long poll after the stall")
	if page.Status != StatusStalled || page.Pending != 1 || len(page.Groups) != 1 || page.Groups[0].ID != 0 {
		t.Fatalf("page after the stall: %+v", page)
	}
	if err := within(t, decideAsync(cs, 1), "a decision on the unlogged group"); !errors.Is(err, ErrConflict) {
		t.Fatalf("decision on the unlogged group: %v, want ErrConflict", err)
	}
	if err := within(t, decideAsync(cs, 0), "a decision on the buffered group"); err != nil {
		t.Fatalf("decision on the buffered group: %v", err)
	}
	if info := cs.info(); info.Status != StatusStalled || info.Pending != 0 {
		t.Fatalf("after deciding: status %s, pending %d", info.Status, info.Pending)
	}
}
