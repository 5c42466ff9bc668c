package store

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/goldrec/goldrec/internal/obs/trace"
)

// Group commit. A synced log append is fsync-bound: the write syscall
// costs single-digit microseconds, the fsync a hundred or more (see
// BENCH_store.json). One fsync, however, makes durable *everything*
// written to the file before it — so concurrent appends that land in
// the same flush can share one. The FS backend therefore routes every
// synced append — session WAL, tenant, library or event log — through
// a single committer goroutine that drains all currently-queued
// requests into one batch, concatenates the records per log file, and
// issues one write + one fsync per file. Each caller blocks on its own
// completion channel and returns only once *its* records are durable;
// a failed write or fsync fails every waiter whose records were in
// that file's batch, because none of them can know whether their bytes
// reached the platter.
//
// Batching is opportunistic: a request that arrives at an idle
// committer flushes immediately (no added latency at concurrency 1),
// and the batch for the next flush accumulates naturally while the
// previous flush's fsync is in flight. maxBatchBytes bounds how much a
// single flush buffers.
//
// Crash safety is unchanged from single appends: records are complete
// JSON lines, the concatenated batch is written with one Write to an
// O_APPEND file, and a crash anywhere between write and fsync leaves a
// clean prefix of complete lines plus at most one torn final line,
// which repairTail truncates and replay drops.

// maxBatchBytes bounds one flush's buffered payload. One decision
// record is ~50 bytes, so the bound never triggers before ~20k queued
// records.
const maxBatchBytes = 1 << 20

// walGroupRecordBuckets resolve records-per-flush: 1 means no
// coalescing happened, the top bucket means the committer is saturated.
var walGroupRecordBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// walWrite is one queued durable append: one or more complete,
// newline-terminated records bound for a single log.
type walWrite struct {
	log     *logFile
	payload []byte
	records int
	// ctx carries the caller's trace; the flush span attaches to the
	// batch leader's trace. Cancellation is the enqueuer's business —
	// by the time a walWrite reaches the committer it will be written.
	ctx  context.Context
	done chan error // buffered(1): the flusher never blocks on an abandoned caller
}

// groupCommitter is the channel plumbing between appenders and the
// single flusher goroutine.
type groupCommitter struct {
	// reqs is unbuffered on purpose: a successful send is a rendezvous
	// with the flusher, so once Close stops the flusher no request can
	// be stranded in a buffer with nobody left to fail it.
	reqs chan *walWrite
	stop chan struct{}
	done chan struct{}
	// buf is the flusher-local concatenation buffer, reused across
	// flushes (only the flusher goroutine touches it).
	buf []byte
}

func (s *FS) startCommitter() {
	s.gc = &groupCommitter{
		reqs: make(chan *walWrite),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.flushLoop()
}

// stopCommitter halts the flusher and waits for it to exit. Requests
// still parked at the rendezvous fail with "store: closed" via their
// own select; requests already in a gathered batch are flushed first.
func (s *FS) stopCommitter() {
	if s.gc == nil {
		return
	}
	s.closeOnce.Do(func() { close(s.gc.stop) })
	<-s.gc.done
}

// walWritePool recycles walWrites (and their completion channels): at
// high concurrency the two allocations per append are a measurable
// fraction of the amortized flush cost.
var walWritePool = sync.Pool{
	New: func() any { return &walWrite{done: make(chan error, 1)} },
}

// appendGrouped hands payload to the committer and waits for
// durability. Cancellation before the rendezvous means the records are
// never written; cancellation after it abandons the wait only — the
// flush proceeds and the records may still become durable. The caller
// holds the read side of lf.mu; appendGrouped releases it once the
// records' fate is settled, which for an abandoned wait is after the
// flush.
func (s *FS) appendGrouped(ctx context.Context, lf *logFile, payload []byte, records int) error {
	w := walWritePool.Get().(*walWrite)
	w.log, w.payload, w.records, w.ctx = lf, payload, records, ctx
	release := func(err error) error {
		w.log, w.payload, w.ctx = nil, nil, nil
		walWritePool.Put(w)
		lf.mu.RUnlock()
		return err
	}
	select {
	case s.gc.reqs <- w:
	case <-s.gc.stop:
		return release(errClosed)
	case <-ctx.Done():
		return release(ctx.Err())
	}
	select {
	case err := <-w.done:
		return release(err)
	case <-ctx.Done():
		// Abandoned: the flusher will still write the records and
		// deliver into w.done, so w must NOT be pooled, and the log
		// must not be replaced under the write until it lands.
		go func() {
			<-w.done
			lf.mu.RUnlock()
		}()
		return ctx.Err()
	}
}

func (s *FS) flushLoop() {
	defer close(s.gc.done)
	var batch []*walWrite // reused across flushes; elements are cleared after each
	for {
		select {
		case <-s.gc.stop:
			return
		case w := <-s.gc.reqs:
			batch = s.gatherBatch(w, batch[:0])
			s.flushBatch(batch)
			for i := range batch {
				batch[i] = nil // release to the pool's lifecycle, not this slice's
			}
		}
	}
}

// gatherBatch collects everything queued behind first into one batch:
// it drains only requests already parked at the rendezvous, so it adds
// no latency.
func (s *FS) gatherBatch(first *walWrite, batch []*walWrite) []*walWrite {
	batch = append(batch, first)
	size := len(first.payload)
	// The cohort woken by the previous flush is runnable but may not
	// have reached its channel send yet — on few cores the non-blocking
	// drain below would then see an empty rendezvous and flush a batch
	// of one. An empty drain therefore yields (letting every runnable
	// appender park at the send) and retries, giving up after a few
	// fruitless rounds. A yield with nothing runnable returns in
	// nanoseconds, so the idle (writers=1) path is unaffected.
	misses := 0
	for size < maxBatchBytes {
		select {
		case w := <-s.gc.reqs:
			batch = append(batch, w)
			size += len(w.payload)
			misses = 0
		default:
			misses++
			if misses > 3 {
				return batch
			}
			runtime.Gosched()
		}
	}
	return batch
}

// flushBatch groups the batch by log file (first-arrival order), does
// one write + one fsync per file, and delivers each file's verdict to
// every waiter whose records it carried.
func (s *FS) flushBatch(batch []*walWrite) {
	start := time.Now()
	_, span := trace.StartSpan(batch[0].ctx, "wal_group_flush")
	records, bytes, logs, failed := 0, 0, 1, 0
	uniform := true
	for _, w := range batch[1:] {
		if w.log != batch[0].log {
			uniform = false
			break
		}
	}
	if uniform {
		// Overwhelmingly common shape — every record bound for the same
		// log file — kept allocation-free.
		err := s.flushFile(batch)
		for _, w := range batch {
			records += w.records
			bytes += len(w.payload)
			w.done <- err
		}
		if err != nil {
			failed = 1
		}
	} else {
		var keys []*logFile
		groups := make(map[*logFile][]*walWrite, 2)
		for _, w := range batch {
			if _, ok := groups[w.log]; !ok {
				keys = append(keys, w.log)
			}
			groups[w.log] = append(groups[w.log], w)
		}
		logs = len(keys)
		for _, k := range keys {
			ws := groups[k]
			err := s.flushFile(ws)
			for _, w := range ws {
				records += w.records
				bytes += len(w.payload)
				w.done <- err
			}
			if err != nil {
				failed++
			}
		}
	}
	span.Annotate("records", strconv.Itoa(records))
	span.Annotate("bytes", strconv.Itoa(bytes))
	span.Annotate("logs", strconv.Itoa(logs))
	if failed > 0 {
		span.Fail(strconv.Itoa(failed) + " of " + strconv.Itoa(logs) + " log files failed to flush")
	}
	span.End()
	s.walGroupFlush.ObserveSince(start)
	s.walGroupRecords.Observe(float64(records))
}

// flushFile writes the concatenated payloads of one file's waiters and
// syncs once. Any error fails the whole group: after a failed fsync
// nobody knows which bytes are on stable storage.
func (s *FS) flushFile(ws []*walWrite) error {
	buf := ws[0].payload
	if len(ws) > 1 {
		b := s.gc.buf[:0]
		for _, w := range ws {
			b = append(b, w.payload...)
		}
		s.gc.buf = b
		buf = b
	}
	return s.writeLog(ws[0].log, buf, true)
}
