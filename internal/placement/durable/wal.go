package durable

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/placement"
)

// WAL I/O (a record write, an fsync) is tried retryAttempts times
// before the commit fails, sleeping retryBaseDelay before the first
// retry and doubling it before each further one: 1, 2, 4 ms.
const (
	retryAttempts  = 4
	retryBaseDelay = time.Millisecond
)

// wal is one append-only log segment. Appends encode into a reused
// buffer and write at the known-good end offset, so a failed write
// retried after backoff overwrites its own partial bytes; fsyncs are
// batched every syncEvery appends. Not safe for concurrent use — the
// durable Manager serializes mutations, matching the underlying
// placement manager's single-writer discipline.
type wal struct {
	f    *os.File
	path string
	// buf is the reused encode buffer; appends are zero-allocation
	// once it has grown to the workload's record size.
	buf []byte
	// size is the known-good end of the log: every byte below it is a
	// whole, CRC-valid record.
	size int64
	// pending counts appends since the last fsync.
	pending   int
	syncEvery int
	sleep     func(time.Duration)

	// failAppends/failSyncs are test seams: when set, the next N
	// appends/fsyncs fail with a synthetic error before touching the
	// file, exercising the retry path deterministically.
	failAppends int
	failSyncs   int

	// broken is set when an aborted record could not be cut off the
	// log; every later append returns it until the store is reopened.
	broken error
}

var errInjected = errors.New("durable: injected I/O failure")

// createWAL opens (creating if absent) the segment at path, whose
// contents — if any — must already be validated/truncated by the
// caller; size is the validated length.
func createWAL(path string, size int64, syncEvery int) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{
		f:         f,
		path:      path,
		buf:       make([]byte, 0, 4096),
		size:      size,
		syncEvery: syncEvery,
		sleep:     time.Sleep,
	}, nil
}

// I/O kinds for the retry loop. Plain codes instead of closures keep
// the append hot path allocation-free.
const (
	ioWrite = iota
	ioSync
)

// append logs one mutation under seq. The record is durable once the
// enclosing fsync batch lands (sync, snapshot, or close); write-ahead
// ordering only requires it to be in the file before the in-memory
// apply, which this guarantees even under retries. A failed append
// leaves no byte of the record in the log: the caller is told the
// mutation failed, and the next commit reuses seq.
func (w *wal) append(seq uint64, mut *placement.Mutation) error {
	if w.broken != nil {
		return w.broken
	}
	start := w.size
	w.buf = appendRecord(w.buf[:0], seq, mut)
	err := w.retryIO(ioWrite)
	if err != nil {
		err = fmt.Errorf("durable: append seq %d: %w", seq, err)
	} else {
		w.size += int64(len(w.buf))
		w.pending++
		if w.syncEvery <= 0 || w.pending < w.syncEvery {
			return nil
		}
		if err = w.sync(); err == nil {
			return nil
		}
		w.size, w.pending = start, w.pending-1
	}
	if terr := w.f.Truncate(start); terr != nil {
		w.broken = fmt.Errorf("durable: cutting aborted seq %d off the log: %w", seq, terr)
	}
	return err
}

// sync flushes the pending batch to stable storage.
func (w *wal) sync() error {
	if w.pending == 0 {
		return nil
	}
	if err := w.retryIO(ioSync); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.pending = 0
	return nil
}

// doIO performs one attempt: writing the encoded record at the
// known-good end offset (so a retried partial write overwrites its own
// bytes), or syncing the file.
func (w *wal) doIO(kind int) error {
	switch kind {
	case ioWrite:
		if w.failAppends > 0 {
			w.failAppends--
			return errInjected
		}
		_, err := w.f.WriteAt(w.buf, w.size)
		return err
	default:
		if w.failSyncs > 0 {
			w.failSyncs--
			return errInjected
		}
		return w.f.Sync()
	}
}

func (w *wal) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// retryIO runs one I/O kind, retrying transient failures with
// exponential backoff.
func (w *wal) retryIO(kind int) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			w.sleep(retryBaseDelay << (attempt - 1))
		}
		if err = w.doIO(kind); err == nil {
			return nil
		}
	}
	return err
}

// scanResult is one scanned WAL segment: its whole valid records, the
// byte length they span, and how the scan ended.
type scanResult struct {
	records []Record
	// validLen is the offset just past the last whole valid record;
	// bytes beyond it (if any) are a torn or corrupt tail.
	validLen int64
	// torn is true when trailing bytes were a clean prefix of a record
	// (a crash mid-write); corrupt when they framed but failed CRC or
	// parse. Both truncate; they are distinguished for reporting.
	torn, corrupt bool
}

// scanWAL decodes every whole valid record from the segment at path,
// stopping at — never misparsing — a torn or corrupt tail.
func scanWAL(path string) (scanResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, err
	}
	return scanRecords(b), nil
}

// scanRecords decodes records from the front of b until it is
// exhausted or damaged.
func scanRecords(b []byte) scanResult {
	var res scanResult
	off := int64(0)
	for int64(len(b)) > off {
		rec, n, err := decodeRecord(b[off:])
		if err != nil {
			if errors.Is(err, ErrTornTail) {
				res.torn = true
			} else {
				res.corrupt = true
			}
			break
		}
		res.records = append(res.records, rec)
		off += int64(n)
	}
	res.validLen = off
	return res
}
