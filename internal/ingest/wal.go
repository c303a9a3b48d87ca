package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// WAL file format — the same magic, version and CRC32 discipline as the
// EGCP checkpoint layout (internal/egio), framed as length-prefixed
// records because the payload is an event stream, not a graph:
//
//	header  magic "EVWL" | version u8 | reserved u8
//	record  u32 payload length | u32 CRC32-IEEE(payload) | payload
//	payload seq uvarint | count uvarint | count × event
//	event   op u8 | for arcs: u uvarint, v uvarint, t varint
//	               for AddStamp: t varint
//
// The header is written lazily on the first append, so an unused WAL
// stays zero bytes (a valid empty log). Records carry their batch
// sequence number so replay can verify the stream is contiguous.
const (
	walMagic   = "EVWL"
	walVersion = 1
	// walHeaderLen is the byte length of the file header.
	walHeaderLen = 6
	// maxWALBatch bounds one record's event count so a corrupt length
	// field cannot trigger a huge allocation during replay.
	maxWALBatch = 1 << 20
	// maxEventEnc is the worst-case encoded size of one event:
	// op byte + two uvarint32 + one varint64.
	maxEventEnc = 1 + 5 + 5 + 10
	// maxWALPayload bounds a record's payload length field.
	maxWALPayload = 15 + maxWALBatch*maxEventEnc
)

// ErrTornWAL reports that replay hit an incomplete or corrupt trailing
// record. The events returned alongside it are the full clean prefix
// and are safe to apply — the standard recovery contract of a
// write-ahead log.
var ErrTornWAL = errors.New("ingest: WAL torn mid-record")

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs on a background ticker every
	// WALOptions.Interval: a crash loses at most one interval of
	// acknowledged writes. The group-commit sweet spot for load that
	// can tolerate a small durability window.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before an append is acknowledged. Concurrent
	// appenders share fsyncs through group commit: one leader syncs
	// the whole buffered tail while followers wait on its result.
	SyncAlways
	// SyncNever leaves syncing to the operating system. Acknowledged
	// writes survive a process kill (the kernel holds them) but not a
	// power failure.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy maps the CLI spelling to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("ingest: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// WALOptions tunes a WAL opened with OpenWAL.
type WALOptions struct {
	// Policy is the fsync policy (default SyncInterval).
	Policy SyncPolicy
	// Interval is the SyncInterval flush period (default 100ms).
	Interval time.Duration
	// Faults, when non-nil, arms the WAL's injection sites: wal.append
	// (inside the buffered record write) and wal.fsync (inside the
	// group-commit flush+fsync). An injected error is sticky, exactly
	// like a real short write or ENOSPC — the WAL contract is that one
	// write failure makes the file unusable.
	Faults *fault.Injector
}

// WALStats is a point-in-time snapshot of the writer's counters.
type WALStats struct {
	Records int64 `json:"records"` // records appended this process
	Bytes   int64 `json:"bytes"`   // file bytes including recovered prefix
	Syncs   int64 `json:"syncs"`   // fsync calls issued
}

// Recovery describes what OpenWAL found in an existing file.
type Recovery struct {
	// Events is the clean-prefix event stream in append order; fold it
	// onto the base graph the WAL was recorded against.
	Events []Event
	// Batches is the number of complete records recovered.
	Batches int
	// BatchStarts[i] is the index in Events where batch i (WAL
	// sequence i) begins: the tail of the stream from sequence s
	// onward is Events[BatchStarts[s]:]. len(BatchStarts) == Batches.
	// Checkpoint recovery uses it to replay only the records a
	// checkpoint does not already cover.
	BatchStarts []int
	// Torn reports that the file ended in an incomplete or corrupt
	// record, which OpenWAL truncated away before reopening for
	// append.
	Torn bool
	// TruncatedBytes is how many trailing bytes the torn record held.
	TruncatedBytes int64
}

// WAL is an append-only write-ahead log backed by a file. Appends are
// buffered; durability follows the configured SyncPolicy. Safe for
// concurrent use.
type WAL struct {
	opts WALOptions
	f    *os.File

	mu     sync.Mutex // serialises buffered writes
	bw     *bufio.Writer
	headed bool
	next   uint64 // sequence number of the next record
	werr   error  // sticky write error: the file is unusable after one

	// Group commit: Commit waiters sleep on cond until synced passes
	// their record; one leader at a time flushes and fsyncs the tail.
	cmu     sync.Mutex
	cond    *sync.Cond
	synced  uint64 // records [0, synced) are durable
	syncing bool

	records atomic.Int64
	bytes   atomic.Int64
	syncs   atomic.Int64

	tickQuit chan struct{}
	tickDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// OpenWAL opens (creating if absent) the log at path, replays any
// existing records, truncates a torn tail so appends resume at a clean
// record boundary, and returns the writer positioned at the end. The
// caller folds Recovery.Events onto its base graph before serving.
func OpenWAL(path string, opts WALOptions) (*WAL, *Recovery, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL: %w", err)
	}
	events, starts, batches, good, rerr := replay(f)
	rec := &Recovery{Events: events, Batches: batches, BatchStarts: starts}
	switch {
	case rerr == nil:
	case errors.Is(rerr, ErrTornWAL):
		size, serr := f.Seek(0, io.SeekEnd)
		if serr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: sizing torn WAL: %w", serr)
		}
		rec.Torn = true
		rec.TruncatedBytes = size - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: truncating torn WAL tail: %w", err)
		}
	default:
		f.Close()
		return nil, nil, rerr
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: seek WAL end: %w", err)
	}
	w := &WAL{
		opts:   opts,
		f:      f,
		bw:     bufio.NewWriterSize(f, 1<<16),
		headed: good >= walHeaderLen,
		next:   uint64(batches),
		synced: uint64(batches),
	}
	w.cond = sync.NewCond(&w.cmu)
	w.bytes.Store(good)
	if opts.Policy == SyncInterval {
		w.tickQuit = make(chan struct{})
		w.tickDone = make(chan struct{})
		go w.tick()
	}
	return w, rec, nil
}

// tick is the SyncInterval background flusher.
func (w *WAL) tick() {
	defer close(w.tickDone)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.tickQuit:
			return
		case <-t.C:
			w.flushSync() //nolint:errcheck // sticky werr surfaces on the next Append
		}
	}
}

// Append buffers one record holding the batch and returns its sequence
// number. Durability is governed by Commit; call Commit(seq) before
// acknowledging the batch to a client.
func (w *WAL) Append(events []Event) (seq uint64, err error) {
	if len(events) == 0 {
		return 0, fmt.Errorf("ingest: empty WAL batch")
	}
	if len(events) > maxWALBatch {
		return 0, fmt.Errorf("ingest: WAL batch of %d events exceeds the %d limit", len(events), maxWALBatch)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return 0, fmt.Errorf("ingest: WAL unusable after write error: %w", w.werr)
	}
	if err := w.opts.Faults.Fire(fault.WALAppend); err != nil {
		w.werr = err
		return 0, fmt.Errorf("ingest: WAL append: %w", err)
	}
	n := int64(0)
	if !w.headed {
		var hdr [walHeaderLen]byte
		copy(hdr[:], walMagic)
		hdr[4] = walVersion
		if _, err := w.bw.Write(hdr[:]); err != nil {
			w.werr = err
			return 0, fmt.Errorf("ingest: WAL header: %w", err)
		}
		w.headed = true
		n += walHeaderLen
	}
	seq = w.next
	payload := appendPayload(nil, seq, events)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(frame[:]); err != nil {
		w.werr = err
		return 0, fmt.Errorf("ingest: WAL frame: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.werr = err
		return 0, fmt.Errorf("ingest: WAL payload: %w", err)
	}
	w.next++
	n += int64(8 + len(payload))
	w.records.Add(1)
	w.bytes.Add(n)
	return seq, nil
}

// appendPayload encodes (seq, events) onto buf.
func appendPayload(buf []byte, seq uint64, events []Event) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	for _, e := range events {
		buf = append(buf, byte(e.Op))
		if e.Op != AddStamp {
			buf = binary.AppendUvarint(buf, uint64(uint32(e.U)))
			buf = binary.AppendUvarint(buf, uint64(uint32(e.V)))
		}
		buf = binary.AppendVarint(buf, e.T)
	}
	return buf
}

// Commit blocks until record seq is durable under the configured
// policy. For SyncAlways this is a group commit: the first waiter
// flushes and fsyncs the whole buffered tail, later waiters ride the
// same fsync. SyncNever flushes to the kernel (an acknowledged write
// survives a process kill, not a power failure) without fsyncing;
// SyncInterval acknowledges immediately — its durability window is the
// background ticker's contract, not Commit's.
func (w *WAL) Commit(seq uint64) error {
	switch w.opts.Policy {
	case SyncInterval:
		return nil
	case SyncNever:
		w.mu.Lock()
		err := w.bw.Flush()
		if err != nil && w.werr == nil {
			w.werr = err
		}
		w.mu.Unlock()
		if err != nil {
			return fmt.Errorf("ingest: WAL flush: %w", err)
		}
		return nil
	}
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for w.synced <= seq {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		w.cmu.Unlock()
		target, err := w.flushSync()
		w.cmu.Lock()
		w.syncing = false
		if err == nil && target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// flushSync flushes the buffer and fsyncs the file, returning the
// record count the sync covers.
func (w *WAL) flushSync() (uint64, error) {
	w.mu.Lock()
	target := w.next
	err := w.bw.Flush()
	if err == nil {
		err = w.opts.Faults.Fire(fault.WALFsync)
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil && w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
	w.syncs.Add(1)
	if err != nil {
		return 0, fmt.Errorf("ingest: WAL sync: %w", err)
	}
	return target, nil
}

// Stats returns the writer's counters.
func (w *WAL) Stats() WALStats {
	return WALStats{
		Records: w.records.Load(),
		Bytes:   w.bytes.Load(),
		Syncs:   w.syncs.Load(),
	}
}

// NextSeq returns the sequence number the next appended record will
// carry (equivalently: the count of records the log holds, recovered
// prefix included).
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// Close flushes, fsyncs and closes the file. Further appends fail.
// Idempotent: later calls return the first call's result.
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		if w.tickQuit != nil {
			close(w.tickQuit)
			<-w.tickDone
		}
		_, serr := w.flushSync()
		w.mu.Lock()
		if w.werr == nil {
			w.werr = ErrClosed
		}
		w.mu.Unlock()
		cerr := w.f.Close()
		w.closeErr = serr
		if serr == nil {
			w.closeErr = cerr
		}
	})
	return w.closeErr
}

// replay decodes a WAL stream. On a clean log err is nil; an
// incomplete or corrupt trailing record yields the clean-prefix events,
// their per-batch start offsets (which Recovery exposes), the complete
// batch count, the byte offset where the damage starts and ErrTornWAL.
// A log whose header is wrong (bad magic or version) returns a hard
// error: that file is not a WAL, and truncating it would destroy
// someone else's data. goodBytes is the length of the valid prefix —
// OpenWAL truncates the file to it before appending.
func replay(r io.Reader) (events []Event, starts []int, batches int, goodBytes int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [walHeaderLen]byte
	n, err := io.ReadFull(br, hdr[:])
	if err != nil {
		if err == io.EOF {
			return nil, nil, 0, 0, nil // empty file: a valid fresh WAL
		}
		// A short file is a torn first append only if what exists is a
		// prefix of a real header — anything else is not a WAL, and
		// reporting it torn would let OpenWAL truncate (destroy)
		// someone else's file.
		if string(hdr[:min(n, 4)]) != walMagic[:min(n, 4)] || (n > 4 && hdr[4] != walVersion) {
			return nil, nil, 0, 0, fmt.Errorf("ingest: not a WAL: %d-byte file starting %q, want header %q", n, hdr[:n], walMagic)
		}
		return nil, nil, 0, 0, ErrTornWAL
	}
	if string(hdr[:4]) != walMagic {
		return nil, nil, 0, 0, fmt.Errorf("ingest: not a WAL: magic %q at offset 0, want %q", hdr[:4], walMagic)
	}
	if hdr[4] != walVersion {
		return nil, nil, 0, 0, fmt.Errorf("ingest: unsupported WAL version %d at offset 4, want %d", hdr[4], walVersion)
	}
	goodBytes = walHeaderLen

	var seqWant uint64
	for {
		var frame [8]byte
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err == io.EOF {
				return events, starts, batches, goodBytes, nil // clean end
			}
			return events, starts, batches, goodBytes, ErrTornWAL
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if length < 2 || length > maxWALPayload {
			return events, starts, batches, goodBytes, ErrTornWAL
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return events, starts, batches, goodBytes, ErrTornWAL
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return events, starts, batches, goodBytes, ErrTornWAL
		}
		seq, batch, ok := decodePayload(payload)
		// A CRC-valid record that fails to decode, or that breaks the
		// sequence contiguity the writer guarantees, is damage the
		// checksum cannot see (e.g. a spliced file); stop at the clean
		// prefix like any other tear.
		if !ok || seq != seqWant {
			return events, starts, batches, goodBytes, ErrTornWAL
		}
		starts = append(starts, len(events))
		events = append(events, batch...)
		batches++
		seqWant++
		goodBytes += int64(8 + len(payload))
	}
}

// decodePayload decodes one record payload; ok is false on any
// malformed byte, including trailing garbage.
func decodePayload(p []byte) (seq uint64, events []Event, ok bool) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxWALBatch {
		return 0, nil, false
	}
	p = p[n:]
	events = make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return 0, nil, false
		}
		op := EventOp(p[0])
		p = p[1:]
		var e Event
		e.Op = op
		switch op {
		case AddArc, RemoveArc:
			u, n := binary.Uvarint(p)
			if n <= 0 || u > 1<<31-1 {
				return 0, nil, false
			}
			p = p[n:]
			v, n := binary.Uvarint(p)
			if n <= 0 || v > 1<<31-1 {
				return 0, nil, false
			}
			p = p[n:]
			e.U, e.V = int32(u), int32(v)
		case AddStamp:
		default:
			return 0, nil, false
		}
		t, n := binary.Varint(p)
		if n <= 0 {
			return 0, nil, false
		}
		p = p[n:]
		e.T = t
		events = append(events, e)
	}
	if len(p) != 0 {
		return 0, nil, false
	}
	return seq, events, true
}
