// Package ingest is the durability and liveness layer of the serving
// tier: it makes the incremental refresh path (internal/delta, PR 5)
// survive process death. Mutation batches are appended to a segmented
// write-ahead log and fsynced *before* the server acknowledges them; a
// compactor periodically folds the applied log prefix into a persisted
// host-graph + estimates snapshot (atomic temp-write → Sync → Rename,
// so a crash never publishes a torn file); and boot-time
// recovery loads the last snapshot and replays the WAL suffix through
// the same one-pass merge the live server uses, so a kill -9 at any
// byte offset loses nothing that was acknowledged.
package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spammass/internal/delta"
	"spammass/internal/obs"
)

// WAL framing. A segment file is an 8-byte header ("SMWL", a version
// byte, three reserved zero bytes) followed by length-prefixed
// records:
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// where the payload is the record's sequence number as a uvarint
// followed by the batch in the delta text codec. Sequence numbers are
// assigned contiguously from 1 and checked on replay, so a record
// that decodes under a valid CRC but carries the wrong sequence is
// still rejected — arbitrary bytes cannot smuggle in a batch.
const (
	segMagic   = "SMWL"
	segVersion = 1
	segHdrLen  = 8
	recHdrLen  = 8
	// maxRecordBytes bounds one framed payload; a length prefix beyond
	// it is treated as corruption, not as an allocation request.
	maxRecordBytes = 64 << 20
)

// DefaultSegmentBytes is the segment rotation threshold when
// WALConfig.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// crcTable is the Castagnoli polynomial, the CRC with hardware support
// on every platform this serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports invalid bytes in a sealed (non-final) WAL
// segment: data the log once acknowledged is unreadable, which
// recovery must surface rather than silently skip. A torn tail in the
// final segment is NOT corruption — it is the expected shape of a
// crash mid-append, and Open truncates it away.
var ErrCorrupt = fmt.Errorf("ingest: WAL segment corrupt")

// WALConfig tunes the write-ahead log.
type WALConfig struct {
	// SegmentBytes is the rotation threshold: a segment that reaches it
	// is sealed and a new one started. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// GroupCommit is how long the fsync leader waits for neighbors so
	// one fsync covers the group; 0 syncs at once (concurrent waiters
	// still share it). Either way no Append returns before its record is
	// durable — the knob trades ack latency for fsync amortization,
	// never durability.
	GroupCommit time.Duration
	// Obs receives the ingest.wal_* metrics.
	Obs *obs.Context
}

// WAL is a segmented write-ahead log of delta batches. Appends are
// serialized and fsynced before they return; Replay streams the
// surviving records back in order. It is safe for concurrent use:
// appends, replays, and segment truncation may interleave (a replay
// concurrent with appends sees a prefix of the log).
type WAL struct {
	dir string
	cfg WALConfig

	mu       sync.Mutex
	seg      *os.File // active segment, positioned at its end
	segSize  int64
	segments []segmentInfo // ascending by first sequence; last is active
	nextSeq  uint64        // sequence the next append receives
	failed   error         // a torn write or failed fsync poisons the log

	// Fsync state: synced is the highest durable sequence, advanced by
	// whichever waiter is elected leader.
	smu     sync.Mutex
	scond   *sync.Cond
	synced  uint64
	syncing bool

	appends    *obs.Counter
	appendedBy *obs.Counter
	fsyncs     *obs.Counter
	truncated  *obs.Counter
	segGauge   *obs.Gauge
	sizeGauge  *obs.Gauge
}

type segmentInfo struct {
	first uint64 // sequence of the segment's first record
	path  string
}

func segmentName(first uint64) string {
	return fmt.Sprintf("wal-%020d.log", first)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// OpenWAL opens (or creates) the log in dir, scanning every segment:
// sealed segments must be fully valid (ErrCorrupt otherwise), and the
// final segment is truncated at the first invalid byte — the torn tail
// of a crash mid-append. The next append continues the sequence after
// the last surviving record.
func OpenWAL(dir string, cfg WALConfig) (*WAL, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: wal dir: %w", err)
	}
	w := &WAL{
		dir:        dir,
		cfg:        cfg,
		appends:    cfg.Obs.Counter("ingest.wal_appends_total"),
		appendedBy: cfg.Obs.Counter("ingest.wal_append_bytes_total"),
		fsyncs:     cfg.Obs.Counter("ingest.wal_fsyncs_total"),
		truncated:  cfg.Obs.Counter("ingest.wal_truncated_records_total"),
		segGauge:   cfg.Obs.Gauge("ingest.wal_segments"),
		sizeGauge:  cfg.Obs.Gauge("ingest.wal_size_bytes"),
	}
	w.scond = sync.NewCond(&w.smu)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: wal dir: %w", err)
	}
	for _, e := range entries {
		if first, ok := parseSegmentName(e.Name()); ok {
			w.segments = append(w.segments, segmentInfo{first: first, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].first < w.segments[j].first })

	w.nextSeq = 1
	if len(w.segments) > 0 {
		w.nextSeq = w.segments[0].first
	}
	for i, seg := range w.segments {
		if seg.first != w.nextSeq {
			return nil, fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrCorrupt, seg.path, seg.first, w.nextSeq)
		}
		last := i == len(w.segments)-1
		validLen, n, err := scanSegment(seg.path, seg.first, nil)
		// Only a framing violation in the final segment is a torn tail to
		// truncate; corruption in a sealed segment or a real I/O error
		// anywhere must surface instead.
		if err != nil && (!last || !isFrameError(err)) {
			return nil, err
		}
		w.nextSeq = seg.first + uint64(n)
		if last {
			fi, statErr := os.Stat(seg.path)
			if statErr != nil {
				return nil, statErr
			}
			if fi.Size() > validLen {
				// Torn tail: everything past the last whole record was
				// never acknowledged. Cut it off so the next append
				// starts on a clean frame.
				w.truncated.Inc()
				cfg.Obs.Logf("ingest: truncating torn WAL tail %s: %d -> %d bytes", seg.path, fi.Size(), validLen)
				if err := os.Truncate(seg.path, validLen); err != nil {
					return nil, fmt.Errorf("ingest: truncating torn tail: %w", err)
				}
			}
			w.segSize = validLen
		}
	}
	w.synced = w.nextSeq - 1

	if len(w.segments) == 0 {
		if err := w.newSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		active := w.segments[len(w.segments)-1]
		f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if w.segSize < segHdrLen {
			// The header itself was torn; rewrite it in place.
			if err := writeSegmentHeader(f); err != nil {
				f.Close()
				return nil, err
			}
			w.segSize = segHdrLen
		}
		if _, err := f.Seek(w.segSize, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		w.seg = f
	}
	w.updateGauges()
	return w, nil
}

func writeSegmentHeader(f *os.File) error {
	hdr := [segHdrLen]byte{}
	copy(hdr[:], segMagic)
	hdr[4] = segVersion
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("ingest: segment header: %w", err)
	}
	return nil
}

// newSegmentLocked seals the active segment (if any) and starts the
// next one, named by the sequence its first record will carry. The
// directory entry is fsynced so the new segment survives a crash
// immediately after rotation. Caller holds w.mu.
func (w *WAL) newSegmentLocked() error {
	if w.seg != nil {
		if err := w.seg.Sync(); err != nil {
			return err
		}
		if err := w.seg.Close(); err != nil {
			return err
		}
		w.seg = nil
	}
	path := filepath.Join(w.dir, segmentName(w.nextSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: new segment: %w", err)
	}
	if err := writeSegmentHeader(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(segHdrLen, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.seg = f
	w.segSize = segHdrLen
	w.segments = append(w.segments, segmentInfo{first: w.nextSeq, path: path})
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some filesystems; a failure there
	// must not be confused with a failed data write.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Append frames b, writes it to the active segment, and returns once
// the record is durable (fsynced). The returned sequence number is the
// record's identity in the log, contiguous from 1. After a failed
// write the WAL is poisoned — the in-file tail is untrustworthy until
// the next Open truncates it — and every later Append fails fast.
func (w *WAL) Append(b *delta.Batch) (uint64, error) {
	seq, err := w.AppendBuffered(b)
	if err != nil {
		return 0, err
	}
	if err := w.WaitDurable(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// AppendBuffered frames b and writes it to the active segment WITHOUT
// waiting for durability: the record has its sequence number and is
// visible to Replay, but is not crash-safe until a WaitDurable call
// covering it returns. Splitting the write from the wait lets a
// submitter that serializes appends under its own lock release that
// lock before the group-commit window, so concurrent submitters share
// one fsync.
func (w *WAL) AppendBuffered(b *delta.Batch) (uint64, error) {
	// One buffer holds the whole frame: the batch text follows room for
	// the record header and the longest sequence uvarint, which are
	// filled in just in front of the text once the sequence is known.
	const room = recHdrLen + binary.MaxVarintLen64
	var buf bytes.Buffer
	buf.Write(make([]byte, room))
	if err := delta.WriteText(&buf, b); err != nil {
		return 0, fmt.Errorf("ingest: encode batch: %w", err)
	}

	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	// Never rotate an empty segment: it would recreate the same
	// first-seq name, and an empty segment can only grow by appending.
	if w.segSize >= w.cfg.SegmentBytes && w.segSize > segHdrLen {
		if err := w.newSegmentLocked(); err != nil {
			w.failed = err
			w.mu.Unlock()
			return 0, err
		}
		w.updateGaugesLocked()
	}
	seq := w.nextSeq
	var seqBuf [binary.MaxVarintLen64]byte
	seqBytes := binary.AppendUvarint(seqBuf[:0], seq)
	frame := buf.Bytes()[room-len(seqBytes)-recHdrLen:]
	payload := frame[recHdrLen:]
	copy(payload, seqBytes)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))

	if _, err := w.seg.Write(frame); err != nil {
		w.failed = fmt.Errorf("ingest: torn WAL write at seq %d: %w", seq, err)
		err = w.failed
		w.mu.Unlock()
		return 0, err
	}
	w.nextSeq++
	w.segSize += int64(len(frame))
	w.mu.Unlock()

	w.appends.Inc()
	w.appendedBy.Add(int64(len(frame)))
	w.updateGauges()
	return seq, nil
}

// WaitDurable blocks until every record with sequence ≤ seq is covered
// by an fsync. The first waiter leads: it sleeps out the GroupCommit
// window (if any), fsyncs once, and publishes the durable horizon to
// every waiter below it. A failed fsync poisons the log and is sticky:
// on Linux a retried fsync can report success after the kernel dropped
// the dirty pages, so nothing not yet durable is ever reported durable
// after a failure, and every call for a seq returns the same outcome.
func (w *WAL) WaitDurable(seq uint64) error {
	w.smu.Lock()
	defer w.smu.Unlock()
	for w.synced < seq {
		if w.syncing {
			w.scond.Wait()
			continue
		}
		w.syncing = true
		w.smu.Unlock()
		if w.cfg.GroupCommit > 0 {
			time.Sleep(w.cfg.GroupCommit)
		}
		high, err := w.syncActive()
		w.smu.Lock()
		w.syncing = false
		w.scond.Broadcast()
		if err != nil {
			return err
		}
		w.synced = max(w.synced, high)
	}
	return nil
}

// syncActive fsyncs the active segment and returns the highest
// sequence it covers; a poisoned log returns its poison unsynced.
func (w *WAL) syncActive() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if err := w.seg.Sync(); err != nil {
		w.failed = fmt.Errorf("ingest: fsync: %w", err)
		return 0, w.failed
	}
	w.fsyncs.Inc()
	return w.nextSeq - 1, nil
}

// LastSeq returns the sequence of the most recently appended record
// (0 when the log is empty).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Replay streams every surviving record with sequence ≥ from to fn,
// in order. A torn tail in the active segment ends the replay without
// error (those bytes were never acknowledged); invalid bytes in a
// sealed segment are ErrCorrupt. fn returning an error aborts the
// replay with that error.
func (w *WAL) Replay(from uint64, fn func(seq uint64, b *delta.Batch) error) error {
	w.mu.Lock()
	segs := append([]segmentInfo(nil), w.segments...)
	w.mu.Unlock()
	for i, seg := range segs {
		last := i == len(segs)-1
		_, _, err := scanSegment(seg.path, seg.first, func(seq uint64, payload []byte) error {
			if seq < from {
				return nil
			}
			b, err := delta.ReadText(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("%w: seq %d batch: %v", ErrCorrupt, seq, err)
			}
			return fn(seq, b)
		})
		if err != nil {
			if last && isFrameError(err) {
				return nil // torn tail, never acknowledged
			}
			return err
		}
	}
	return nil
}

// frameError marks invalid framing (bad length, CRC, or sequence) as
// distinct from errors returned by the replay callback.
type frameError struct{ err error }

func (e *frameError) Error() string { return e.err.Error() }
func (e *frameError) Unwrap() error { return e.err }

func isFrameError(err error) bool {
	var fe *frameError
	return errors.As(err, &fe)
}

// scanSegment reads one segment file and calls visit for every valid
// record. It returns the byte offset just past the last valid record
// and the number of valid records. Framing violations (short header,
// oversized length, a frame running past the data, CRC mismatch,
// out-of-order sequence) return a *frameError wrapped in ErrCorrupt;
// the caller decides whether that is a truncatable tail (final
// segment) or real corruption. A failed read (e.g. EIO) is returned
// as-is, never a frameError, so it can never be mistaken for a torn
// tail and silently truncated.
func scanSegment(path string, firstSeq uint64, visit func(seq uint64, payload []byte) error) (validLen int64, records int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %w", ErrCorrupt, path, &frameError{fmt.Errorf(format, args...)})
	}
	if len(data) < segHdrLen {
		return 0, 0, corrupt("short header (%d bytes)", len(data))
	}
	if string(data[0:4]) != segMagic || data[4] != segVersion {
		return 0, 0, corrupt("bad header: magic %q version %d", data[0:4], data[4])
	}
	off := segHdrLen
	for expect := firstSeq; off < len(data); expect++ {
		rest := data[off:]
		if len(rest) < recHdrLen {
			return int64(off), records, corrupt("short record header at seq %d", expect)
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		if plen == 0 || plen > maxRecordBytes {
			return int64(off), records, corrupt("record length %d out of range at seq %d", plen, expect)
		}
		if uint64(len(rest)-recHdrLen) < uint64(plen) {
			return int64(off), records, corrupt("short payload at seq %d", expect)
		}
		payload := rest[recHdrLen : recHdrLen+int(plen)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return int64(off), records, corrupt("CRC mismatch at seq %d", expect)
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 || seq != expect {
			return int64(off), records, corrupt("sequence %d out of order (want %d)", seq, expect)
		}
		if visit != nil {
			if err := visit(seq, payload[n:]); err != nil {
				return int64(off), records, err
			}
		}
		records++
		off += recHdrLen + int(plen)
	}
	return int64(off), records, nil
}

// TruncateThrough deletes sealed segments whose records all have
// sequence ≤ seq — the prefix a persisted snapshot has made redundant.
// The active segment is never deleted. Returns how many segments were
// removed.
func (w *WAL) TruncateThrough(seq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segments) >= 2 && w.segments[1].first <= seq+1 {
		path := w.segments[0].path
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("ingest: removing sealed segment: %w", err)
		}
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	w.updateGaugesLocked()
	return removed, nil
}

// Segments returns the number of live segment files.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

func (w *WAL) updateGauges() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.updateGaugesLocked()
}

func (w *WAL) updateGaugesLocked() {
	w.segGauge.Set(float64(len(w.segments)))
	var size int64
	for _, seg := range w.segments[:max(0, len(w.segments)-1)] {
		if fi, err := os.Stat(seg.path); err == nil {
			size += fi.Size()
		}
	}
	w.sizeGauge.Set(float64(size + w.segSize))
}

// Close fsyncs and closes the active segment. Appends after Close
// fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return nil
	}
	err := w.seg.Sync()
	if cerr := w.seg.Close(); err == nil {
		err = cerr
	}
	w.seg = nil
	if w.failed == nil {
		w.failed = fmt.Errorf("ingest: WAL closed")
	}
	return err
}
