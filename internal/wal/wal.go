// Package wal implements the write-ahead log that makes DML durable
// between snapshots: an append-only, segmented log of logical tuple
// records (see logical.go) with length + CRC32-C framing. The engine
// appends every successful mutating statement's records — one per
// changed tuple, a whole transaction as one atomic batch — and
// recdb.OpenDir replays the records whose sequence numbers exceed the
// loaded snapshot's high-water mark.
//
// On-disk format (DESIGN.md §8, §12): each segment file is named
// wal-<first-seq 16 digits>.log and starts with the 6-byte header
// "RDBW2\n" (any other header is not a WAL segment), followed by records:
//
//	len   uint32 LE   payload length
//	crc   uint32 LE   CRC32-C over seq + payload
//	seq   uint64 LE   sequence number, strictly increasing
//	payload []byte
//
// A record that fails validation at the tail of the final segment is a
// torn write from a crash mid-append: replay truncates there and the
// database reopens with every synced record intact. A bad record
// anywhere else is corruption and fails replay with a typed error.
//
// Sync policy: SyncEvery = 1 fsyncs after every append (each commit is
// durable before the statement returns); SyncEvery = n groups n appends
// per fsync (a crash can lose the last < n commits); SyncEvery < 0 never
// fsyncs (durability rides on snapshot checkpoints alone).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"recdb/internal/fault"
	"recdb/internal/metrics"
)

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
	segmentMagic  = "RDBW2\n" // payloads are logical records (logical.go)
	magicLen      = len(segmentMagic)
	// recordHeaderSize is len + crc + seq.
	recordHeaderSize = 4 + 4 + 8
	// maxRecordSize bounds a declared payload length so a corrupt header
	// cannot drive a huge allocation.
	maxRecordSize = 16 << 20
	// defaultSegmentBytes rolls segments at 4 MiB.
	defaultSegmentBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends to a closed log.
var ErrClosed = errors.New("wal: log is closed")

// CorruptError describes a WAL record that failed validation somewhere
// other than the final segment's tail.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Metrics is the set of optional instruments the log records into. Every
// field may be nil (the zero Metrics disables instrumentation entirely);
// nil instruments are no-ops per the internal/metrics contract, so the
// append path pays nothing when unwired.
type Metrics struct {
	// Appends counts records appended.
	Appends *metrics.Counter
	// AppendBytes counts payload bytes appended.
	AppendBytes *metrics.Counter
	// Syncs counts fsync calls issued on segment files.
	Syncs *metrics.Counter
	// SyncNanos records fsync wall time.
	SyncNanos *metrics.Histogram
	// BatchSize records how many appends each fsync made durable — the
	// realized group-commit batch under SyncEvery > 1.
	BatchSize *metrics.Histogram
}

// Options tunes a log.
type Options struct {
	// SyncEvery is the group-commit factor: 1 (or 0, the default) fsyncs
	// every append, n > 1 fsyncs every n appends, negative never fsyncs.
	SyncEvery int
	// SyncInterval bounds group-commit latency: with SyncEvery > 1, the
	// log fsyncs after SyncEvery appends or SyncInterval after the first
	// unsynced append, whichever comes first — so a burst that ends
	// mid-group does not strand its tail until the next burst. 0 disables
	// the bound; it has no effect under per-commit sync (SyncEvery <= 1,
	// every append syncs anyway) or never-sync (SyncEvery < 0, the caller
	// chose checkpoint-only durability).
	SyncInterval time.Duration
	// SegmentBytes rolls to a new segment file once the current one
	// exceeds this size (0 = 4 MiB).
	SegmentBytes int64
	// Metrics receives append/sync instrumentation; the zero value
	// records nothing.
	Metrics Metrics

	// afterFunc schedules the SyncInterval flush (nil = time.AfterFunc).
	// It is a test seam: the fake-clock tests capture the callback and
	// fire it deterministically.
	afterFunc func(d time.Duration, f func())
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// Log is an open write-ahead log.
type Log struct {
	fs   fault.FS
	dir  string
	opts Options

	mu       sync.Mutex
	seq      uint64 // last assigned sequence number
	f        fault.File
	fPath    string
	fSize    int64
	unsynced int
	// flushGen invalidates pending SyncInterval timers: it advances every
	// time the unsynced batch reaches disk (or is discarded), so a timer
	// armed for an already-flushed batch fires as a no-op instead of
	// syncing a newer batch early.
	flushGen uint64
	closed   bool
	// poisoned is set when an append's write or sync fails: the segment
	// may hold a record whose statement was reported failed, so the log
	// refuses further appends and never flushes the ambiguous bytes —
	// Close skips the sync and a crash discards them. Reset (a
	// checkpoint) clears the segments and the poison with them.
	poisoned error
}

// segName renders the segment file name for its first record's sequence.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", segmentPrefix, firstSeq, segmentSuffix)
}

// parseSegName extracts the first-sequence number from a segment name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment names in dir, ordered by first
// sequence number.
func listSegments(fs fault.FS, dir string) ([]string, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if fault.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs = append(segs, name)
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		a, _ := parseSegName(segs[i])
		b, _ := parseSegName(segs[j])
		return a < b
	})
	return segs, nil
}

// Open creates (or reattaches to) the log in dir. startSeq is the floor
// for new sequence numbers — the caller passes the highest sequence it
// has observed (snapshot high-water mark or last replayed record), and
// appends continue from there. Open always starts a fresh segment; old
// segments are left for replay until the next Reset.
func Open(fs fault.FS, dir string, startSeq uint64, opts Options) (*Log, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{fs: fs, dir: dir, opts: opts.withDefaults(), seq: startSeq}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegmentLocked starts the segment file for the next record and makes
// its directory entry durable.
func (l *Log) openSegmentLocked() error {
	name := segName(l.seq + 1)
	p := path.Join(l.dir, name)
	f, err := l.fs.Create(p)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: write %s header: %w", p, err), cerr)
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: sync %s: %w", p, err), cerr)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: %w", err), cerr)
	}
	l.f, l.fPath, l.fSize, l.unsynced = f, p, int64(len(segmentMagic)), 0
	return nil
}

// Append writes one record and applies the sync policy. It returns the
// record's sequence number; when it returns without error under
// SyncEvery <= 1, the record is durable.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch writes a group of records — a transaction's begin, tuple,
// and commit records — with consecutive sequence numbers in a single
// write under one mutex hold, so no other append can interleave inside
// the group and the group occupies a contiguous byte range of one
// segment. A crash mid-write tears the group's suffix (the framing
// catches it exactly like a torn single record), which leaves the
// transaction without its commit record — recovery then discards it
// wholesale, never applying a partial transaction.
//
// The batch counts as one commit for the group-commit sync policy, and
// it returns the sequence number assigned to the last record; when it
// returns without error under SyncEvery <= 1, the whole group is
// durable.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.poisoned != nil {
		return 0, fmt.Errorf("wal: log poisoned by an earlier append failure (reopen to recover): %w", l.poisoned)
	}
	if len(payloads) == 0 {
		return l.seq, nil
	}
	total := 0
	for _, p := range payloads {
		if int64(len(p)) > maxRecordSize {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(p), maxRecordSize)
		}
		total += recordHeaderSize + len(p)
	}
	// Roll before the batch, never inside it: the group stays contiguous
	// in one segment (an oversized batch simply makes an oversized
	// segment).
	if l.fSize >= l.opts.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
	}
	// Frame every record in place in the one buffer the write hands over.
	buf := make([]byte, total)
	seq, off := l.seq, 0
	for _, p := range payloads {
		seq++
		rec := buf[off : off+recordHeaderSize+len(p)]
		off += len(rec)
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint64(rec[8:16], seq)
		copy(rec[16:], p)
		binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], castagnoli))
	}
	if _, err := l.f.Write(buf); err != nil {
		// The segment may hold a prefix of the group: poison the log so
		// the ambiguous bytes are never flushed or appended after.
		l.poisoned = err
		return 0, fmt.Errorf("wal: append at seq %d: %w", l.seq+1, err)
	}
	// The records are in the segment; assign the sequences even if the
	// sync below fails — they are burned either way, and the snapshot
	// high-water mark must never move backwards past them.
	l.seq = seq
	l.fSize += int64(total)
	l.unsynced++ // the group is one commit unit
	n := int64(len(payloads))
	l.opts.Metrics.Appends.Add(n)
	l.opts.Metrics.AppendBytes.Add(int64(total) - n*recordHeaderSize)
	if l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			// The caller will report this statement failed, but its bytes
			// sit unsynced in the segment: poison the log so no later sync
			// quietly makes the "failed" statement durable after all.
			l.poisoned = err
			return seq, err
		}
	} else if l.opts.SyncInterval > 0 && l.opts.SyncEvery > 1 && l.unsynced == 1 {
		// First commit of a new group: bound how long it can sit unsynced.
		l.armTimerLocked()
	}
	return seq, nil
}

// armTimerLocked schedules a flush of the current unsynced batch
// SyncInterval from now. The captured generation makes the callback a
// no-op if the batch reaches disk first.
func (l *Log) armTimerLocked() {
	gen := l.flushGen
	after := l.opts.afterFunc
	if after == nil {
		after = func(d time.Duration, f func()) { time.AfterFunc(d, f) }
	}
	after(l.opts.SyncInterval, func() { l.flushDue(gen) })
}

// flushDue is the SyncInterval timer callback: it syncs the batch the
// timer was armed for, unless that batch already reached disk (generation
// advanced), the log is closed or poisoned, or there is nothing to flush.
// A background fsync failure poisons the log exactly like a group-commit
// sync failure in Append: the batch's statements were acknowledged only
// as "durable by the next sync", and that sync can no longer be trusted.
func (l *Log) flushDue(gen uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.poisoned != nil || gen != l.flushGen || l.unsynced == 0 {
		return
	}
	if err := l.fsyncLocked(); err != nil {
		l.poisoned = err
		return
	}
	l.markSyncedLocked()
}

// markSyncedLocked records that the unsynced batch reached disk (or was
// discarded), invalidating any pending interval timer.
func (l *Log) markSyncedLocked() {
	l.unsynced = 0
	l.flushGen++
}

// rollLocked syncs and closes the current segment and starts the next.
func (l *Log) rollLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.fPath, err)
	}
	return l.openSegmentLocked()
}

func (l *Log) syncLocked() error {
	if l.unsynced == 0 || l.opts.SyncEvery < 0 {
		l.markSyncedLocked()
		return nil
	}
	if err := l.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.fPath, err)
	}
	l.markSyncedLocked()
	return nil
}

// fsyncLocked flushes the current segment, recording sync latency and the
// realized group-commit batch size on success.
func (l *Log) fsyncLocked() error {
	m := &l.opts.Metrics
	var start time.Time
	if m.SyncNanos != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	m.Syncs.Inc()
	m.SyncNanos.ObserveSince(start)
	m.BatchSize.Observe(int64(l.unsynced))
	return nil
}

// Sync forces any grouped, not-yet-synced records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return fmt.Errorf("wal: log poisoned by an earlier append failure (reopen to recover): %w", l.poisoned)
	}
	if l.unsynced == 0 {
		return nil
	}
	if err := l.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.fPath, err)
	}
	l.markSyncedLocked()
	return nil
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Reset discards every segment after a checkpoint: the snapshot now owns
// everything the log recorded. Sequence numbers keep increasing across
// the reset, so the snapshot's high-water mark stays a valid replay
// floor.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.fPath, err)
	}
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	for _, name := range segs {
		if err := l.fs.Remove(path.Join(l.dir, name)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// The ambiguous bytes (if any) are gone with the segments.
	l.poisoned = nil
	return l.openSegmentLocked()
}

// Close syncs and closes the log. A poisoned log is closed without the
// final sync, so a record whose append was reported failed cannot be
// flushed to durability on the way out.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := error(nil)
	if l.unsynced > 0 && l.opts.SyncEvery >= 0 && l.poisoned == nil {
		if err := l.f.Sync(); err != nil {
			serr = fmt.Errorf("wal: sync %s: %w", l.fPath, err)
		}
	}
	if err := l.f.Close(); err != nil && serr == nil {
		serr = fmt.Errorf("wal: close %s: %w", l.fPath, err)
	}
	return serr
}

// Replay scans every segment in dir in order and calls fn for each valid
// record with sequence number > afterSeq, returning the highest sequence
// seen (afterSeq when the log is empty). Records at or below afterSeq are
// skipped — they are already in the snapshot — which is what makes
// replay idempotent. Payloads are logical records (DecodeRecord). A
// validation failure at the tail of the final segment is treated as a
// torn write and truncates replay; anywhere else it returns a
// *CorruptError.
func Replay(fs fault.FS, dir string, afterSeq uint64, fn func(seq uint64, payload []byte) error) (uint64, error) {
	segs, err := listSegments(fs, dir)
	if err != nil {
		return afterSeq, err
	}
	last := afterSeq
	for i, name := range segs {
		final := i == len(segs)-1
		p := path.Join(dir, name)
		blob, err := fs.ReadFile(p)
		if err != nil {
			return last, fmt.Errorf("wal: %w", err)
		}
		stop, err := replaySegment(p, blob, final, afterSeq, &last, fn)
		if err != nil {
			return last, err
		}
		if stop {
			break
		}
	}
	return last, nil
}

// replaySegment walks one segment's records. It returns stop = true when
// it hit a torn tail (only allowed in the final segment).
func replaySegment(p string, blob []byte, final bool, afterSeq uint64, last *uint64, fn func(uint64, []byte) error) (bool, error) {
	torn := func(off int64, reason string) (bool, error) {
		if final {
			return true, nil // torn tail: everything before it is intact
		}
		return false, &CorruptError{Path: p, Offset: off, Reason: reason}
	}
	if len(blob) < magicLen {
		return torn(0, "segment shorter than its header")
	}
	if string(blob[:magicLen]) != segmentMagic {
		// A wrong magic is corruption even in the final segment: the
		// header is written and synced before any record.
		return false, &CorruptError{Path: p, Offset: 0, Reason: "not a WAL segment"}
	}
	off := int64(magicLen)
	rest := blob[magicLen:]
	for len(rest) > 0 {
		if len(rest) < recordHeaderSize {
			return torn(off, "truncated record header")
		}
		payloadLen := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if payloadLen > maxRecordSize {
			return torn(off, fmt.Sprintf("record declares %d bytes", payloadLen))
		}
		total := recordHeaderSize + payloadLen
		if int64(len(rest)) < total {
			return torn(off, "truncated record payload")
		}
		wantCRC := binary.LittleEndian.Uint32(rest[4:8])
		if got := crc32.Checksum(rest[8:total], castagnoli); got != wantCRC {
			return torn(off, fmt.Sprintf("record checksum mismatch (%08x != %08x)", got, wantCRC))
		}
		seq := binary.LittleEndian.Uint64(rest[8:16])
		if seq <= *last && seq > afterSeq {
			return false, &CorruptError{Path: p, Offset: off, Reason: fmt.Sprintf("sequence %d out of order after %d", seq, *last)}
		}
		if seq > afterSeq {
			if err := fn(seq, rest[16:total]); err != nil {
				return false, fmt.Errorf("wal: replaying seq %d: %w", seq, err)
			}
			*last = seq
		}
		rest = rest[total:]
		off += total
	}
	return false, nil
}
