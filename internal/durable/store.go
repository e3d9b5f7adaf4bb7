package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

const (
	walName     = "wal.log"
	snapName    = "snapshot.bin"
	snapTemp    = "snapshot.tmp"
	catalogName = "catalog" // the digest of the catalog the directory was written under

	// defaultSnapshotEvery is the auto-checkpoint cadence in logged
	// operations when Options.SnapshotEvery is zero.
	defaultSnapshotEvery = 1024
)

// errFailed is returned once a WAL write or fsync has failed: the log
// tail is then in an unknown state (possibly partial frame bytes), so
// accepting further appends would bury acked records behind an
// unreadable frame. The store fail-stops instead; restarting recovers
// everything that was durable before the fault.
var errFailed = errors.New("durable: store is fail-stopped after a wal write error; restart to recover")

// Options tunes a Store.
type Options struct {
	// SnapshotEvery is the number of logged records between automatic
	// checkpoints (snapshot + WAL truncation). 0 means the default;
	// negative disables auto-checkpointing (explicit Checkpoint/Close
	// still snapshot).
	SnapshotEvery int
	// Down, if set, supplies the node keys the caller knows to be crashed
	// and pending rejoin at snapshot time (e.g. a chaos injector's down
	// list), so recovery can rebuild the same ring liveness.
	Down func() []string
	// View, if set, supplies the latest adopted membership view for the
	// snapshot; replayed viewRec records override it.
	View func() *wire.MemberView
	// Logf, if set, receives progress lines (recovery, checkpoints).
	Logf func(format string, args ...any)
}

// RecoveryInfo summarizes what Recover restored.
type RecoveryInfo struct {
	SnapshotLSN uint64           // WAL position the snapshot covered
	Replayed    int              // log records replayed past the snapshot
	Down        []string         // crashed-pending node keys at snapshot time
	View        *wire.MemberView // latest recovered membership view
	TornBytes   int64            // trailing bytes dropped as a torn append
	// DerivedMarks counts the interest marks re-derived for a snapshot whose
	// writer kept none: exact only in a single process (engine.RestoreSnapshot).
	DerivedMarks int
}

// Store is a per-process durability log for one engine: every mutating
// client operation and inbound overlay delivery is appended to a
// CRC-framed WAL (group-committed fsync), and a periodic checkpoint
// writes a whole-engine snapshot then truncates the log. Open loads the
// files; Recover replays them into a freshly built engine; the op
// wrappers make an engine call durable by logging it after it applies
// (redo-only logging — an operation that crashed before its record was
// durable also never acknowledged, so losing it is semantically a
// never-submitted op).
type Store struct {
	dir     string
	catalog *relation.Catalog
	opts    Options
	eng     *engine.Engine

	// applyMu orders client ops and checkpoints: an op holds it across
	// apply+log, so WAL order equals engine apply order (replay re-draws
	// clock ticks and per-subscriber seqs in log order), and a checkpoint
	// holds it across the snapshot, so none observes an op mid-cascade.
	// Deliveries and views do not take it: they are replayed verbatim and
	// draw from neither the clock nor the seq space.
	applyMu lockdep.Mutex[storeApplyMu]

	mu       lockdep.Mutex[storeMu] // orders file appends: file order == LSN order
	f        *os.File
	lsn      uint64 // last appended LSN
	synced   uint64 // last fsynced LSN
	walBytes int64  // current WAL length in bytes
	syncing  bool   // a group-commit leader is mid-fsync
	syncDone *sync.Cond
	opCount  int
	closed   bool
	failed   bool // a WAL write or fsync failed; the store is fail-stopped

	// Recovery staging decoded by Open, consumed by Recover.
	pending *snapImage
	recs    []any
	torn    int64
}

type storeApplyMu struct{} // Store.applyMu's lock class
type storeMu struct{}      // Store.mu's lock class

// HeldAcrossSends: an op holds applyMu across its apply, whose engine call
// sends and, over TCP, waits for acks (logged).
func (storeApplyMu) HeldAcrossSends() string {
	return "apply order is log order until the durable commit is pipelined (ROADMAP B)"
}

// Open loads (or creates) the durable state under dir. The returned
// store has decoded the snapshot and scanned the log but not touched any
// engine yet — call Recover next. A corrupt snapshot or a corrupt WAL
// frame before the torn tail fails Open with a CorruptError in the
// chain; a torn tail is truncated and reported via RecoveryInfo.
func Open(dir string, catalog *relation.Catalog, opts Options) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkCatalog(dir, catalog); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, catalog: catalog, opts: opts}
	s.syncDone = sync.NewCond(&s.mu)

	img := snapImage{}
	if data, err := os.ReadFile(filepath.Join(dir, snapName)); err == nil {
		if img, err = decodeSnapshot(data, catalog); err != nil {
			return nil, err
		}
		s.pending = &img
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	s.lsn = img.covered

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, err
	}
	recs, clean, err := scanFrames(data)
	if err != nil {
		return nil, err
	}
	s.torn = int64(len(data)) - clean
	for _, rec := range recs {
		if rec.lsn <= img.covered {
			continue // a checkpoint raced the crash between rename and truncate
		}
		if rec.lsn != s.lsn+1 {
			return nil, &CorruptError{LSN: s.lsn, Reason: fmt.Sprintf("wal starts at lsn %d, snapshot covers %d", rec.lsn, img.covered)}
		}
		decoded, err := func() (any, error) {
			var r wire.Reader
			r.Reset(rec.data)
			return decodeRecord(&r)
		}()
		if err != nil {
			return nil, fmt.Errorf("durable: decode wal record %d: %w", rec.lsn, err)
		}
		s.recs = append(s.recs, decoded)
		s.lsn = rec.lsn
	}

	s.f, err = os.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Make a freshly created WAL's directory entry durable before any
	// append is acked through it.
	if err := syncDir(dir); err != nil {
		s.f.Close()
		return nil, err
	}
	if s.torn > 0 {
		if err := s.f.Truncate(clean); err != nil {
			s.f.Close()
			return nil, err
		}
		s.logf("durable: truncated %d torn trailing bytes", s.torn)
	}
	s.walBytes = clean
	s.synced = s.lsn
	return s, nil
}

// checkCatalog holds dir to the catalog it was written under. Its snapshot
// and the frames its WAL logs say queries as token forms, catalog ordinals
// (query.Query.Tokens), which another catalog would spell into other texts:
// a digest of another catalog fails Open. A directory with no digest — fresh,
// or written by a build whose queries said their text — takes catalog's.
func checkCatalog(dir string, catalog *relation.Catalog) error {
	path := filepath.Join(dir, catalogName)
	want := fmt.Sprintf("%016x\n", catalog.Digest())
	data, err := os.ReadFile(path)
	switch {
	case err == nil && string(data) == want:
		return nil
	case err == nil:
		return fmt.Errorf("durable: state directory %s was written under catalog digest %s, this catalog's is %016x",
			dir, strings.TrimSpace(string(data)), catalog.Digest())
	case !os.IsNotExist(err):
		return err
	}
	if err := writeSynced(path+".tmp", []byte(want)); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path) // made durable by Open's syncDir
}

// writeSynced writes data to a fresh file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Recover binds the store to eng, restores the snapshot, and replays the
// WAL tail through the ordinary engine entry points. eng must be freshly
// built with the same catalog, config and seed as the run that wrote the
// state. Recover must be called (even on an empty state dir) before the
// op wrappers are used.
func (s *Store) Recover(eng *engine.Engine) (RecoveryInfo, error) {
	s.eng = eng
	info := RecoveryInfo{TornBytes: s.torn}
	if s.pending != nil {
		info.SnapshotLSN = s.pending.covered
		info.Down = s.pending.down
		info.View = s.pending.view
		var err error
		if info.DerivedMarks, err = eng.RestoreSnapshot(s.pending.meta, s.pending.nodes); err != nil {
			return info, err
		}
	}
	for _, rec := range s.recs {
		if err := s.applyRecord(rec, &info); err != nil {
			return info, err
		}
		info.Replayed++
	}
	if info.SnapshotLSN > 0 || info.Replayed > 0 {
		s.logf("durable: recovered snapshot lsn %d + %d wal records (%d torn bytes dropped)",
			info.SnapshotLSN, info.Replayed, info.TornBytes)
	}
	s.pending, s.recs = nil, nil
	return info, nil
}

// applyRecord re-executes one logged event against the bound engine.
func (s *Store) applyRecord(rec any, info *RecoveryInfo) error {
	net := s.eng.Network()
	node := func(key string) (*chord.Node, error) {
		n := net.NodeByKey(key)
		if n == nil {
			return nil, fmt.Errorf("durable: replay: node %s not in overlay", key)
		}
		return n, nil
	}
	switch m := rec.(type) {
	case subscribeRec:
		from, err := node(m.Node)
		if err != nil {
			return err
		}
		q, err := query.Parse(s.catalog, m.SQL)
		if err != nil {
			return fmt.Errorf("durable: replay subscribe %q: %w", m.SQL, err)
		}
		res, err := s.eng.Subscribe(from, q)
		if err != nil {
			return fmt.Errorf("durable: replay subscribe %q: %w", m.SQL, err)
		}
		if res.Key() != m.Key {
			return fmt.Errorf("durable: replay diverged: subscribe %q got key %s, log recorded %s", m.SQL, res.Key(), m.Key)
		}
	case unsubscribeRec:
		from, err := node(m.Node)
		if err != nil {
			return err
		}
		q, err := query.Parse(s.catalog, m.SQL)
		if err != nil {
			return fmt.Errorf("durable: replay unsubscribe %q: %w", m.SQL, err)
		}
		if err := s.eng.Unsubscribe(from, q.WithRestoredIdentity(m.Key, m.Node, "")); err != nil {
			return fmt.Errorf("durable: replay unsubscribe %s: %w", m.Key, err)
		}
	case publishRec:
		from, err := node(m.Node)
		if err != nil {
			return err
		}
		if _, err := s.eng.Publish(from, m.T); err != nil {
			return fmt.Errorf("durable: replay publish: %w", err)
		}
	case deliveryRec:
		var r wire.Reader
		r.Reset(m.Frame)
		msg, err := engine.DecodeMessage(&r, s.catalog)
		if err != nil {
			return fmt.Errorf("durable: replay delivery to %s: %w", m.Node, err)
		}
		net.DeliverLocal(m.Node, msg)
	case viewRec:
		info.View = m.View
	default:
		return fmt.Errorf("durable: replay: unknown record type %T", rec)
	}
	return nil
}

// append logs one record and group-commits it: the record is written
// under the lock (file order == LSN order), then the first writer to
// reach the fsync step becomes the leader and syncs for everyone written
// so far, so a burst of concurrent ops pays one fsync.
func (s *Store) append(rec any) error {
	var w wire.Buffer
	if err := encodeRecord(&w, rec); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("durable: store is closed")
	}
	if s.failed {
		s.mu.Unlock()
		return errFailed
	}
	s.lsn++
	lsn := s.lsn
	frame := appendFrame(nil, lsn, w.Bytes())
	if _, err := s.f.Write(frame); err != nil {
		s.failed = true
		s.mu.Unlock()
		return fmt.Errorf("durable: wal append: %w", err)
	}
	s.walBytes += int64(len(frame))
	s.opCount++
	for s.syncing && s.synced < lsn {
		s.syncDone.Wait()
	}
	if s.failed {
		s.mu.Unlock()
		return errFailed // the leader's fsync failed while we waited
	}
	if s.synced >= lsn {
		s.mu.Unlock()
		return nil // a later leader's fsync already covered this record
	}
	s.syncing = true
	written := s.lsn
	// Capture the descriptor under s.mu: checkpoints swap s.f only after
	// waiting out any in-flight sync, so f stays valid for this Sync.
	f := s.f
	s.mu.Unlock()

	err := f.Sync()
	s.mu.Lock()
	s.syncing = false
	if err != nil {
		s.failed = true
	} else if written > s.synced {
		s.synced = written
	}
	s.syncDone.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	return nil
}

// logged runs one mutating client op: apply executes it against the engine
// and returns the record to log, both under applyMu. The engine call inside
// apply can block on overlay sends; that is safe here because the
// transport's inbound paths (LogDelivery, LogView) do not take applyMu, so
// remote acks keep draining while a checkpoint or the next client op waits.
func (s *Store) logged(apply func() (rec any, err error)) error {
	s.applyMu.Lock()
	rec, err := apply()
	if err == nil {
		err = s.append(rec)
	}
	s.applyMu.Unlock()
	s.maybeCheckpoint()
	return err
}

// Subscribe applies and logs a subscription.
func (s *Store) Subscribe(from *chord.Node, q *query.Query) (*query.Query, error) {
	var res *query.Query
	err := s.logged(func() (rec any, err error) {
		if res, err = s.eng.Subscribe(from, q); err == nil {
			rec = subscribeRec{Node: from.Key(), SQL: res.Text(), Key: res.Key(), Multi: res.Arity() > 2}
		}
		return rec, err
	})
	return res, err
}

// Unsubscribe applies and logs a retraction.
func (s *Store) Unsubscribe(from *chord.Node, q *query.Query) error {
	return s.logged(func() (any, error) {
		err := s.eng.Unsubscribe(from, q)
		return unsubscribeRec{Node: from.Key(), SQL: q.Text(), Key: q.Key(), Multi: q.Arity() > 2}, err
	})
}

// Publish applies and logs one tuple publication. The unstamped input
// tuple is logged; replay re-stamps through the restored clock, which
// reproduces the acked PubT because applyMu pinned log order to the
// original tick order.
func (s *Store) Publish(from *chord.Node, t *relation.Tuple) (*relation.Tuple, error) {
	var res *relation.Tuple
	err := s.logged(func() (rec any, err error) {
		res, err = s.eng.Publish(from, t)
		return publishRec{Node: from.Key(), T: t}, err
	})
	return res, err
}

// LogDelivery logs one inbound remote delivery (the daemon calls it
// after applying the decoded message locally and before acking, so an
// acked delivery is always durable). frame is the engine-codec encoding
// of the delivered message.
//
// Deliberately free of applyMu: it runs on transport goroutines that an op
// wrapper may be blocked on (awaiting an ack while holding applyMu), so
// taking it here would deadlock the ack path. Checkpoint compensates by
// carrying over the post-snapshot WAL tail instead of truncating blindly,
// and a delivery replayed over a snapshot that already absorbed it lands in
// idempotent merges and the notification dedup.
func (s *Store) LogDelivery(nodeKey string, frame []byte) error {
	return s.append(deliveryRec{Node: nodeKey, Frame: frame})
}

// LogView logs one membership view the process installed. Free of applyMu,
// like LogDelivery.
func (s *Store) LogView(v *wire.MemberView) error {
	return s.append(viewRec{View: v})
}

// maybeCheckpoint triggers a checkpoint when the logged-record budget is
// spent. The claim is atomic so concurrent ops elect one checkpointer.
func (s *Store) maybeCheckpoint() {
	if s.opts.SnapshotEvery < 0 {
		return
	}
	s.mu.Lock()
	due := !s.closed && s.opCount >= s.opts.SnapshotEvery
	if due {
		s.opCount = 0
	}
	s.mu.Unlock()
	if due {
		if err := s.Checkpoint(); err != nil {
			s.logf("durable: auto checkpoint failed: %v", err)
		}
	}
}

// Checkpoint writes a whole-engine snapshot and truncates the WAL. It
// excludes client ops (applyMu), so the snapshot is op-atomic, and carries
// over the records appended past it, so truncation cannot drop a record the
// snapshot does not cover.
func (s *Store) Checkpoint() error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	s.mu.Lock()
	covered := s.lsn
	coveredBytes := s.walBytes
	closed, failed := s.closed, s.failed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("durable: store is closed")
	}
	if failed {
		return errFailed
	}

	img := snapImage{covered: covered}
	if s.opts.Down != nil {
		img.down = s.opts.Down()
	}
	if s.opts.View != nil {
		img.view = s.opts.View()
	}
	img.meta, img.nodes = s.eng.ExportSnapshot(img.down)

	data, err := encodeSnapshot(img)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, snapTemp)
	if err := writeSynced(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return err
	}
	// Order the snapshot rename before the WAL rewrite on disk: without
	// the directory fsync a power loss could persist the truncated WAL
	// but not the new snapshot, leaving a gap Open rejects as corrupt.
	if err := syncDir(s.dir); err != nil {
		return err
	}

	// Drop the covered WAL prefix. Deliveries and views may have landed
	// after coveredBytes; they are not in the snapshot, so they carry over
	// into the fresh log — via a temp-file rename so already-acked records
	// are never in a half-truncated state.
	s.mu.Lock()
	defer s.mu.Unlock()
	// Wait out any group-commit leader mid-fsync: rewriteWAL closes and
	// swaps the descriptor, and a leader syncing the old one would get a
	// spurious ErrClosed for a record that is in fact durable.
	for s.syncing {
		s.syncDone.Wait()
	}
	if s.failed {
		return errFailed
	}
	if tailLen := s.walBytes - coveredBytes; tailLen > 0 {
		tail := make([]byte, tailLen)
		if _, err := s.f.ReadAt(tail, coveredBytes); err != nil {
			return fmt.Errorf("durable: wal tail read: %w", err)
		}
		if err := s.rewriteWAL(tail); err != nil {
			return err
		}
	} else {
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("durable: wal truncate: %w", err)
		}
		s.walBytes = 0
	}
	s.synced = s.lsn
	s.opCount = 0
	s.logf("durable: checkpoint at lsn %d (%d bytes snapshot)", covered, len(data))
	return nil
}

// rewriteWAL atomically replaces the log with content (fsynced temp file
// + rename) and swaps the append descriptor over. Caller holds s.mu.
func (s *Store) rewriteWAL(content []byte) error {
	walPath := filepath.Join(s.dir, walName)
	tmp := walPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, walPath); err != nil {
		f.Close()
		return err
	}
	s.f.Close()
	s.f = f
	s.walBytes = int64(len(content))
	// The swap happens before the directory fsync so a sync failure still
	// leaves s.f on the renamed (live) file; the error only fails the
	// checkpoint, not the append path.
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so renames into it are ordered on disk —
// without it a power loss can persist a later rename before an earlier
// one (or before the renamed file's data).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close takes a final checkpoint and closes the WAL. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	err := s.checkpointLocked()
	s.mu.Lock()
	// A delivery's or view's commit leader may still be mid-fsync (e.g.
	// when the checkpoint failed early); closing under it would turn a
	// durable record's ack into a spurious error.
	for s.syncing {
		s.syncDone.Wait()
	}
	s.closed = true
	cerr := s.f.Close()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// Abandon closes the WAL file descriptor without checkpointing or
// flushing anything beyond what ordinary appends already fsynced —
// byte-for-byte what a kill -9 leaves behind. Crash tests use it to
// simulate an unclean death without leaking the descriptor.
func (s *Store) Abandon() {
	s.mu.Lock()
	s.closed = true
	s.f.Close()
	s.mu.Unlock()
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
