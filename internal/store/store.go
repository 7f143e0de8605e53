package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"incgraph/internal/graph"
)

// Store composes snapshots and the WAL into a crash-safe checkpoint/
// recover cycle over one directory:
//
//	dir/MANIFEST          which snapshot+WAL pair is current
//	dir/snap-NNNNNNNN.snap  per-shard binary snapshot (epoch NNNNNNNN)
//	dir/wal-NNNNNNNN.log    ΔG batches appended since that snapshot
//
// The manifest is the commit point. Checkpoint writes the new snapshot
// and a fresh WAL under the next epoch, atomically renames the new
// manifest over the old one, and only then deletes the previous epoch's
// files — a crash at any point leaves either the old pair or the new pair
// fully intact. Open reads the manifest, loads the snapshot, and replays
// the WAL's valid prefix; torn WAL tails truncate, they never fail
// recovery.
type Store struct {
	dir    string
	opts   Options
	epoch  uint64
	snap   string // current snapshot file name (relative to dir)
	wal    *WAL
	walRel string // current WAL file name (relative to dir)
}

// Options tunes a store.
type Options struct {
	// Sync is the WAL fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// FS routes the store's write-path file operations; nil means the
	// real filesystem. Set a *FaultFS here to drill disk failures.
	FS FS
}

// manifestName is the commit-point file inside a store directory.
const manifestName = "MANIFEST"

// manifestVersion guards the manifest schema.
const manifestVersion = 1

// ErrNoStore reports a directory with no store in it.
var ErrNoStore = errors.New("store: no store in directory")

// Exists reports whether dir contains a store (a readable manifest).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Create initializes a store at dir from the current state of g: snapshot
// of g as epoch 1, an empty WAL, and the manifest committing the pair.
// The directory is created if needed and must not already hold a store.
func Create(dir string, g *graph.Graph, opts Options) (*Store, error) {
	if err := fsOrOS(opts.FS).MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if Exists(dir) {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	s := &Store{dir: dir, opts: opts, epoch: 1}
	s.snap = snapName(s.epoch)
	s.walRel = walName(s.epoch)
	if err := WriteSnapshotFile(opts.FS, filepath.Join(dir, s.snap), g); err != nil {
		return nil, err
	}
	w, err := CreateWAL(opts.FS, filepath.Join(dir, s.walRel), g.Generation(), opts.Sync)
	if err != nil {
		return nil, err
	}
	s.wal = w
	if _, err := s.writeManifest(); err != nil {
		w.Close()
		return nil, err
	}
	return s, nil
}

// Open opens the store at dir: it loads the manifest's snapshot into a
// fresh graph and replays the WAL's valid prefix, truncating any torn
// tail. The returned records have NOT been applied to the graph: the
// caller applies them in log order (ApplyBatch), which brings the graph
// and its generation to where the last logged batch left them.
func Open(dir string, opts Options) (*Store, *graph.Graph, []ReplayRecord, error) {
	epoch, snapRel, walRel, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := ReadSnapshotFile(filepath.Join(dir, snapRel))
	if err != nil {
		return nil, nil, nil, err
	}
	w, records, err := OpenWAL(opts.FS, filepath.Join(dir, walRel), opts.Sync)
	if err != nil {
		return nil, nil, nil, err
	}
	s := &Store{dir: dir, opts: opts, epoch: epoch, snap: snapRel, wal: w, walRel: walRel}
	return s, g, records, nil
}

// Append logs one batch (stamped with the graph generation at append
// time) ahead of its application. Fsync policy per Options.
func (s *Store) Append(b graph.Batch, gen uint64) error {
	return s.wal.Append(b, gen)
}

// Checkpoint makes g the new durable baseline: snapshot under the next
// epoch, fresh WAL, manifest flip, then removal of the superseded pair.
func (s *Store) Checkpoint(g *graph.Graph) error {
	oldSnap, oldWALRel, oldWAL := s.snap, s.walRel, s.wal
	epoch := s.epoch + 1
	snapRel, walRel := snapName(epoch), walName(epoch)
	if err := WriteSnapshotFile(s.opts.FS, filepath.Join(s.dir, snapRel), g); err != nil {
		return err
	}
	w, err := CreateWAL(s.opts.FS, filepath.Join(s.dir, walRel), g.Generation(), s.opts.Sync)
	if err != nil {
		s.fs().Remove(filepath.Join(s.dir, snapRel))
		return err
	}
	s.epoch, s.snap, s.walRel, s.wal = epoch, snapRel, walRel, w
	committed, err := s.writeManifest()
	if err != nil && !committed {
		// The manifest rename never happened: the old pair is still the
		// committed one. Roll back to it and discard the new files.
		s.epoch, s.snap, s.walRel, s.wal = epoch-1, oldSnap, oldWALRel, oldWAL
		w.Close()
		s.fs().Remove(filepath.Join(s.dir, snapRel))
		s.fs().Remove(filepath.Join(s.dir, walRel))
		return err
	}
	if err != nil {
		// The rename succeeded but its durability is uncertain (directory
		// fsync failed): after a crash the manifest may name either pair,
		// so keep both on disk and surface the degraded durability.
		oldWAL.Close()
		return err
	}
	oldWAL.Close()
	s.fs().Remove(filepath.Join(s.dir, oldSnap))
	s.fs().Remove(filepath.Join(s.dir, oldWALRel))
	return nil
}

// WALSize returns the current WAL size in bytes: the natural
// checkpoint-threshold signal.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// WALSeq returns the sequence number of the last logged batch.
func (s *Store) WALSeq() uint64 { return s.wal.Seq() }

// Epoch returns the current checkpoint epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Sync forces a WAL fsync regardless of policy.
func (s *Store) Sync() error { return s.wal.Sync() }

// Close closes the WAL. The store stays openable.
func (s *Store) Close() error { return s.wal.Close() }

func snapName(epoch uint64) string { return fmt.Sprintf("snap-%08d.snap", epoch) }
func walName(epoch uint64) string  { return fmt.Sprintf("wal-%08d.log", epoch) }

// writeManifest commits the current (snapshot, WAL) pair: temp file,
// fsync, atomic rename, directory fsync. committed reports whether the
// rename — the commit point — happened; it can be true even on error
// (directory fsync failure), in which case the commit is real but its
// crash-durability is uncertain.
func (s *Store) writeManifest() (committed bool, err error) {
	tmp, err := s.fs().CreateTemp(s.dir, ".manifest-*")
	if err != nil {
		return false, err
	}
	defer s.fs().Remove(tmp.Name())
	_, err = fmt.Fprintf(tmp, "incgraph-store %d\nepoch %d\nsnapshot %s\nwal %s\n",
		manifestVersion, s.epoch, s.snap, s.walRel)
	if err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := s.fs().Rename(tmp.Name(), filepath.Join(s.dir, manifestName)); err != nil {
		return false, err
	}
	return true, s.fs().SyncDir(s.dir)
}

// readManifest parses the commit-point file.
func readManifest(path string) (epoch uint64, snap, wal string, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, "", "", fmt.Errorf("%w: %s", ErrNoStore, filepath.Dir(path))
		}
		return 0, "", "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return 0, "", "", fmt.Errorf("store: manifest line %d: want 'key value'", line)
		}
		switch fields[0] {
		case "incgraph-store":
			v, perr := strconv.Atoi(fields[1])
			if perr != nil || v != manifestVersion {
				return 0, "", "", fmt.Errorf("store: unsupported manifest version %q", fields[1])
			}
		case "epoch":
			if epoch, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
				return 0, "", "", fmt.Errorf("store: manifest line %d: %v", line, err)
			}
		case "snapshot":
			snap = fields[1]
		case "wal":
			wal = fields[1]
		default:
			// Unknown keys are ignored for forward compatibility.
		}
	}
	if err := sc.Err(); err != nil {
		return 0, "", "", err
	}
	if snap == "" || wal == "" {
		return 0, "", "", fmt.Errorf("store: manifest missing snapshot or wal entry")
	}
	return epoch, snap, wal, nil
}

// fs returns the store's filesystem, defaulting to the real one.
func (s *Store) fs() FS { return fsOrOS(s.opts.FS) }

// WALBroken returns the wedging error of a WAL whose failed append could
// not be rolled back (nil while appends can still be acknowledged).
func (s *Store) WALBroken() error { return s.wal.Broken() }
