package store

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Deterministic disk-fault injection. A FaultFS wraps a real FS and fails
// chosen syscalls — matched by operation, file name, and per-rule
// occurrence index. Every fired fault is recorded in an event log,
// and a drill run twice from the same seed over the same traffic produces
// identical logs (the CI disk-chaos job's determinism pin).
//
// The injectable failure modes cover the classic fsyncgate taxonomy:
// whole-write EIO, partial-write ENOSPC, short and torn writes, fsync
// that fails, fsync that lies (returns nil without making anything
// durable), and crash-at-write-K — with FaultPowerFail additionally
// truncating every tracked file back to its last truly-synced size, so
// recovery drills see exactly the bytes a power loss would have left.
//
// Tracking is per path: writes grow a file's size, a genuine successful
// Sync advances its synced watermark, Truncate clamps both, and Rename
// moves the entry. Renames themselves are not undone by FaultPowerFail
// (directory-entry loss is approximated by failing SyncDir instead).
//
// Temp files get random names, which would make event logs diverge run to
// run, so events and path matching use a normalized base name: a
// dot-prefixed name's random suffix collapses to "*" (".manifest-123456"
// → ".manifest-*", matching the os.CreateTemp pattern that made it).

// FaultKind is the failure a fired rule injects.
type FaultKind int

const (
	// FaultEIO fails the operation outright; a write lands no bytes.
	FaultEIO FaultKind = iota
	// FaultENOSPC writes Keep bytes, then reports no space.
	FaultENOSPC
	// FaultShortWrite writes Keep bytes and returns io.ErrShortWrite.
	FaultShortWrite
	// FaultTornWrite writes Keep bytes, then reports an I/O error — the
	// classic torn append.
	FaultTornWrite
	// FaultSyncFail fails an fsync without flushing.
	FaultSyncFail
	// FaultSyncLie reports an fsync as successful without flushing: the
	// synced watermark does not advance, so a later FaultPowerFail drops
	// the "durable" bytes.
	FaultSyncLie
	// FaultCrash fails this and every subsequent operation with
	// ErrCrashed; bytes already written stay (a process crash — the page
	// cache survives).
	FaultCrash
	// FaultPowerFail is FaultCrash plus truncation of every tracked file
	// to its last truly-synced size (a power loss — the page cache dies).
	FaultPowerFail
)

func (k FaultKind) String() string {
	switch k {
	case FaultEIO:
		return "eio"
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "shortwrite"
	case FaultTornWrite:
		return "tornwrite"
	case FaultSyncFail:
		return "syncfail"
	case FaultSyncLie:
		return "synclie"
	case FaultCrash:
		return "crash"
	case FaultPowerFail:
		return "powerfail"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ErrCrashed reports an operation attempted after an injected crash.
var ErrCrashed = errors.New("store: faultfs: crashed")

// FSRule matches filesystem operations. Zero values of the match fields
// are wildcards where noted.
type FSRule struct {
	// Op matches the operation: "open", "create", "write", "sync",
	// "truncate", "rename", "remove", "syncdir". "" matches any.
	Op string
	// Path matches as a substring of the normalized base name ("" = any).
	Path string
	// Index matches the rule's 0-based Nth selector match (-1 = every
	// match). The count is per rule: two rules watching the same file
	// keep independent indexes.
	Index int
	// Prob, when in (0,1), fires the rule with that probability from the
	// seeded source; 0 and 1 both mean "always".
	Prob float64
	// Count limits how many times the rule fires (0 = unlimited).
	Count int
	// Kind is the failure to inject.
	Kind FaultKind
	// Keep is how many bytes of the attempted write land before a
	// partial-write kind reports failure.
	Keep int
}

// fileTrack is one tracked path's durability state.
type fileTrack struct {
	size   int64 // bytes written through the shim
	synced int64 // size at the last genuine successful fsync
}

// FaultFS is a seeded fault-injecting FS over Inner (the real filesystem
// when nil). Safe for concurrent use.
type FaultFS struct {
	Inner FS
	Seed  int64
	Rules []FSRule

	mu      sync.Mutex
	rng     *rand.Rand
	seen    []int // per-rule selector-match counts (Index currency)
	fired   []int
	events  []string
	crashed bool
	tracked map[string]*fileTrack
}

// NewFaultFS builds a fault-injecting filesystem from rules.
func NewFaultFS(seed int64, rules ...FSRule) *FaultFS {
	return &FaultFS{Seed: seed, Rules: rules}
}

// Events returns a copy of the fault log: one "op#n name kind" line per
// fired fault, in firing order, with temp-file names normalized.
func (f *FaultFS) Events() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.events...)
}

// Fired returns the total number of faults fired so far.
func (f *FaultFS) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.fired {
		n += c
	}
	return n
}

// Crashed reports whether an injected crash has wedged the filesystem.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// normName collapses a path to its base name with any temp-file random
// suffix replaced by "*", so event logs are identical across runs.
func normName(name string) string {
	base := filepath.Base(name)
	if strings.HasPrefix(base, ".") {
		if i := strings.LastIndexByte(base, '-'); i >= 0 {
			base = base[:i+1] + "*"
		}
	}
	return base
}

// fault runs one operation through the rules. It returns the fired rule,
// whether one fired, and a non-nil error when the filesystem has already
// crashed (the operation must not run at all).
func (f *FaultFS) fault(op, name string) (FSRule, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return FSRule{}, false, ErrCrashed
	}
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
		f.seen = make([]int, len(f.Rules))
		f.fired = make([]int, len(f.Rules))
	}
	base := normName(name)
	for i, r := range f.Rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(base, r.Path) {
			continue
		}
		idx := f.seen[i]
		f.seen[i]++
		if r.Index >= 0 && r.Index != idx {
			continue
		}
		if r.Count > 0 && f.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && f.rng.Float64() >= r.Prob {
			continue
		}
		f.fired[i]++
		f.events = append(f.events, fmt.Sprintf("%s#%d %s %s", op, idx, base, r.Kind))
		return r, true, nil
	}
	return FSRule{}, false, nil
}

// injectErr labels an injected failure.
func injectErr(op, name string, kind FaultKind) error {
	return fmt.Errorf("store: faultfs: injected %s on %s %s", kind, op, normName(name))
}

// crash wedges the filesystem; with power, every tracked file is
// truncated back to its last truly-synced size through the inner FS.
func (f *FaultFS) crash(power bool) {
	f.mu.Lock()
	f.crashed = true
	var cut map[string]int64
	if power {
		cut = make(map[string]int64, len(f.tracked))
		for path, t := range f.tracked {
			cut[path] = t.synced
		}
	}
	f.mu.Unlock()
	inner := fsOrOS(f.Inner)
	for path, synced := range cut {
		file, err := inner.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			continue // already renamed away or removed
		}
		file.Truncate(synced)
		file.Sync()
		file.Close()
	}
}

// track registers (or refreshes) a path's durability state.
func (f *FaultFS) track(path string, size int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tracked == nil {
		f.tracked = make(map[string]*fileTrack)
	}
	f.tracked[path] = &fileTrack{size: size, synced: size}
}

func (f *FaultFS) grow(path string, n int) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	if t := f.tracked[path]; t != nil {
		t.size += int64(n)
	}
	f.mu.Unlock()
}

func (f *FaultFS) markSynced(path string) {
	f.mu.Lock()
	if t := f.tracked[path]; t != nil {
		t.synced = t.size
	}
	f.mu.Unlock()
}

func (f *FaultFS) clamp(path string, size int64) {
	f.mu.Lock()
	if t := f.tracked[path]; t != nil {
		t.size = size
		if t.synced > size {
			t.synced = size
		}
	}
	f.mu.Unlock()
}

func (f *FaultFS) retrack(oldpath, newpath string) {
	f.mu.Lock()
	if t := f.tracked[oldpath]; t != nil {
		delete(f.tracked, oldpath)
		if f.tracked == nil {
			f.tracked = make(map[string]*fileTrack)
		}
		f.tracked[newpath] = t
	}
	f.mu.Unlock()
}

func (f *FaultFS) untrack(path string) {
	f.mu.Lock()
	delete(f.tracked, path)
	f.mu.Unlock()
}

// opErr resolves a fired rule on a non-write, non-sync operation.
func opErr(r FSRule, f *FaultFS, op, name string) error {
	switch r.Kind {
	case FaultCrash:
		f.crash(false)
		return ErrCrashed
	case FaultPowerFail:
		f.crash(true)
		return ErrCrashed
	default:
		return injectErr(op, name, r.Kind)
	}
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	rule, fired, err := f.fault("open", name)
	if err != nil {
		return nil, err
	}
	if fired {
		return nil, opErr(rule, f, "open", name)
	}
	file, err := fsOrOS(f.Inner).OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	if flag&os.O_TRUNC == 0 {
		if st, err := file.Stat(); err == nil {
			size = st.Size()
		}
	}
	f.track(name, size)
	return &faultFile{fs: f, inner: file, path: name}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	// Faults match (and log) the deterministic pattern, not the random
	// name the temp file ends up with.
	rule, fired, err := f.fault("create", pattern)
	if err != nil {
		return nil, err
	}
	if fired {
		return nil, opErr(rule, f, "create", pattern)
	}
	file, err := fsOrOS(f.Inner).CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.track(file.Name(), 0)
	return &faultFile{fs: f, inner: file, path: file.Name()}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	rule, fired, err := f.fault("rename", newpath)
	if err != nil {
		return err
	}
	if fired {
		return opErr(rule, f, "rename", newpath)
	}
	if err := fsOrOS(f.Inner).Rename(oldpath, newpath); err != nil {
		return err
	}
	f.retrack(oldpath, newpath)
	return nil
}

func (f *FaultFS) Remove(name string) error {
	rule, fired, err := f.fault("remove", name)
	if err != nil {
		return err
	}
	if fired {
		return opErr(rule, f, "remove", name)
	}
	if err := fsOrOS(f.Inner).Remove(name); err != nil {
		return err
	}
	f.untrack(name)
	return nil
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return fsOrOS(f.Inner).MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(dir string) error {
	rule, fired, err := f.fault("syncdir", dir)
	if err != nil {
		return err
	}
	if fired {
		switch rule.Kind {
		case FaultSyncLie:
			return nil
		case FaultCrash:
			f.crash(false)
			return ErrCrashed
		case FaultPowerFail:
			f.crash(true)
			return ErrCrashed
		default:
			return injectErr("syncdir", dir, rule.Kind)
		}
	}
	return fsOrOS(f.Inner).SyncDir(dir)
}

// faultFile shims one open file through the rules.
type faultFile struct {
	fs    *FaultFS
	inner File
	path  string
}

func (c *faultFile) Write(p []byte) (int, error) {
	rule, fired, err := c.fs.fault("write", c.path)
	if err != nil {
		return 0, err
	}
	if !fired {
		n, err := c.inner.Write(p)
		c.fs.grow(c.path, n)
		return n, err
	}
	// Partial-write kinds land Keep bytes before failing; EIO lands none.
	n := 0
	if rule.Kind != FaultEIO {
		keep := rule.Keep
		if keep > len(p) {
			keep = len(p)
		}
		if keep > 0 {
			n, _ = c.inner.Write(p[:keep])
			c.fs.grow(c.path, n)
		}
	}
	switch rule.Kind {
	case FaultShortWrite:
		return n, fmt.Errorf("store: faultfs: %s on write %s: %w", rule.Kind, normName(c.path), io.ErrShortWrite)
	case FaultCrash:
		c.fs.crash(false)
		return n, ErrCrashed
	case FaultPowerFail:
		c.fs.crash(true)
		return n, ErrCrashed
	default:
		return n, injectErr("write", c.path, rule.Kind)
	}
}

func (c *faultFile) Sync() error {
	rule, fired, err := c.fs.fault("sync", c.path)
	if err != nil {
		return err
	}
	if fired {
		switch rule.Kind {
		case FaultSyncLie:
			return nil // reported durable, nothing flushed
		case FaultCrash:
			c.fs.crash(false)
			return ErrCrashed
		case FaultPowerFail:
			c.fs.crash(true)
			return ErrCrashed
		default:
			return injectErr("sync", c.path, rule.Kind)
		}
	}
	if err := c.inner.Sync(); err != nil {
		return err
	}
	c.fs.markSynced(c.path)
	return nil
}

func (c *faultFile) Truncate(size int64) error {
	rule, fired, err := c.fs.fault("truncate", c.path)
	if err != nil {
		return err
	}
	if fired {
		return opErr(rule, c.fs, "truncate", c.path)
	}
	if err := c.inner.Truncate(size); err != nil {
		return err
	}
	c.fs.clamp(c.path, size)
	return nil
}

func (c *faultFile) Read(p []byte) (int, error) {
	if c.fs.Crashed() {
		return 0, ErrCrashed
	}
	return c.inner.Read(p)
}

func (c *faultFile) Seek(offset int64, whence int) (int64, error) {
	if c.fs.Crashed() {
		return 0, ErrCrashed
	}
	return c.inner.Seek(offset, whence)
}

func (c *faultFile) Close() error               { return c.inner.Close() }
func (c *faultFile) Name() string               { return c.inner.Name() }
func (c *faultFile) Stat() (os.FileInfo, error) { return c.inner.Stat() }
