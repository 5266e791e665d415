package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Mode selects what happens at the planned I/O operation. InjectFS takes
// every mode; FaultDisk takes ModeNone, ModeFail and ModeFlip.
type Mode int

const (
	// ModeNone injects nothing.
	ModeNone Mode = iota
	// ModeFail makes the Nth mutating operation return ErrInjected
	// without executing; the filesystem stays alive.
	ModeFail
	// ModeTorn makes the Nth mutating operation, if it is a file write,
	// persist only the first half of its bytes and then power-cut —
	// producing a genuine torn write on stable storage. A non-write
	// operation power-cuts as ModePowerCut.
	ModeTorn
	// ModeFlip makes the Nth mutating operation, if it is a file write,
	// flip one bit of the written data and report success — silent media
	// corruption that only a checksum can catch. A non-write operation
	// proceeds untouched.
	ModeFlip
	// ModePowerCut crashes the filesystem at the Nth mutating operation:
	// the operation does not execute, unsynced state is discarded, and
	// every later operation fails with ErrCrashed.
	ModePowerCut
)

// ErrInjected is the error returned by operations failed by the injector.
var ErrInjected = errors.New("fault: injected I/O failure")

// Crasher is implemented by filesystems that can simulate a power cut
// (MemFS and InjectFS).
type Crasher interface {
	Crash()
}

// InjectFS wraps an FS, counts its mutating operations (creates, writes,
// syncs, renames, removes, mkdirs, dir syncs, and closes of writable
// files), and injects one fault at a planned operation index. Reads are
// never counted or failed: the harness probes durability, not
// availability.
type InjectFS struct {
	inner FS

	mu      sync.Mutex
	ops     int64
	mode    Mode
	at      int64
	tripped bool
	dead    bool
}

// NewInject wraps inner with an injector whose plan is initially empty.
func NewInject(inner FS) *InjectFS {
	return &InjectFS{inner: inner}
}

// SetPlan arms the injector: the at-th mutating operation (1-based) fails
// per mode. It also resets the operation counter, so a fresh plan can be
// applied to a fresh run over the same underlying filesystem.
func (i *InjectFS) SetPlan(mode Mode, at int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.mode, i.at = mode, at
	i.ops = 0
	i.tripped = false
	i.dead = false
}

// Ops returns how many mutating operations have been counted since the
// last SetPlan. Running a workload with an empty plan and reading Ops
// gives the sweep bound for that workload.
func (i *InjectFS) Ops() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Tripped reports whether the planned fault has fired.
func (i *InjectFS) Tripped() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.tripped
}

// Crash power-cuts the underlying filesystem (if it supports it) and
// fails every subsequent operation through this injector.
func (i *InjectFS) Crash() {
	i.mu.Lock()
	i.dead = true
	i.mu.Unlock()
	if c, ok := i.inner.(Crasher); ok {
		c.Crash()
	}
}

// action is the injector's verdict for one operation.
type action int

const (
	actProceed action = iota
	actFail
	actFlip
	actTorn
	actDead
)

// step counts one mutating operation and decides its fate. isWrite marks
// operations that carry a data payload (File.Write), the only ones torn
// and bit-flip faults apply to.
func (i *InjectFS) step(isWrite bool) action {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.dead {
		return actDead
	}
	i.ops++
	if i.mode == ModeNone || i.ops != i.at {
		return actProceed
	}
	i.tripped = true
	switch i.mode {
	case ModeFail:
		return actFail
	case ModeFlip:
		if isWrite {
			return actFlip
		}
		return actProceed
	case ModeTorn:
		if isWrite {
			i.dead = true // the torn write is this fs's last act
			return actTorn
		}
		i.dead = true
		return actDead
	case ModePowerCut:
		i.dead = true
		return actDead
	}
	return actProceed
}

// crashInner power-cuts the wrapped filesystem, discarding unsynced state.
func (i *InjectFS) crashInner() {
	if c, ok := i.inner.(Crasher); ok {
		c.Crash()
	}
}

// mutate runs a non-write mutating operation under the injector.
func (i *InjectFS) mutate(op func() error) error {
	switch i.step(false) {
	case actFail:
		return ErrInjected
	case actDead:
		i.crashInner()
		return ErrCrashed
	}
	return op()
}

// MkdirAll implements FS.
func (i *InjectFS) MkdirAll(path string) error {
	return i.mutate(func() error { return i.inner.MkdirAll(path) })
}

// Create implements FS.
func (i *InjectFS) Create(path string) (File, error) {
	var f File
	err := i.mutate(func() (err error) {
		f, err = i.inner.Create(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: i, inner: f, writable: true}, nil
}

// OpenAppend implements FS.
func (i *InjectFS) OpenAppend(path string) (File, error) {
	var f File
	err := i.mutate(func() (err error) {
		f, err = i.inner.OpenAppend(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: i, inner: f, writable: true}, nil
}

// Open implements FS. Reads are not injection points.
func (i *InjectFS) Open(path string) (File, error) {
	f, err := i.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: i, inner: f}, nil
}

// ReadFile implements FS.
func (i *InjectFS) ReadFile(path string) ([]byte, error) { return i.inner.ReadFile(path) }

// Rename implements FS.
func (i *InjectFS) Rename(oldPath, newPath string) error {
	return i.mutate(func() error { return i.inner.Rename(oldPath, newPath) })
}

// Remove implements FS.
func (i *InjectFS) Remove(path string) error {
	return i.mutate(func() error { return i.inner.Remove(path) })
}

// RemoveAll implements FS.
func (i *InjectFS) RemoveAll(path string) error {
	return i.mutate(func() error { return i.inner.RemoveAll(path) })
}

// ReadDir implements FS.
func (i *InjectFS) ReadDir(path string) ([]string, error) { return i.inner.ReadDir(path) }

// Stat implements FS.
func (i *InjectFS) Stat(path string) (int64, error) { return i.inner.Stat(path) }

// SyncDir implements FS.
func (i *InjectFS) SyncDir(path string) error {
	return i.mutate(func() error { return i.inner.SyncDir(path) })
}

// injectFile threads write/sync/close operations through the injector.
type injectFile struct {
	fs       *InjectFS
	inner    File
	writable bool
}

// Write implements File, the only operation torn and flip faults hit.
func (f *injectFile) Write(p []byte) (int, error) {
	switch f.fs.step(true) {
	case actFail:
		return 0, ErrInjected
	case actDead:
		f.fs.crashInner()
		return 0, ErrCrashed
	case actTorn:
		// Persist the first half of the write, fsync it so it survives
		// the power cut, then crash. The caller sees a failure; stable
		// storage keeps a torn prefix.
		half := p[:len(p)/2]
		if len(half) > 0 {
			if _, err := f.inner.Write(half); err != nil {
				return 0, fmt.Errorf("fault: torn write: %w", err)
			}
			if err := f.inner.Sync(); err != nil {
				return 0, fmt.Errorf("fault: torn write sync: %w", err)
			}
		}
		f.fs.crashInner()
		return len(half), ErrInjected
	case actFlip:
		flipped := append([]byte(nil), p...)
		flipped[len(flipped)/2] ^= 1 << uint(len(flipped)%8)
		n, err := f.inner.Write(flipped)
		if err != nil {
			return n, fmt.Errorf("fault: flipped write: %w", err)
		}
		return len(p), nil
	}
	return f.inner.Write(p)
}

// ReadAt implements File.
func (f *injectFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

// Sync implements File.
func (f *injectFile) Sync() error {
	if f.writable {
		switch f.fs.step(false) {
		case actFail:
			return ErrInjected
		case actDead:
			f.fs.crashInner()
			return ErrCrashed
		}
	}
	return f.inner.Sync()
}

// Close implements File. Closes of writable handles count: a close can
// report a deferred write error, and the persist layer must propagate it.
func (f *injectFile) Close() error {
	if f.writable {
		switch f.fs.step(false) {
		case actFail:
			// The handle still closes underneath so the harness does not
			// leak; the caller must treat the close as failed regardless.
			_ = f.inner.Close()
			return ErrInjected
		case actDead:
			f.fs.crashInner()
			_ = f.inner.Close()
			return ErrCrashed
		}
	}
	return f.inner.Close()
}
