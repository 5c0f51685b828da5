package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"vpdift/internal/cover"
)

// SessionResult is the durable outcome of one finished session: the part of
// a run that is a pure function of (image, policy, stimulus) and therefore
// safe to serve from the result store on a repeated submission. Wall-clock
// and sample counts are informational — they describe the run that produced
// the result, not the result itself.
type SessionResult struct {
	// Key is the (image, policy, stimulus) content hash the result is
	// stored under; empty for sessions submitted without one.
	Key string `json:"key,omitempty"`
	// Session names the session that produced the result.
	Session string `json:"session,omitempty"`
	// SimNs is the simulated time reached when the session ended.
	SimNs uint64 `json:"sim_time_ns"`
	// Instret is the number of retired instructions.
	Instret uint64 `json:"instret"`
	// Exited reports whether the guest powered off, with its exit code.
	Exited   bool   `json:"exited"`
	ExitCode uint32 `json:"exit_code,omitempty"`
	// Violations sums every violations.* counter at session end.
	Violations uint64 `json:"violations"`
	// Detected reports whether the session ended on a policy violation —
	// the Table I verdict for attack workloads.
	Detected bool `json:"detected"`
	// Error is the run error that ended the session, "" for a clean end.
	Error string `json:"error,omitempty"`
	// Fault carries the guest-fault headline (faulting PC, cause, access
	// address) when the session ended on a bus error or unhandled trap.
	Fault *FaultDetail `json:"fault,omitempty"`
	// Forensics reports that the session kept a flight-recorder bundle,
	// served on GET /api/v1/sessions/{id}/forensics while the session is
	// registered. Results replayed from the store have no live bundle.
	Forensics bool `json:"forensics,omitempty"`
	// Canceled marks results of sessions ended by DELETE or server drain;
	// they are never cached.
	Canceled bool `json:"canceled,omitempty"`
	// TimedOut marks sessions that hit their wall-clock timeout; never
	// cached either.
	TimedOut bool `json:"timed_out,omitempty"`
	// Panicked marks sessions whose simulation panicked (Error carries the
	// panic's message); never cached.
	Panicked bool `json:"panicked,omitempty"`
	// WallNs is host wall-clock time the session spent running (0 for
	// results served from the store).
	WallNs int64 `json:"wall_ns,omitempty"`
	// Samples is the sampler's total at session end, when one was attached.
	Samples uint64 `json:"samples,omitempty"`
	// Cover is the coverage snapshot captured at session end when the spec
	// asked for one ("cover": true). Being part of the stored result, cells
	// replayed from the result store keep their coverage identity.
	Cover *cover.Snapshot `json:"cover,omitempty"`
}

// cacheable reports whether the result may be served for future submissions
// of the same key: only complete runs that were neither canceled, timed out
// nor ended by a panic are.
func (r SessionResult) cacheable() bool {
	return r.Key != "" && !r.Canceled && !r.TimedOut && !r.Panicked
}

// ResultStore is the dedup cache behind the campaign runner: results are
// keyed by the (image, policy, stimulus) content hash computed by the
// session factory, so resubmitting identical work is a cache hit instead of
// a re-simulation. Implementations must be safe for concurrent use.
type ResultStore interface {
	// Get returns the stored result for key.
	Get(key string) (SessionResult, bool)
	// Put stores the result under key, replacing any previous entry.
	Put(key string, r SessionResult) error
	// Len returns how many results are stored.
	Len() int
}

// MemStore is the in-process ResultStore: a map under a mutex. It is the
// default store of a NewServer without WithResultStore.
type MemStore struct {
	mu sync.Mutex
	m  map[string]SessionResult
}

// NewMemStore creates an empty in-memory result store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string]SessionResult)} }

// Get returns the stored result for key.
func (st *MemStore) Get(key string) (SessionResult, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.m[key]
	return r, ok
}

// Put stores the result under key.
func (st *MemStore) Put(key string, r SessionResult) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m[key] = r
	return nil
}

// Len returns how many results are stored.
func (st *MemStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// FileStore persists results as one JSON file per key under a directory, so
// the dedup cache survives server restarts. Reads hit an in-memory cache
// first and fall back to disk, so a store reopened over an existing
// directory serves its old results.
type FileStore struct {
	dir string
	mem MemStore
	// loadErrors counts disk reads that found a file but could not use it
	// (I/O error or corrupt JSON) — a silent-degradation signal the server
	// surfaces as vpdift_serve_store_load_errors_total.
	loadErrors atomic.Uint64
}

// LoadErrors returns how many on-disk results failed to load (unreadable
// file or corrupt JSON). A plain miss — no file — is not an error.
func (st *FileStore) LoadErrors() uint64 { return st.loadErrors.Load() }

// NewFileStore opens (creating if needed) a directory-backed result store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: result store: %w", err)
	}
	return &FileStore{dir: dir, mem: MemStore{m: make(map[string]SessionResult)}}, nil
}

// path maps a key to its file. Keys are hex content hashes, but guard
// against anything path-like all the same.
func (st *FileStore) path(key string) string {
	key = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key)
	return filepath.Join(st.dir, key+".json")
}

// Get returns the stored result for key, reading through to disk on a
// memory miss.
func (st *FileStore) Get(key string) (SessionResult, bool) {
	if r, ok := st.mem.Get(key); ok {
		return r, true
	}
	b, err := os.ReadFile(st.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			st.loadErrors.Add(1)
		}
		return SessionResult{}, false
	}
	var r SessionResult
	if json.Unmarshal(b, &r) != nil {
		st.loadErrors.Add(1)
		return SessionResult{}, false
	}
	st.mem.Put(key, r)
	return r, true
}

// Put stores the result under key, writing the file atomically
// (write-to-temp + rename) so a concurrent reader never sees a torn entry.
func (st *FileStore) Put(key string, r SessionResult) error {
	st.mem.Put(key, r)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), st.path(key))
}

// Len returns how many results are on disk.
func (st *FileStore) Len() int {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return st.mem.Len()
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
