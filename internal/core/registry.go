package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/snapshot"
)

// Registry is a named, multi-tenant catalog of compiled schemes: one
// process serves connection queries over many conceptual schemes, looked
// up by name per query. Updates are atomic compile-and-swap — Set compiles
// the new scheme (freeze + classify, the expensive part) outside the lock,
// then swaps the catalog pointer under it. The swap is copy-on-write at
// the scheme granularity: a query that resolved its Service before the
// swap finishes on the old frozen epoch (immutable, so never torn), while
// every later lookup sees the new one. Readers never block on a compile.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*registryEntry
	// epochs counts Sets per name monotonically and survives Drop, so a
	// caller polling Epoch never sees the counter restart across a
	// drop-and-reinstall.
	epochs map[string]uint64
}

// registryEntry pairs a compiled scheme with its swap epoch and how the
// epoch came to be ("compiled", or "snapshot-v<N>" for a persisted epoch
// revived by LoadSnapshot).
type registryEntry struct {
	svc    *Service
	epoch  uint64
	source string
}

// SourceCompiled is the Source of an epoch installed by Set (a live
// Freeze+Classify compile).
const SourceCompiled = "compiled"

// SourceSnapshot is the Source of an epoch revived from a snapshot of the
// given format version.
func SourceSnapshot(version uint16) string {
	return fmt.Sprintf("snapshot-v%d", version)
}

// NewRegistry returns an empty catalog.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*registryEntry),
		epochs:  make(map[string]uint64),
	}
}

// Set compiles b (with opts, as Open would) and installs it under name,
// replacing any previous scheme of that name. It returns the new Service.
// The compile runs before the catalog lock is taken, so concurrent readers
// of the old epoch are never stalled by an update.
func (r *Registry) Set(name string, b *bipartite.Graph, opts ...Option) *Service {
	svc := Open(b, opts...)
	r.Swap(name, svc, SourceCompiled)
	return svc
}

// Swap installs an already-built Service under name — the one place the
// catalog pointer changes, shared by Set, LoadSnapshot and callers (the
// HTTP admin surface) that build the Service themselves. It returns the
// epoch the install landed at, read atomically with the swap, so the
// caller can attribute its own install even when concurrent updates race
// on the same name (a Get-then-Epoch readback could straddle a later
// swap). source should be SourceCompiled or SourceSnapshot(version).
func (r *Registry) Swap(name string, svc *Service, source string) uint64 {
	// Carry the outgoing epoch's settled answers into the incoming
	// service before publishing it, so a reinstall of the identical
	// scheme (same fingerprint — WarmFrom verifies) does not restart the
	// cache cold. Runs before the catalog lock is taken: the copy walks
	// the old cache's indexes lock-free and never stalls readers, and a
	// racing swap on the same name at worst warms from an epoch that
	// loses the race — entries are revalidated either way.
	if prev, ok := r.Get(name); ok {
		svc.WarmFrom(prev)
	}
	r.mu.Lock()
	r.epochs[name]++
	epoch := r.epochs[name]
	r.entries[name] = &registryEntry{svc: svc, epoch: epoch, source: source}
	r.mu.Unlock()
	return epoch
}

// LoadSnapshot decodes a persisted compiled epoch and installs it under
// name with the same atomic swap semantics as Set — in-flight queries
// finish on the old epoch, later lookups see the revived one — but with
// zero recompilation: the expensive Freeze+Classify already happened in
// whatever process wrote the snapshot. The installed entry is stamped with
// the snapshot's format version (see Source). Decode failures are typed
// (snapshot.ErrNotSnapshot, ErrUnsupportedVersion, ErrChecksum,
// ErrCorrupt) and leave the catalog unchanged.
func (r *Registry) LoadSnapshot(name string, data []byte, opts ...Option) (*Service, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	svc := OpenSnapshot(snap, opts...)
	r.Swap(name, svc, SourceSnapshot(snap.Version))
	return svc, nil
}

// SaveSnapshot serializes the named scheme's current epoch to w, so a
// later process (or another Registry, via LoadSnapshot) can boot it
// without recompiling. Unknown names return ErrUnknownScheme.
func (r *Registry) SaveSnapshot(name string, w io.Writer) error {
	svc, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
	return svc.SaveSnapshot(w)
}

// Source reports how the named scheme's current epoch was produced:
// SourceCompiled for a live compile, "snapshot-v<N>" for an epoch revived
// from a format-version-N snapshot, "" when the name is not registered.
func (r *Registry) Source(name string) string {
	_, _, source, _ := r.Entry(name)
	return source
}

// Entry returns the current Service, epoch and source for name in one
// atomic read — use it when the three must describe the same install (a
// Lookup-then-Source pair can straddle a concurrent swap).
func (r *Registry) Entry(name string) (svc *Service, epoch uint64, source string, ok bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, "", false
	}
	return e.svc, e.epoch, e.source, true
}

// Get returns the current Service for name. The returned Service remains
// fully usable even after a later Set replaces it (the old frozen epoch
// stays immutable); callers that want the newest epoch per query should
// use Registry.Connect instead of holding a Service.
func (r *Registry) Get(name string) (*Service, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.svc, true
}

// Lookup returns the current Service for name together with the epoch it
// was installed at, read atomically with respect to Set/Drop — use it when
// an answer must be attributed to the compile that produced it (Get then
// Epoch can straddle a concurrent swap).
func (r *Registry) Lookup(name string) (*Service, uint64, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return e.svc, e.epoch, true
}

// Epoch returns how many times name has been set (1 for the initial
// install, monotonic across Drop/reinstall), or 0 when it is not
// currently registered.
func (r *Registry) Epoch(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[name]; ok {
		return e.epoch
	}
	return 0
}

// Drop removes name from the catalog and reports whether it was present.
// In-flight queries on the dropped scheme finish normally.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	return ok
}

// Names lists the registered scheme names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered schemes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Connect answers one query against the named scheme's current epoch,
// with the same contract as Service.Connect. Unknown names return
// ErrUnknownScheme.
func (r *Registry) Connect(ctx context.Context, scheme string, terminals []int, opts ...QueryOption) (Connection, error) {
	svc, ok := r.Get(scheme)
	if !ok {
		return Connection{}, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
	return svc.Connect(ctx, terminals, opts...)
}
