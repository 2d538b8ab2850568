// Package tenant adds a namespace layer over repositories: a Manager maps
// tenant names to lazily-opened repository.Repository instances, each with
// its own data directory (<root>/<name>/), journal, constraints and
// idempotency keys. The paper's object bases are perfectly partitionable —
// OIDs never cross bases — so tenants share nothing but the process.
//
// Residency is bounded: at most MaxOpen repositories are resident at once.
// Opening a tenant past the cap evicts the least-recently-used idle one —
// a clean close that quiesces the repository's commit pipeline (DESIGN.md
// §9: it takes the apply and disk locks and flushes the pending batch),
// drops the resident state, and keeps the directory; the next Acquire recovers it through the normal
// Open path, journaled idempotency keys included. A tenant with requests
// in flight (refs > 0) is never evicted; when every resident tenant is
// busy, Acquire of a new one fails with ErrTooMany rather than exceeding
// the cap.
//
// Concurrent first-opens of one tenant are single-flight: the first
// Acquire creates the entry and runs recovery, later ones wait on it —
// one Open, never two repositories over one directory.
package tenant

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/repository"
)

// Name grammar: DNS-label-like, 1-64 chars, starts alphanumeric.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-_]{0,63}$`)

// ValidName reports whether name satisfies the tenant-name grammar
// [a-z0-9][a-z0-9-_]{0,63}. Valid names are safe as path components.
func ValidName(name string) bool { return nameRE.MatchString(name) }

var (
	// ErrInvalidName reports a tenant name outside the grammar.
	ErrInvalidName = errors.New("tenant: invalid tenant name")
	// ErrNotFound reports a tenant with no repository directory.
	ErrNotFound = errors.New("tenant: no such tenant")
	// ErrTooMany reports that the open-tenant cap is reached and every
	// resident tenant is busy, so nothing can be evicted.
	ErrTooMany = errors.New("tenant: too many open tenants")
	// ErrBusy reports a Delete of a tenant with requests in flight.
	ErrBusy = errors.New("tenant: tenant is busy")
	// ErrPinned reports a Delete of an adopted tenant.
	ErrPinned = errors.New("tenant: tenant is pinned")
	// ErrClosed reports an operation on a closed Manager.
	ErrClosed = errors.New("tenant: manager is closed")
	// ErrNoRoot reports a create on a Manager without a root directory
	// (only adopted tenants exist then).
	ErrNoRoot = errors.New("tenant: no tenants root configured")
)

// Tenant is one resident namespace: a name and its repository. Nothing
// about a tenant lives outside the repository directory, so eviction loses
// nothing a reopen does not bring back.
type Tenant struct {
	name string
	repo *repository.Repository

	// Everything below is owned by the Manager and guarded by its mu.
	refs    int
	pinned  bool          // adopted tenants are never evicted
	elem    *list.Element // position in the LRU list (nil when pinned)
	opening chan struct{} // closed once the open attempt finished
	openErr error
	closing bool          // evict/delete in progress; entry is a tombstone
	done    chan struct{} // closed once the tombstone is gone
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Repo returns the tenant's repository. Valid only while the caller holds
// an Acquire reference.
func (t *Tenant) Repo() *repository.Repository { return t.repo }

// Option configures a Manager.
type Option func(*Manager)

// WithMaxOpen bounds resident repositories (0 or negative = unbounded).
// Pinned (adopted) tenants count toward the bound but are never evicted.
func WithMaxOpen(n int) Option { return func(m *Manager) { m.maxOpen = n } }

// WithFS substitutes the filesystem tenant repositories are opened on
// (fault injection in tests).
func WithFS(fs fsio.FS) Option { return func(m *Manager) { m.fs = fs } }

// Manager maps tenant names to resident repositories with LRU residency.
// All methods are safe for concurrent use.
type Manager struct {
	root    string
	maxOpen int
	fs      fsio.FS

	mu       sync.Mutex
	resident map[string]*Tenant
	lru      *list.List // *Tenant, front = most recently used
	closed   bool

	opens       atomic.Int64
	evictions   atomic.Int64
	maxResident int

	reg *obs.Registry
}

// NewManager returns a Manager creating tenant directories under root. An
// empty root serves adopted tenants only: Acquire of anything else fails.
func NewManager(root string, opts ...Option) *Manager {
	m := &Manager{
		root:     root,
		fs:       fsio.OS,
		resident: make(map[string]*Tenant),
		lru:      list.New(),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Root returns the tenants root directory ("" when adopted-only).
func (m *Manager) Root() string { return m.root }

// MaxOpen returns the resident-repository bound (0 = unbounded).
func (m *Manager) MaxOpen() int { return m.maxOpen }

// Instrument wires the manager's residency metrics into reg:
// verlog_tenants_resident, verlog_tenant_opens_total and
// verlog_tenant_evictions_total.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	m.reg = reg
	m.mu.Unlock()
	reg.RegisterCollector(func() {
		m.mu.Lock()
		n := len(m.resident)
		m.mu.Unlock()
		reg.Gauge("verlog_tenants_resident", "Tenant repositories currently resident.").Set(float64(n))
	})
}

// Stats reports the manager's lifetime counters.
func (m *Manager) Stats() (resident int, opens, evictions int64, maxResident int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.resident), m.opens.Load(), m.evictions.Load(), m.maxResident
}

// Pressure reports residency pressure for the readiness probe: how many
// tenants are resident and how many of those are busy (requests in
// flight, pinned, or mid-close — i.e. not evictable). When MaxOpen > 0,
// resident == cap and busy == resident together mean the next Acquire of
// a non-resident tenant would fail with ErrTooMany.
func (m *Manager) Pressure() (resident, busy int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.resident {
		if t.refs > 0 || t.pinned || t.closing {
			busy++
		}
	}
	return len(m.resident), busy
}

// dirOf returns the tenant's directory. Callers validate name first, so
// the join cannot traverse out of the root.
func (m *Manager) dirOf(name string) string { return filepath.Join(m.root, name) }

// Adopt installs an already-open repository as a pinned resident tenant:
// it is never evicted and survives Close of the manager's other tenants
// (the caller owns its lifecycle). The server adopts its -dir repository
// as the "default" tenant this way.
func (m *Manager) Adopt(name string, repo *repository.Repository) *Tenant {
	t := &Tenant{name: name, repo: repo, pinned: true, opening: make(chan struct{})}
	close(t.opening)
	m.mu.Lock()
	m.resident[name] = t
	if len(m.resident) > m.maxResident {
		m.maxResident = len(m.resident)
	}
	m.mu.Unlock()
	return t
}

// Acquire returns the named tenant with a reference held; the caller must
// Release it. A non-resident tenant is opened from its directory — created
// first (empty base) when create is set — evicting the least-recently-used
// idle tenant if the residency cap is reached. Errors: ErrInvalidName,
// ErrNotFound (no directory and !create), ErrTooMany (cap reached, all
// resident tenants busy), ErrClosed.
func (m *Manager) Acquire(name string, create bool) (*Tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q (want [a-z0-9][a-z0-9-_]{0,63})", ErrInvalidName, name)
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrClosed
		}
		if t, ok := m.resident[name]; ok {
			if t.closing {
				// An eviction or delete is mid-flight; wait for the
				// directory to be released, then retry.
				done := t.done
				m.mu.Unlock()
				<-done
				continue
			}
			t.refs++
			if t.elem != nil {
				m.lru.MoveToFront(t.elem)
			}
			m.mu.Unlock()
			<-t.opening
			if t.openErr != nil {
				// The single-flight open failed; the opener already removed
				// the entry, our reference dies with it.
				return nil, t.openErr
			}
			return t, nil
		}
		// Not resident: make room, then open single-flight.
		if m.maxOpen > 0 && len(m.resident) >= m.maxOpen {
			victim := m.evictableLocked()
			if victim == nil {
				if ch := m.closingLocked(); ch != nil {
					m.mu.Unlock()
					<-ch
					continue
				}
				n := len(m.resident)
				m.mu.Unlock()
				return nil, fmt.Errorf("%w: %d resident, all busy (cap %d)", ErrTooMany, n, m.maxOpen)
			}
			victim.closing = true
			victim.done = make(chan struct{})
			m.lru.Remove(victim.elem)
			victim.elem = nil
			m.mu.Unlock()
			// Clean close outside the lock: quiesce the commit pipeline,
			// drop the resident state, keep the directory.
			victim.repo.Close()
			m.mu.Lock()
			delete(m.resident, victim.name)
			close(victim.done)
			reg := m.reg
			m.mu.Unlock()
			m.evictions.Add(1)
			if reg != nil {
				reg.Counter("verlog_tenant_evictions_total", "Idle tenant repositories evicted by the LRU residency cap.").Inc()
			}
			continue
		}
		t := &Tenant{name: name, refs: 1, opening: make(chan struct{})}
		m.resident[name] = t
		t.elem = m.lru.PushFront(t)
		if len(m.resident) > m.maxResident {
			m.maxResident = len(m.resident)
		}
		m.mu.Unlock()

		repo, err := m.open(name, create)
		m.mu.Lock()
		if err != nil {
			delete(m.resident, name)
			if t.elem != nil {
				m.lru.Remove(t.elem)
				t.elem = nil
			}
			t.openErr = err
		} else {
			t.repo = repo
			m.opens.Add(1)
		}
		close(t.opening)
		reg := m.reg
		m.mu.Unlock()
		if err == nil && reg != nil {
			reg.Counter("verlog_tenant_opens_total", "Tenant repositories opened (lazy opens and creations).").Inc()
		}
		if err != nil {
			return nil, err
		}
		return t, nil
	}
}

// open opens (or creates) the tenant's repository; no manager locks held.
func (m *Manager) open(name string, create bool) (*repository.Repository, error) {
	if m.root == "" {
		if create {
			return nil, ErrNoRoot
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	dir := m.dirOf(name)
	if _, err := m.fs.Stat(filepath.Join(dir, "snapshot.bin")); err != nil {
		if !create {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return repository.InitFS(dir, objectbase.New(), m.fs)
	}
	return repository.OpenFS(dir, m.fs)
}

// Release returns a reference taken by Acquire. The tenant becomes
// evictable when its last reference is released.
func (m *Manager) Release(t *Tenant) {
	if t == nil {
		return
	}
	m.mu.Lock()
	if t.refs > 0 {
		t.refs--
	}
	m.mu.Unlock()
}

// evictableLocked returns the least-recently-used idle tenant, or nil.
func (m *Manager) evictableLocked() *Tenant {
	for e := m.lru.Back(); e != nil; e = e.Prev() {
		t := e.Value.(*Tenant)
		if t.refs == 0 && !t.closing && t.openErr == nil && opened(t) {
			return t
		}
	}
	return nil
}

// closingLocked returns the done channel of some in-flight eviction, or
// nil when none is running.
func (m *Manager) closingLocked() chan struct{} {
	for _, t := range m.resident {
		if t.closing {
			return t.done
		}
	}
	return nil
}

// opened reports whether the tenant's single-flight open has finished.
func opened(t *Tenant) bool {
	select {
	case <-t.opening:
		return true
	default:
		return false
	}
}

// Info is one row of List: a tenant on disk (or adopted), its residency,
// and — when resident — its journal head seq.
type Info struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
	// Seq is the tenant's published journal head seq; present only while
	// the tenant is resident (listing must not fault every tenant in).
	Seq *int `json:"seq,omitempty"`
	// Facts is the published head's fact count; resident tenants only.
	Facts *int `json:"facts,omitempty"`
	// SizeBytes is the on-disk footprint of the tenant's directory
	// (adopted tenants living outside the root report 0).
	SizeBytes int64 `json:"size_bytes"`
}

// List enumerates every tenant: the directories under the root plus the
// adopted residents, sorted by name. Listing is cheap by design — it reads
// directory metadata and the resident heads, and never opens a repository.
func (m *Manager) List() ([]Info, error) {
	names := map[string]bool{}
	if m.root != "" {
		entries, err := os.ReadDir(m.root)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("tenant: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() && ValidName(e.Name()) {
				names[e.Name()] = true
			}
		}
	}
	m.mu.Lock()
	res := make(map[string]*Tenant, len(m.resident))
	for n, t := range m.resident {
		if !t.closing && t.openErr == nil && opened(t) {
			res[n] = t
			names[n] = true
		}
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(names))
	for n := range names {
		info := Info{Name: n}
		if t := res[n]; t != nil {
			info.Resident = true
			_, seq := t.repo.Snapshot()
			head, _ := t.repo.Head()
			facts := head.Size()
			info.Seq, info.Facts = &seq, &facts
			info.SizeBytes = dirSize(t.repo.Dir())
		} else {
			info.SizeBytes = dirSize(m.dirOf(n))
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// dirSize sums the sizes of the regular files directly in dir (repository
// directories are flat); 0 on any error.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// Delete closes the named tenant and removes its directory. A tenant with
// references in flight is ErrBusy; a pinned (adopted) tenant cannot be
// deleted. Deleting a tenant that only exists on disk removes the
// directory without opening it.
func (m *Manager) Delete(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		t, ok := m.resident[name]
		if !ok {
			m.mu.Unlock()
			if m.root == "" {
				return fmt.Errorf("%w: %q", ErrNotFound, name)
			}
			dir := m.dirOf(name)
			if _, err := os.Stat(dir); err != nil {
				return fmt.Errorf("%w: %q", ErrNotFound, name)
			}
			return os.RemoveAll(dir)
		}
		if t.closing {
			done := t.done
			m.mu.Unlock()
			<-done
			continue
		}
		if t.pinned {
			m.mu.Unlock()
			return fmt.Errorf("%w: %q cannot be deleted", ErrPinned, name)
		}
		if t.refs > 0 {
			m.mu.Unlock()
			return fmt.Errorf("%w: %q has %d request(s) in flight", ErrBusy, name, t.refs)
		}
		if !opened(t) {
			done := t.opening
			m.mu.Unlock()
			<-done
			continue
		}
		t.closing = true
		t.done = make(chan struct{})
		if t.elem != nil {
			m.lru.Remove(t.elem)
			t.elem = nil
		}
		m.mu.Unlock()
		var rmErr error
		if t.openErr == nil {
			t.repo.Close()
			rmErr = os.RemoveAll(t.repo.Dir())
		}
		m.mu.Lock()
		delete(m.resident, name)
		close(t.done)
		m.mu.Unlock()
		return rmErr
	}
}

// Close shuts the manager down: no further Acquires succeed and every
// resident non-pinned repository is closed (quiesced; in-flight applies
// fail with repository.ErrClosed). Adopted repositories are left open —
// their owner closes them.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var repos []*repository.Repository
	for _, t := range m.resident {
		if !t.pinned && t.openErr == nil && opened(t) && !t.closing {
			repos = append(repos, t.repo)
		}
	}
	m.mu.Unlock()
	for _, r := range repos {
		r.Close()
	}
}
