package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Options tunes an Open call. The zero value gets sensible defaults;
// Dir is required.
type Options struct {
	// Dir is the store root; each shard lives in Dir/shard-NNN.
	Dir string
	// Shards is the consistent-hash shard count (default 4). Persisted
	// on first open; pass 0 on a reopen to adopt the persisted count,
	// any other mismatch is an error.
	Shards int
	// PoolPages caps the total buffer-pool frames across all shards
	// (default 1024, split evenly; every shard gets at least one frame,
	// and the pool itself enforces a small per-shard minimum).
	PoolPages int
	// PageSize is the slotted-page unit in bytes (default 8192).
	// Persisted on first open; pass 0 on a reopen to adopt the
	// persisted size, any other mismatch is an error.
	PageSize int
	// SegmentBytes caps one data segment file (default 4 MiB).
	SegmentBytes int64
	// WALSegmentBytes caps one WAL segment file (default 4 MiB).
	WALSegmentBytes int64
	// CompactFraction triggers background compaction when dead bytes
	// exceed this fraction of a shard's total (default 0.5).
	CompactFraction float64
	// CompactMinBytes suppresses compaction below this total footprint
	// (default 1 MiB).
	CompactMinBytes int64
	// Peer, when set, is consulted on a local miss: a hit warm-fills
	// the owning shard before returning, so a fresh replica heals from
	// its peers instead of recomputing.
	Peer PeerFiller
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 1024
	}
	if o.PageSize <= 0 {
		o.PageSize = 8192
	}
	if o.PageSize < 512 {
		o.PageSize = 512
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = 4 << 20
	}
	if o.CompactFraction <= 0 || o.CompactFraction >= 1 {
		o.CompactFraction = 0.5
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	return o
}

// PeerFiller fetches a missing key from a peer replica — the warm-fill
// hook that lets a restarted or newly added node serve from the fleet's
// collective memo table instead of recomputing. Implementations must be
// safe for concurrent use; a miss returns (nil, false).
type PeerFiller interface {
	FetchPeer(key string) ([]byte, bool)
}

// StorePeer adapts another Store into a PeerFiller (replica warm-fill
// in tests and single-process fleets). Lookups are local-only so two
// stores peering at each other cannot recurse.
type StorePeer struct{ S *Store }

// FetchPeer implements PeerFiller.
func (p StorePeer) FetchPeer(key string) ([]byte, bool) {
	v, ok, err := p.S.GetLocal(key)
	if err != nil {
		return nil, false
	}
	return v, ok
}

// storeManifest pins the layout parameters a directory was created
// with, so a reopen cannot silently reshard or change page geometry.
type storeManifest struct {
	Version  int `json:"version"`
	Shards   int `json:"shards"`
	PageSize int `json:"page_size"`
}

const storeManifestVersion = 1

// Store is the durable scenario-result store: a consistent-hash ring
// of WAL-backed page shards. Safe for concurrent use.
type Store struct {
	dir    string
	ring   *Ring
	shards []*Shard
	peer   PeerFiller

	peerFills      atomic.Uint64
	peerMisses     atomic.Uint64
	peerFillErrors atomic.Uint64
}

// Open opens (or creates) the store rooted at opt.Dir, recovering
// every shard: segment scan, WAL replay, torn-tail truncation.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	// An explicit sub-minimum page size rounds up before the manifest
	// comparison, matching what a create would have persisted.
	if opt.PageSize > 0 && opt.PageSize < 512 {
		opt.PageSize = 512
	}
	manPath := filepath.Join(opt.Dir, "STORE")
	if data, err := os.ReadFile(manPath); err == nil {
		var m storeManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("store: corrupt manifest %s: %w", manPath, err)
		}
		if m.Version != storeManifestVersion {
			return nil, fmt.Errorf("store: manifest version %d unsupported", m.Version)
		}
		// Zero-valued layout options adopt the persisted geometry — the
		// defaults must not shadow what the directory was created with —
		// while an explicit conflicting value stays an error.
		if opt.Shards <= 0 {
			opt.Shards = m.Shards
		} else if m.Shards != opt.Shards {
			return nil, fmt.Errorf("store: %s was created with %d shards, reopened with %d — shard count is fixed at creation", opt.Dir, m.Shards, opt.Shards)
		}
		if opt.PageSize <= 0 {
			opt.PageSize = m.PageSize
		} else if m.PageSize != opt.PageSize {
			return nil, fmt.Errorf("store: %s was created with page size %d, reopened with %d", opt.Dir, m.PageSize, opt.PageSize)
		}
		opt = opt.withDefaults()
	} else if os.IsNotExist(err) {
		opt = opt.withDefaults()
		data, merr := json.Marshal(storeManifest{Version: storeManifestVersion, Shards: opt.Shards, PageSize: opt.PageSize})
		if merr != nil {
			return nil, merr
		}
		if err := os.WriteFile(manPath, data, 0o644); err != nil {
			return nil, err
		}
		if err := syncDir(opt.Dir); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	perShard := opt
	// Clamp the even split to at least one frame per shard: a total cap
	// below the shard count must stay a tiny pool, not re-default to
	// 1024 frames per shard inside OpenShard.
	perShard.PoolPages = opt.PoolPages / opt.Shards
	if perShard.PoolPages < 1 {
		perShard.PoolPages = 1
	}
	st := &Store{
		dir:  opt.Dir,
		ring: NewRing(opt.Shards),
		peer: opt.Peer,
	}
	for i := 0; i < opt.Shards; i++ {
		sh, err := OpenShard(filepath.Join(opt.Dir, fmt.Sprintf("shard-%03d", i)), perShard)
		if err != nil {
			for _, prev := range st.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("store: open shard %d: %w", i, err)
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// Dir returns the store root directory.
func (s *Store) Dir() string { return s.dir }

// shard returns the owning shard for key.
func (s *Store) shard(key string) *Shard {
	return s.shards[s.ring.Owner(key)]
}

// Get returns the value for key. A local miss consults the peer filler
// (when configured): a peer hit warm-fills the owning shard — durably,
// so the heal survives the next restart — before returning.
func (s *Store) Get(key string) ([]byte, bool, error) {
	v, ok, err := s.shard(key).Get(key)
	if err != nil || ok {
		return v, ok, err
	}
	if s.peer == nil {
		return nil, false, nil
	}
	pv, pok := s.peer.FetchPeer(key)
	if !pok {
		s.peerMisses.Add(1)
		return nil, false, nil
	}
	s.peerFills.Add(1)
	if err := s.shard(key).Put(key, pv); err != nil {
		// The fetched value is still good — serve it even though the
		// local fill failed — but count the failure: a replica that can
		// never durably adopt peer values re-fetches on every miss and
		// must be visible in the stats.
		s.peerFillErrors.Add(1)
	}
	return pv, true, nil
}

// GetLocal is Get without the peer hook — what a peer serves, so that
// mutually-peered stores terminate.
func (s *Store) GetLocal(key string) ([]byte, bool, error) {
	return s.shard(key).Get(key)
}

// Put durably stores key → val on its owning shard.
func (s *Store) Put(key string, val []byte) error {
	return s.shard(key).Put(key, val)
}

// Delete durably removes key.
func (s *Store) Delete(key string) error {
	return s.shard(key).Delete(key)
}

// Len returns the live entry count across shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Flush checkpoints every shard: all acknowledged entries land in
// fsynced pages and the WAL prefix is dropped. Shards with nothing
// appended since their last checkpoint write nothing.
func (s *Store) Flush() error {
	for i, sh := range s.shards {
		if err := sh.Checkpoint(); err != nil {
			return fmt.Errorf("store: checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

// Healthy reports whether every shard can still acknowledge durable
// writes — false once any shard wedged into degraded read-only mode
// after a durability failure (see ErrWedged). Reads keep serving either
// way; the HTTP service's /readyz uses this to stop routing traffic to
// a replica that can no longer persist results.
func (s *Store) Healthy() bool {
	for _, sh := range s.shards {
		if sh.wedged() != nil {
			return false
		}
	}
	return true
}

// Compact synchronously compacts every shard (tests and maintenance;
// live shards compact themselves in the background).
func (s *Store) Compact() error {
	for i, sh := range s.shards {
		if err := sh.Compact(); err != nil {
			return fmt.Errorf("store: compact shard %d: %w", i, err)
		}
	}
	return nil
}

// Close checkpoints every shard that took a write since its last
// checkpoint and closes them all; a store closed with no writes since
// its last checkpoint writes and fsyncs nothing. The store must not be
// used afterwards.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats is the store-wide snapshot: totals plus per-shard detail — the
// /v1/stats surface.
type Stats struct {
	// Entries is the live key count across shards.
	Entries int `json:"entries"`
	// LiveBytes/DeadBytes/DiskBytes aggregate the shards' page
	// accounting.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	DiskBytes int64 `json:"disk_bytes"`
	// Puts/Gets/Hits/Deletes aggregate operations.
	Puts    uint64 `json:"puts"`
	Gets    uint64 `json:"gets"`
	Hits    uint64 `json:"hits"`
	Deletes uint64 `json:"deletes"`
	// Compactions counts segment rewrites across shards.
	Compactions uint64 `json:"compactions"`
	// WedgedShards counts shards in degraded read-only mode after a
	// durability failure (per-shard detail in Shards[i].Wedged/
	// WedgeReason). Non-zero means Puts to those shards fail and /readyz
	// reports the replica unready; reads keep serving.
	WedgedShards int `json:"wedged_shards"`
	// PeerFills/PeerMisses count warm-fill outcomes on local misses;
	// PeerFillErrors counts fetched values whose durable local adopt
	// failed (the value was still served).
	PeerFills      uint64 `json:"peer_fills"`
	PeerMisses     uint64 `json:"peer_misses"`
	PeerFillErrors uint64 `json:"peer_fill_errors"`
	// Peers is the per-peer health detail (fetches, hits, errors,
	// breaker state) when the configured filler keeps it (HTTPPeer).
	Peers []PeerStats `json:"peers,omitempty"`
	// WAL and Pool aggregate the per-shard logs and buffer pools.
	WAL  WALStats  `json:"wal"`
	Pool PoolStats `json:"pool"`
	// Shards is the per-shard detail, index-aligned with the ring.
	Shards []ShardStats `json:"shards"`
}

// Stats snapshots every shard and folds the totals.
func (s *Store) Stats() Stats {
	out := Stats{
		PeerFills:      s.peerFills.Load(),
		PeerMisses:     s.peerMisses.Load(),
		PeerFillErrors: s.peerFillErrors.Load(),
	}
	if ph, ok := s.peer.(PeerHealth); ok {
		out.Peers = ph.PeerStats()
	}
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Shards = append(out.Shards, st)
		if st.Wedged {
			out.WedgedShards++
		}
		out.Entries += st.Entries
		out.LiveBytes += st.LiveBytes
		out.DeadBytes += st.DeadBytes
		out.DiskBytes += st.DiskBytes
		out.Puts += st.Puts
		out.Gets += st.Gets
		out.Hits += st.Hits
		out.Deletes += st.Deletes
		out.Compactions += st.Compactions
		out.WAL.Appends += st.WAL.Appends
		out.WAL.AppendedBytes += st.WAL.AppendedBytes
		out.WAL.Syncs += st.WAL.Syncs
		out.WAL.Fsyncs += st.WAL.Fsyncs
		out.WAL.Rotations += st.WAL.Rotations
		out.WAL.Segments += st.WAL.Segments
		out.WAL.ReplayRecords += st.WAL.ReplayRecords
		out.WAL.TruncatedBytes += st.WAL.TruncatedBytes
		out.Pool.Hits += st.Pool.Hits
		out.Pool.Misses += st.Pool.Misses
		out.Pool.Evictions += st.Pool.Evictions
		out.Pool.Writebacks += st.Pool.Writebacks
		out.Pool.Pages += st.Pool.Pages
		out.Pool.Capacity += st.Pool.Capacity
	}
	return out
}
