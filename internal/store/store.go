package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Options tunes an Open call. The zero value gets sensible defaults;
// Dir is required.
type Options struct {
	// Dir is the store root: it holds META, the seg-*.dat segment files
	// and the wal/ directory.
	Dir string
	// PoolPages caps the buffer-pool page frames (default 1024; the pool
	// keeps at least 4).
	PoolPages int
	// PageSize is the slotted-page unit in bytes (default 8192).
	// Persisted in META at creation; pass 0 on a reopen to adopt the
	// persisted size, any other mismatch is an error.
	PageSize int
	// SegmentBytes caps one data segment file (default 4 MiB).
	SegmentBytes int64
	// WALSegmentBytes caps one WAL segment file (default 4 MiB).
	WALSegmentBytes int64
	// CompactFraction triggers background compaction when dead bytes
	// exceed this fraction of the store's total (default 0.5).
	CompactFraction float64
	// CompactMinBytes suppresses compaction below this total footprint
	// (default 1 MiB).
	CompactMinBytes int64
	// Peer, when set, is consulted on a local miss: a hit is durably
	// adopted locally before returning, so a fresh replica heals from its
	// peers instead of recomputing.
	Peer PeerFiller
}

func (o Options) withDefaults() Options {
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

// Store is the durable scenario-result store: one WAL-backed page
// shard rooted at Options.Dir, plus the peer warm-fill hook. Safe for
// concurrent use.
type Store struct {
	*Shard
	peer PeerFiller

	peerFills      atomic.Uint64
	peerMisses     atomic.Uint64
	peerFillErrors atomic.Uint64
}

// Open opens (or creates) the store rooted at opt.Dir and recovers it:
// segment scan, WAL replay, torn-tail truncation. A directory holding
// the sharded layout of an earlier version (a STORE manifest over
// shard-NNN directories) is refused and left untouched: it holds only
// recomputable results.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if _, err := os.Stat(filepath.Join(opt.Dir, "STORE")); err == nil {
		return nil, fmt.Errorf("store: %s holds the sharded layout of an earlier version (a STORE manifest); it is left untouched — move it aside or delete it, its results are recomputed on demand", opt.Dir)
	}
	sh, err := OpenShard(opt.Dir, opt)
	if err != nil {
		return nil, err
	}
	return &Store{Shard: sh, peer: opt.Peer}, nil
}

// Dir returns the store root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the value for key. A local miss consults the peer filler
// (when configured): a peer hit is adopted locally — durably, so the
// heal survives the next restart — before returning.
func (s *Store) Get(key string) ([]byte, bool, error) {
	v, ok, err := s.Shard.Get(key)
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
	if err := s.Put(key, pv); err != nil {
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
	return s.Shard.Get(key)
}

// Healthy reports whether the store can still acknowledge durable
// writes — false once it wedged into degraded read-only mode after a
// durability failure (see ErrWedged). Reads keep serving either way;
// the HTTP service's /readyz uses this to stop routing traffic to a
// replica that can no longer persist results.
func (s *Store) Healthy() bool {
	return s.wedged() == nil
}

// Stats is the store snapshot — the /v1/stats surface: the shard's
// counters plus the peer warm-fill outcomes.
type Stats struct {
	ShardStats
	// PeerFills/PeerMisses count warm-fill outcomes on local misses;
	// PeerFillErrors counts fetched values whose durable local adopt
	// failed (the value was still served).
	PeerFills      uint64 `json:"peer_fills"`
	PeerMisses     uint64 `json:"peer_misses"`
	PeerFillErrors uint64 `json:"peer_fill_errors"`
	// Peers is the per-peer health detail (fetches, hits, errors,
	// breaker state) when the configured filler keeps it (HTTPPeer).
	Peers []PeerStats `json:"peers,omitempty"`
}

// Stats snapshots the shard and peer counters.
func (s *Store) Stats() Stats {
	out := Stats{
		ShardStats:     s.Shard.Stats(),
		PeerFills:      s.peerFills.Load(),
		PeerMisses:     s.peerMisses.Load(),
		PeerFillErrors: s.peerFillErrors.Load(),
	}
	if ph, ok := s.peer.(PeerHealth); ok {
		out.Peers = ph.PeerStats()
	}
	return out
}
