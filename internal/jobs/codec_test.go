package jobs

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/sim"
	"repro/internal/store"
)

func sampleMetrics() *sim.Metrics {
	return &sim.Metrics{
		Policy: "tala", Stack: "dram-on-cpu", Mode: "liquid", Trace: "web-3h",
		HotspotFracAvg:     0.1234567890123,
		HotspotFracMax:     0.25,
		PeakTempC:          91.0625,
		ChipEnergyJ:        1234.5,
		PumpEnergyJ:        17.25,
		TotalEnergyJ:       1251.75,
		PerfDegradationPct: 2.5,
		MeanFlowFrac:       0.40625,
		Migrations:         42,
		SimulatedS:         10800,
		Solver: mat.SolveStats{
			Backend: "cg-ilu0", Factorizations: 3, Solves: 108000,
			Iterations: 432000, EarlyExits: 900, FallbackReason: "ilu0 breakdown",
			Ordering: "amd", FillRatio: 3.171875,
		},
		Series: []sim.TimeSample{
			{TimeS: 0.1, PeakC: 55.5, FlowFrac: 0.5, ChipPowerW: 90, PumpPowerW: 2},
			{TimeS: 0.2, PeakC: 56.25, FlowFrac: 0.625, ChipPowerW: 91.5, PumpPowerW: 2.5},
		},
	}
}

func TestMetricsCodecRoundTrip(t *testing.T) {
	cases := []*sim.Metrics{
		sampleMetrics(),
		{}, // zero value
		{Policy: "p", Series: nil},
	}
	for i, m := range cases {
		got, err := DecodeMetrics(EncodeMetrics(m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// TestMetricsCodecExactFloatBits: the restart guarantee is
// byte-identical results, so the codec must preserve every IEEE-754 bit
// pattern — including negative zero, subnormals, infinities and a
// specific NaN payload that fmt-style round-tripping would destroy.
func TestMetricsCodecExactFloatBits(t *testing.T) {
	weird := []float64{
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with payload
		0.1, // classic non-representable decimal
	}
	m := &sim.Metrics{
		HotspotFracAvg: weird[0], HotspotFracMax: weird[1], PeakTempC: weird[2],
		ChipEnergyJ: weird[3], PumpEnergyJ: weird[4], TotalEnergyJ: weird[5],
		Series: []sim.TimeSample{{TimeS: weird[4], PeakC: weird[0]}},
	}
	got, err := DecodeMetrics(EncodeMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: bits %016x != %016x", name, math.Float64bits(a), math.Float64bits(b))
		}
	}
	check("HotspotFracAvg", got.HotspotFracAvg, m.HotspotFracAvg)
	check("HotspotFracMax", got.HotspotFracMax, m.HotspotFracMax)
	check("PeakTempC", got.PeakTempC, m.PeakTempC)
	check("ChipEnergyJ", got.ChipEnergyJ, m.ChipEnergyJ)
	check("PumpEnergyJ", got.PumpEnergyJ, m.PumpEnergyJ)
	check("TotalEnergyJ", got.TotalEnergyJ, m.TotalEnergyJ)
	check("Series.TimeS", got.Series[0].TimeS, m.Series[0].TimeS)
	check("Series.PeakC", got.Series[0].PeakC, m.Series[0].PeakC)
}

func TestMetricsCodecRejectsBadInput(t *testing.T) {
	good := EncodeMetrics(sampleMetrics())
	// Every strict prefix fails cleanly (no panic, no partial success).
	for n := 0; n < len(good); n++ {
		if _, err := DecodeMetrics(good[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded", n)
		}
	}
	if _, err := DecodeMetrics(append(good, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := DecodeMetrics(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	// A huge series count must not allocate unboundedly.
	short := EncodeMetrics(&sim.Metrics{})
	short[len(short)-4] = 0xFF
	short[len(short)-3] = 0xFF
	short[len(short)-2] = 0xFF
	short[len(short)-1] = 0x7F
	if _, err := DecodeMetrics(short); err == nil {
		t.Fatal("absurd series count accepted")
	}
}

// TestCacheStoreTier exercises the write-through second tier: a fresh
// computation lands in the store, and a cold cache (new process) serves
// it back as a hit with zero recomputation and identical float bits.
func TestCacheStoreTier(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleMetrics()
	computes := 0
	compute := func() (any, error) { computes++; return want, nil }

	c1 := NewCache(8)
	c1.SetStore(st)
	v, cached, err := c1.GetOrCompute("key-a", compute)
	if err != nil || cached || computes != 1 {
		t.Fatalf("first compute: cached=%v computes=%d err=%v", cached, computes, err)
	}
	if v.(*sim.Metrics) != want {
		t.Fatal("computed value not returned as-is")
	}
	if s := c1.Stats(); s.StorePuts != 1 || s.StoreMisses != 1 {
		t.Fatalf("write-through not counted: %+v", s)
	}

	// Simulated restart: new cache, same store (reopened to prove
	// durability, not just the in-memory index).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: st.Dir(), PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2 := NewCache(8)
	c2.SetStore(st2)
	var hookFired bool
	c2.SetComputeHook(func(string, any) { hookFired = true })
	v2, cached, err := c2.GetOrCompute("key-a", func() (any, error) {
		t.Fatal("recomputed a stored result")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("store tier miss: cached=%v err=%v", cached, err)
	}
	if hookFired {
		t.Fatal("compute hook fired for a store-served value")
	}
	got := v2.(*sim.Metrics)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if s := c2.Stats(); s.StoreHits != 1 || s.Misses != 1 || s.StorePuts != 0 {
		t.Fatalf("store hit not counted: %+v", s)
	}
	// Promoted to memory: the next read never touches the store.
	if _, cached, _ = c2.GetOrCompute("key-a", compute); !cached {
		t.Fatal("store-served value not promoted to memory")
	}
	if s := c2.Stats(); s.StoreHits != 1 || s.Hits != 1 {
		t.Fatalf("promotion stats wrong: %+v", s)
	}
}

// TestCacheStoreTierSingleFlight: joiners of a flight that resolves
// from the store get the value without touching the store or compute.
func TestCacheStoreTierSingleFlight(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("k", EncodeMetrics(sampleMetrics())); err != nil {
		t.Fatal(err)
	}
	c := NewCache(8)
	c.SetStore(st)
	v, cached, fl, err := c.StartFlight(context.Background(), "k")
	if err != nil || !cached || fl != nil {
		t.Fatalf("store-backed StartFlight: cached=%v fl=%v err=%v", cached, fl, err)
	}
	if v.(*sim.Metrics).Policy != "tala" {
		t.Fatal("wrong value from store")
	}
}

// TestCacheStoreErrorsDegrade: a store that fails never fails the
// request — the cache computes and counts the error.
func TestCacheStoreErrorsDegrade(t *testing.T) {
	c := NewCache(8)
	c.SetStore(failingStore{})
	v, cached, err := c.GetOrCompute("k", func() (any, error) { return sampleMetrics(), nil })
	if err != nil || cached || v == nil {
		t.Fatalf("degraded compute failed: cached=%v err=%v", cached, err)
	}
	if s := c.Stats(); s.StoreErrors != 2 { // one read error + one write error
		t.Fatalf("store errors %d, want 2: %+v", s.StoreErrors, s)
	}
	// Corrupt stored bytes also degrade to compute.
	c2 := NewCache(8)
	c2.SetStore(garbageStore{})
	_, cached, err = c2.GetOrCompute("k", func() (any, error) { return sampleMetrics(), nil })
	if err != nil || cached {
		t.Fatalf("corrupt store value not tolerated: cached=%v err=%v", cached, err)
	}
	if s := c2.Stats(); s.StoreErrors == 0 {
		t.Fatalf("decode failure not counted: %+v", s)
	}
}

// TestCacheStoreTierPeerFill: a cache over a store with a peer filler
// serves a value the local store never held — the store heals from its
// peer, the cache sees an ordinary store hit (cached=true, StoreHits),
// and nothing is recomputed. This is the stats seam the replica fleet
// rides: a fresh node's /v1/stats shows store hits and peer fills, not
// computed scenarios.
func TestCacheStoreTierPeerFill(t *testing.T) {
	primary, err := store.Open(store.Options{Dir: t.TempDir(), PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	want := sampleMetrics()
	if err := primary.Put("key-p", EncodeMetrics(want)); err != nil {
		t.Fatal(err)
	}

	replica, err := store.Open(store.Options{
		Dir: t.TempDir(), PageSize: 512,
		Peer: store.StorePeer{S: primary},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	c := NewCache(8)
	c.SetStore(replica)
	c.SetComputeHook(func(string, any) { t.Fatal("compute hook fired for a peer-filled value") })
	v, cached, err := c.GetOrCompute("key-p", func() (any, error) {
		t.Fatal("recomputed a fleet-resident result")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("peer-backed lookup: cached=%v err=%v", cached, err)
	}
	if !reflect.DeepEqual(v.(*sim.Metrics), want) {
		t.Fatal("peer-filled metrics differ")
	}
	if s := c.Stats(); s.StoreHits != 1 || s.StorePuts != 0 {
		t.Fatalf("peer fill not an ordinary store hit: %+v", s)
	}
	if ps := replica.Stats(); ps.PeerFills != 1 {
		t.Fatalf("store did not warm-fill: %+v", ps)
	}
	// The heal was durable: the replica now serves it without the peer.
	if _, ok, err := replica.GetLocal("key-p"); !ok || err != nil {
		t.Fatalf("peer fill not adopted locally: ok=%v err=%v", ok, err)
	}
}

type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool, error) { return nil, false, errFail }
func (failingStore) Put(string, []byte) error         { return errFail }

type garbageStore struct{}

func (garbageStore) Get(string) ([]byte, bool, error) { return []byte{0xde, 0xad}, true, nil }
func (garbageStore) Put(string, []byte) error         { return nil }

var errFail = errFailT{}

type errFailT struct{}

func (errFailT) Error() string { return "injected store failure" }
