package thermal

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/units"
)

// batchFixture builds one liquid-cooled 2-tier stack model.
func batchFixture(t testing.TB, solver string, prep *mat.PrepCache, asm *AssemblyCache) *StackModel {
	t.Helper()
	sm, err := BuildStack(floorplan.Niagara2Tier(), StackOptions{
		Mode:          LiquidCooled,
		FlowPerCavity: units.MlPerMinToM3PerS(32.3),
		Nx:            8, Ny: 8,
		Solver:     solver,
		Prep:       prep,
		Assemblies: asm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// batchPower synthesises a power map with per-scenario variation.
func batchPower(t testing.TB, sm *StackModel, scale float64) PowerMap {
	t.Helper()
	nx, ny := sm.Model.Grid()
	pm := make(PowerMap, len(sm.Model.PowerLayers()))
	for k := range pm {
		cells := make([]float64, nx*ny)
		for c := range cells {
			cells[c] = scale * (0.05 + 0.01*float64((c+k)%7))
		}
		pm[k] = cells
	}
	return pm
}

// TestBatchStepperBitIdentical pins the lockstep contract per backend:
// N transients advanced by a BatchStepper — through shared prep and
// assembly caches, with mid-run flow changes splitting and re-merging
// the factor groups — hold bit-identical states and solver stats to the
// same scenarios stepped solo without any sharing.
func TestBatchStepperBitIdentical(t *testing.T) {
	const scenarios = 5
	const steps = 12
	for _, backend := range mat.Backends() {
		t.Run(backend, func(t *testing.T) {
			// Solo references: private models, plain Step.
			solo := make([]*Transient, scenarios)
			soloPMs := make([]PowerMap, scenarios)
			soloSMs := make([]*StackModel, scenarios)
			for s := 0; s < scenarios; s++ {
				sm := batchFixture(t, backend, nil, nil)
				tr, err := sm.Model.NewTransient(0.1, 40+float64(s))
				if err != nil {
					t.Fatal(err)
				}
				solo[s] = tr
				soloSMs[s] = sm
				soloPMs[s] = batchPower(t, sm, 1+0.2*float64(s))
			}
			// Batched runs: shared caches, lockstep stepping.
			prep := mat.NewPrepCache(0)
			asm := NewAssemblyCache(0)
			batched := make([]*Transient, scenarios)
			pms := make([]PowerMap, scenarios)
			sms := make([]*StackModel, scenarios)
			for s := 0; s < scenarios; s++ {
				sm := batchFixture(t, backend, prep, asm)
				tr, err := sm.Model.NewTransient(0.1, 40+float64(s))
				if err != nil {
					t.Fatal(err)
				}
				batched[s] = tr
				sms[s] = sm
				pms[s] = batchPower(t, sm, 1+0.2*float64(s))
			}
			bs := NewBatchStepper()
			flows := []float64{32.3, 32.3, 20, 20, 10, 32.3, 32.3, 32.3, 20, 10, 10, 32.3}
			for step := 0; step < steps; step++ {
				// Scenarios 0..2 follow the flow schedule, 3..4 hold max:
				// the batch splits into diverging factor groups mid-run.
				for s := 0; s < 3; s++ {
					q := units.MlPerMinToM3PerS(flows[step])
					if err := sms[s].SetFlowPerCavity(q); err != nil {
						t.Fatal(err)
					}
					if err := soloSMs[s].SetFlowPerCavity(q); err != nil {
						t.Fatal(err)
					}
				}
				if errs := bs.Step(batched, pms); errs != nil {
					t.Fatalf("step %d: %v", step, errs)
				}
				for s := 0; s < scenarios; s++ {
					if err := solo[s].Step(soloPMs[s]); err != nil {
						t.Fatal(err)
					}
				}
				for s := 0; s < scenarios; s++ {
					got, want := batched[s].View(), solo[s].View()
					for i := range want.T {
						if got.T[i] != want.T[i] {
							t.Fatalf("step %d scenario %d node %d: %v != %v",
								step, s, i, got.T[i], want.T[i])
						}
					}
				}
			}
			for s := 0; s < scenarios; s++ {
				got, want := batched[s].SolverStats(), solo[s].SolverStats()
				if got != want {
					t.Fatalf("scenario %d stats: %+v != solo %+v", s, got, want)
				}
			}
			st := bs.Stats()
			blocks := backend == mat.BackendDirect
			if st.Steps != steps || (st.BatchedColumns > 0) != blocks || (st.BatchSolves > 0) != blocks {
				t.Fatalf("unexpected batch stats %+v (only direct blocks)", st)
			}
			if backend == mat.BackendDirect && asm.Stats().Shares == 0 {
				t.Fatalf("assembly cache never shared: %+v", asm.Stats())
			}
		})
	}
}

// TestBatchStepperIterativeStepsSolo pins the width rule's thermal
// half: transients sharing one bicgstab factorization (one prep cache,
// one flow) step through BatchStepper.Step, yet every staged solve is a
// solo solve — never a blocked one — and each matches Transient.Step
// bit for bit.
func TestBatchStepperIterativeStepsSolo(t *testing.T) {
	const scenarios, steps = 4, 6
	prep := mat.NewPrepCache(0)
	var batched, solo []*Transient
	var pms []PowerMap
	for s := 0; s < scenarios; s++ {
		sm := batchFixture(t, mat.BackendBiCGSTAB, prep, nil)
		tr, err := sm.Model.NewTransient(0.1, 40+float64(s))
		if err != nil {
			t.Fatal(err)
		}
		ref := batchFixture(t, mat.BackendBiCGSTAB, nil, nil)
		rtr, err := ref.Model.NewTransient(0.1, 40+float64(s))
		if err != nil {
			t.Fatal(err)
		}
		batched, solo = append(batched, tr), append(solo, rtr)
		pms = append(pms, batchPower(t, sm, 1+0.2*float64(s)))
	}
	bs := NewBatchStepper()
	for step := 0; step < steps; step++ {
		if errs := bs.Step(batched, pms); errs != nil {
			t.Fatalf("step %d: %v", step, errs)
		}
		for s, tr := range batched {
			if tr.fact == nil || tr.fact != batched[0].fact {
				t.Fatalf("step %d scenario %d: factorization not shared", step, s)
			}
			if err := solo[s].Step(pms[s]); err != nil {
				t.Fatal(err)
			}
			got, want := tr.View(), solo[s].View()
			for i := range want.T {
				if got.T[i] != want.T[i] {
					t.Fatalf("step %d scenario %d node %d: %v != %v", step, s, i, got.T[i], want.T[i])
				}
			}
		}
	}
	solves := 0
	for s, tr := range batched {
		got, want := tr.SolverStats(), solo[s].SolverStats()
		if got != want {
			t.Fatalf("scenario %d stats: %+v != solo %+v", s, got, want)
		}
		solves += got.Solves
	}
	st := bs.Stats()
	if st.BatchSolves != 0 || st.BatchedColumns != 0 {
		t.Fatalf("bicgstab steps were blocked: %+v", st)
	}
	if st.SoloSolves == 0 || st.SoloSolves+st.FixedPointSkips > solves {
		t.Fatalf("solo solves %d, fixed-point skips %d, logical solves %d", st.SoloSolves, st.FixedPointSkips, solves)
	}
}

// TestBatchStepperSoloFallback checks that a batch of one (and a group
// of one) routes through the solo workspace and still matches Step.
func TestBatchStepperSoloFallback(t *testing.T) {
	sm := batchFixture(t, mat.BackendDirect, nil, nil)
	ref := batchFixture(t, mat.BackendDirect, nil, nil)
	tr, err := sm.Model.NewTransient(0.1, 45)
	if err != nil {
		t.Fatal(err)
	}
	rtr, err := ref.Model.NewTransient(0.1, 45)
	if err != nil {
		t.Fatal(err)
	}
	pm := batchPower(t, sm, 1)
	bs := NewBatchStepper()
	for step := 0; step < 5; step++ {
		if errs := bs.Step([]*Transient{tr}, []PowerMap{pm}); errs != nil {
			t.Fatal(errs)
		}
		if err := rtr.Step(pm); err != nil {
			t.Fatal(err)
		}
	}
	got, want := tr.View(), rtr.View()
	for i := range want.T {
		if got.T[i] != want.T[i] {
			t.Fatalf("node %d: %v != %v", i, got.T[i], want.T[i])
		}
	}
	if st := bs.Stats(); st.BatchSolves != 0 || st.SoloSolves == 0 {
		t.Fatalf("expected solo-only stepping, got %+v", st)
	}
}

// TestBatchStepperColumnFailure checks that one stepper's failure (a
// power map of the wrong shape) leaves its neighbours advancing
// bit-identically.
func TestBatchStepperColumnFailure(t *testing.T) {
	prep := mat.NewPrepCache(0)
	asm := NewAssemblyCache(0)
	var trs []*Transient
	var pms []PowerMap
	for s := 0; s < 3; s++ {
		sm := batchFixture(t, mat.BackendDirect, prep, asm)
		tr, err := sm.Model.NewTransient(0.1, 45)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
		pms = append(pms, batchPower(t, sm, 1))
	}
	ref := batchFixture(t, mat.BackendDirect, nil, nil)
	rtr, err := ref.Model.NewTransient(0.1, 45)
	if err != nil {
		t.Fatal(err)
	}
	pms[1] = pms[1][:1] // malformed: missing a power layer
	bs := NewBatchStepper()
	errs := bs.Step(trs, pms)
	if errs == nil || errs[1] == nil {
		t.Fatal("malformed scenario did not fail")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy scenarios failed: %v", errs)
	}
	if err := rtr.Step(batchPower(t, ref, 1)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 2} {
		got, want := trs[s].View(), rtr.View()
		for i := range want.T {
			if got.T[i] != want.T[i] {
				t.Fatalf("scenario %d node %d drifted", s, i)
			}
		}
	}
}

// TestAssemblyCacheBounds checks the overflow path builds uncached.
func TestAssemblyCacheBounds(t *testing.T) {
	asm := NewAssemblyCache(1)
	calls := 0
	build := func() (*mat.Sparse, []float64, []float64) {
		calls++
		b := mat.NewBuilder(2)
		b.Add(0, 0, 1)
		b.Add(1, 1, 1)
		return b.Build(), nil, nil
	}
	g1, _, _ := asm.assembly("k1", build)
	g1b, _, _ := asm.assembly("k1", build)
	if g1 != g1b {
		t.Fatal("same key returned different assemblies")
	}
	g2, _, _ := asm.assembly("k2", build)
	g2b, _, _ := asm.assembly("k2", build)
	if g2 == g2b {
		t.Fatal("overflow builds should be private")
	}
	st := asm.Stats()
	if st.Assemblies != 3 || st.Shares != 1 || st.Overflows != 2 {
		t.Fatalf("stats %+v", st)
	}
	if asm.Len() != 1 {
		t.Fatalf("len %d", asm.Len())
	}
}

// TestAssemblyCacheHandoff pins the generation handoff: a cache built
// from the previous generation adopts that generation's completed
// product for a key instead of building it (a share, not an assembly),
// holds it for its own callers, and builds keys the previous
// generation never held. A product still being built there is not
// waited for, and a generation adopts only from the one before it.
func TestAssemblyCacheHandoff(t *testing.T) {
	calls := 0
	build := func() (*mat.Sparse, []float64, []float64) {
		calls++
		b := mat.NewBuilder(2)
		b.Add(0, 0, float64(calls))
		b.Add(1, 1, 1)
		return b.Build(), nil, nil
	}
	gen1 := NewAssemblyCache(0)
	g1, _, _ := gen1.assembly("k1", build)
	gen1.DropPrevious()

	gen2 := NewAssemblyCacheFrom(gen1, 0)
	for i := 0; i < 2; i++ {
		if g, _, _ := gen2.assembly("k1", build); g != g1 {
			t.Fatalf("lookup %d: the previous generation's product was not adopted", i)
		}
	}
	gen2.assembly("k2", build)
	if st := gen2.Stats(); st.Assemblies != 1 || st.Shares != 2 || gen2.Len() != 2 || calls != 2 {
		t.Fatalf("generation 2: %+v len %d builds %d, want 1 assembly, 2 shares, len 2, 2 builds",
			st, gen2.Len(), calls)
	}
	gen2.DropPrevious()

	// Generation 3 adopts k2 and holds an unfinished k3; generation 4
	// adopts k2 again, builds k3 without waiting, and builds k1, which
	// generation 3 never used.
	gen3 := NewAssemblyCacheFrom(gen2, 0)
	gen3.assembly("k2", build)
	gen3.entries["k3"] = &asmEntry{done: make(chan struct{})}
	gen3.DropPrevious()
	gen4 := NewAssemblyCacheFrom(gen3, 0)
	gen4.assembly("k2", build)
	if g, _, _ := gen4.assembly("k3", build); g == nil {
		t.Fatal("an unfinished product of the previous generation was served")
	}
	if g, _, _ := gen4.assembly("k1", build); g == g1 {
		t.Fatal("a generation adopted from two generations back")
	}
	if st := gen4.Stats(); st.Assemblies != 2 || st.Shares != 1 {
		t.Fatalf("generation 4: %+v, want k3 and k1 built, k2 adopted", st)
	}

	// A full generation serves an adoption uncached.
	full := NewAssemblyCacheFrom(gen2, 1)
	full.assembly("k9", build)
	if g, _, _ := full.assembly("k1", build); g != g1 || full.Len() != 1 || full.Stats().Shares != 1 {
		t.Fatalf("full generation: adopted %v, len %d, stats %+v", g == g1, full.Len(), full.Stats())
	}
}
