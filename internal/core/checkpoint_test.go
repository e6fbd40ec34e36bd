package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"carbon/internal/checkpoint"
	"carbon/internal/rng"
)

func TestRngStateRoundTrip(t *testing.T) {
	r := rng.New(99)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	st := r.State()
	a := make([]uint64, 20)
	for i := range a {
		a[i] = r.Uint64()
	}
	r2 := rng.New(1)
	if err := r2.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if got := r2.Uint64(); got != a[i] {
			t.Fatalf("restored stream diverged at %d", i)
		}
	}
	if err := r2.Restore([4]uint64{}); err == nil {
		t.Fatal("zero state accepted")
	}
}

// TestSnapshotRestoreGolden is the determinism-under-interruption
// contract: for a fixed seed, {run to generation k, snapshot through the
// full serialized format, restore, run to completion} must yield a
// Result identical to the uninterrupted run — same best pairing, same
// fitnesses, same convergence curves, same budget accounting — also
// when the restored engine runs with a different number of workers.
func TestSnapshotRestoreGolden(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(77)
	cfg.Workers = 1

	// Uninterrupted reference.
	ref, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted at every quarter of the run: snapshot through the
	// on-disk envelope, restore, finish, compare.
	for _, k := range []int{1, ref.Gens / 4, ref.Gens / 2, 3 * ref.Gens / 4} {
		if k < 1 {
			continue
		}
		e, err := NewEngine(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e.Gens() < k && e.Step() {
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := checkpoint.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.Workers = 1 + k%3
		e2, err := Restore(mk, other, loaded)
		if err != nil {
			t.Fatal(err)
		}
		if e2.Gens() != k {
			t.Fatalf("k=%d: restored at generation %d", k, e2.Gens())
		}
		for e2.Step() {
		}
		res, err := e2.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Gens != ref.Gens || res.ULEvals != ref.ULEvals || res.LLEvals != ref.LLEvals {
			t.Fatalf("k=%d: accounting differs: gens %d/%d evals %d+%d vs %d+%d",
				k, res.Gens, ref.Gens, res.ULEvals, res.LLEvals, ref.ULEvals, ref.LLEvals)
		}
		if res.Best.Revenue != ref.Best.Revenue || res.Best.TreeStr != ref.Best.TreeStr ||
			res.Best.GapPct != ref.Best.GapPct {
			t.Fatalf("k=%d: best pairing diverged: (%v, %q, %v) vs (%v, %q, %v)",
				k, res.Best.Revenue, res.Best.TreeStr, res.Best.GapPct,
				ref.Best.Revenue, ref.Best.TreeStr, ref.Best.GapPct)
		}
		if !reflect.DeepEqual(res.Best.Price, ref.Best.Price) {
			t.Fatalf("k=%d: best price diverged", k)
		}
		if !reflect.DeepEqual(res.ULCurve, ref.ULCurve) || !reflect.DeepEqual(res.GapCurve, ref.GapCurve) {
			t.Fatalf("k=%d: convergence curves diverged", k)
		}
	}
}

func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(5)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.ULPopSize = cfg.ULPopSize * 2
	other.ULEvalBudget = cfg.ULEvalBudget * 2
	if _, err := Restore(mk, other, st); err == nil {
		t.Fatal("mismatched config accepted")
	}
	if _, err := Restore(mk, cfg, nil); err == nil {
		t.Fatal("nil state accepted")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(6)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	snap := func() *checkpoint.State {
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := snap()
	st.Predators[0] = "(+ broken"
	if _, err := Restore(mk, cfg, st); err == nil {
		t.Fatal("corrupt predator accepted")
	}

	st = snap()
	st.Prey[0] = []float64{1}
	if _, err := Restore(mk, cfg, st); err == nil {
		t.Fatal("corrupt prey accepted")
	}

	st = snap()
	st.ULArchF = st.ULArchF[:1]
	if len(st.ULArchP) > 1 {
		if _, err := Restore(mk, cfg, st); err == nil {
			t.Fatal("ragged archive accepted")
		}
	}

	st = snap()
	st.GPArchT[0] = "(mod q"
	if _, err := Restore(mk, cfg, st); err == nil {
		t.Fatal("corrupt archive tree accepted")
	}
}

func TestSnapshotArchivePreserved(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(9)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && e.CanStep(); i++ {
		e.Step()
	}
	before, beforeRev, ok := e.BestPrey()
	if !ok {
		t.Fatal("no archive before snapshot")
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(mk, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	after, afterRev, ok := e2.BestPrey()
	if !ok {
		t.Fatal("archive lost")
	}
	if afterRev != beforeRev {
		t.Fatalf("best fitness changed: %v vs %v", afterRev, beforeRev)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("best item changed across snapshot")
		}
	}
}

// TestRestoredArchivesDeduplicate: Restore rebuilds both archives' key
// indexes, so re-offering an archived price or tree at a slightly worse
// fitness is recognised as a duplicate and leaves Entries() unchanged.
func TestRestoredArchivesDeduplicate(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(9)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && e.CanStep(); i++ {
		e.Step()
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(mk, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	ul, gpe := e2.ulArch.Entries(), e2.gpArch.Entries()
	// An offer only reaches the duplicate check when it could displace
	// the worst entry; count those, so the test cannot pass vacuously.
	dupChecked := 0
	for _, en := range ul {
		f := math.Nextafter(en.Fitness, math.Inf(-1)) // revenue: lower is worse
		if e2.ulArch.Len() < cfg.ULArchiveSize || f > ul[len(ul)-1].Fitness {
			dupChecked++
		}
		if e2.ulArch.Add(en.Item, f) {
			t.Fatalf("restored UL archive re-admitted a price at a worse revenue %v", f)
		}
	}
	for _, en := range gpe {
		f := math.Nextafter(en.Fitness, math.Inf(1)) // cost: higher is worse
		if e2.gpArch.Len() < cfg.LLArchiveSize || f < gpe[len(gpe)-1].Fitness {
			dupChecked++
		}
		if e2.gpArch.Add(en.Item, f) {
			t.Fatalf("restored GP archive re-admitted a tree at a worse cost %v", f)
		}
	}
	if dupChecked == 0 {
		t.Fatal("no re-offer reached the duplicate check")
	}
	if !reflect.DeepEqual(ul, e2.ulArch.Entries()) || !reflect.DeepEqual(gpe, e2.gpArch.Entries()) {
		t.Fatal("re-offering archived items changed a restored archive")
	}
}

// failEngine returns an engine whose next Step fails terminally: every
// prey vector is corrupted to the wrong dimension, so the whole
// relaxation wave fails — a single bad individual would merely be
// quarantined (see fault_test.go), but a wave with zero successes has
// no fitness signal and Step records it as Engine.Err.
func failEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(smallMarket(t), smallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("healthy engine refused to step")
	}
	for i := range e.prey {
		e.prey[i] = []float64{0.5} // wrong dimension → evaluator error
	}
	if e.Step() {
		t.Fatal("corrupted engine stepped successfully")
	}
	if e.Err() == nil {
		t.Fatal("corrupted step recorded no error")
	}
	return e
}

// TestStepAfterErrIsNoOp pins the failure semantics: once Err() is
// non-nil, Step is a no-op returning false (no budget consumed, no
// generation counted) and Snapshot refuses to serialize the wreck.
func TestStepAfterErrIsNoOp(t *testing.T) {
	e := failEngine(t)
	firstErr := e.Err()
	gens, ul, ll := e.Gens(), e.ulUsed, e.llUsed
	for i := 0; i < 3; i++ {
		if e.Step() {
			t.Fatalf("Step %d after Err returned true", i)
		}
	}
	if e.Gens() != gens || e.ulUsed != ul || e.llUsed != ll {
		t.Fatalf("no-op Step mutated counters: gens %d→%d evals %d+%d→%d+%d",
			gens, e.Gens(), ul, ll, e.ulUsed, e.llUsed)
	}
	if e.Err() != firstErr {
		t.Fatalf("terminal error changed: %v → %v", firstErr, e.Err())
	}
}

func TestSnapshotOnFailedEngineErrors(t *testing.T) {
	e := failEngine(t)
	st, err := e.Snapshot()
	if err == nil {
		t.Fatal("failed engine produced a snapshot")
	}
	if st != nil {
		t.Fatal("failed snapshot returned non-nil state")
	}
	if !errors.Is(err, e.Err()) {
		t.Fatalf("snapshot error %v does not wrap engine error %v", err, e.Err())
	}
}

// FuzzRestore feeds arbitrary bytes through the full decode → Restore
// pipeline: corruption must surface as an error, never a panic and
// never a half-restored engine.
func FuzzRestore(f *testing.F) {
	mk := smallMarket(f)
	cfg := smallConfig(13)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		f.Fatal(err)
	}
	e.Step()
	st, err := e.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte("{}"))
	f.Add(good[:len(good)*2/3])
	f.Add(bytes.Replace(good, []byte("(+"), []byte("(?"), 1))
	f.Add(bytes.Replace(good, []byte(`"prey"`), []byte(`"pray"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := checkpoint.DecodeBytes(data)
		if err != nil {
			return
		}
		e, err := Restore(mk, cfg, st)
		if err != nil {
			return
		}
		// A state that restores must leave a steppable engine.
		if e.Err() != nil {
			t.Fatalf("restored engine born failed: %v", e.Err())
		}
		e.Step()
	})
}

// TestRestoreBadBasesRestoresParentless: a checkpoint whose prey bases
// are truncated, out of range for the market or garbage restores those
// prey parentless (their relaxations start like a migrant's) and keeps
// the good bases; a checkpoint without bases restores every prey
// parentless; a basis list of the wrong length is rejected. Every
// restored engine steps without error.
func TestRestoreBadBasesRestoresParentless(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(21)
	e, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	e.Step()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PreyBases) != cfg.ULPopSize || len(st.PreyBases[5]) == 0 {
		t.Fatalf("snapshot carries %d prey bases, want %d non-empty", len(st.PreyBases), cfg.ULPopSize)
	}
	rows, words := mk.Services(), (mk.Bundles()+63)/64
	outOfRange := binary.AppendUvarint(nil, uint64(rows))
	outOfRange = binary.AppendUvarint(outOfRange, uint64(words))
	for i := 0; i < rows; i++ {
		outOfRange = binary.AppendUvarint(outOfRange, uint64(mk.Bundles()+rows+i))
	}
	outOfRange = append(outOfRange, make([]byte, 8*words)...)
	bad := map[int][]byte{
		0: st.PreyBases[0][:len(st.PreyBases[0])/2],
		1: outOfRange,
		2: []byte("garbage"),
	}
	for i, data := range bad {
		st.PreyBases[i] = data
	}
	restore := func(st *checkpoint.State) *Engine {
		t.Helper()
		var buf bytes.Buffer
		if err := st.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := checkpoint.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(mk, cfg, loaded)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	step := func(r *Engine) {
		t.Helper()
		if !r.Step() || r.Err() != nil {
			t.Fatalf("restored engine failed to step: %v", r.Err())
		}
	}
	r := restore(st)
	for i, b := range r.preyBasis {
		if _, isBad := bad[i]; isBad != (b == nil) {
			t.Errorf("prey %d: restored basis %v, corrupted %v", i, b != nil, isBad)
		}
	}
	step(r)

	st.PreyBases = nil
	r = restore(st)
	for i, b := range r.preyBasis {
		if b != nil {
			t.Fatalf("prey %d has a basis after a restore without bases", i)
		}
	}
	step(r)

	st.PreyBases = make([][]byte, cfg.ULPopSize-1)
	if _, err := Restore(mk, cfg, st); err == nil {
		t.Fatal("prey basis list of the wrong length accepted")
	}
}
